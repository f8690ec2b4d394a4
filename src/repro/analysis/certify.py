"""Static stream-safety certification for the plan compiler (UNC401).

The optimizer and the fused-kernel backend promise *bit-identity*: an
optimized plan or generated kernel must consume the RNG stream exactly as
the reference numpy engine would and produce identical arrays.  This
module proves it **symbolically**, before anything executes; nothing is
admitted by running it.

The certifier performs a *draw-order effect analysis*: it computes the
canonical RNG consumption sequence — which generator family draws, how
many values, triggered by which slots, in which order — of the reference
plan, and checks that a rewrite or kernel provably consumes the same
sequence with the same value semantics.

What is provable, and why:

- **Rewrites** (:func:`certify_rewrite`): the optimizer may only fold,
  share, and drop *deterministic* interior nodes.  If the optimized
  plan's stochastic sources are the identical node objects in the
  identical slot order, every draw happens with the same family, count
  and position — certified.  Anything else is rejected with UNC401.
- **Coalesced bulk draws** (:func:`certify_kernel`): a kernel collapses
  a run of adjacent leaves into one ``rng.family(k * n)`` call.  numpy's
  ``Generator`` methods fill requests sequentially from one stream and
  compute ``loc + scale * draw`` per element, so the chunking is
  value-identical *provided the leaf's distribution really is* the
  claimed affine reduction of that family.  ``bulk_draw_spec`` is a
  claim, not a proof — so it is trusted only for the exact first-party
  distribution classes whose ``sample_n`` provably matches
  (:data:`TRUSTED_BULK_FAMILIES`).  The kernel generator delegates every
  other leaf to its own ``sample_n``.
- **Delegated sources** (``_S``/``_G`` slots): the kernel calls the same
  ``evaluate_batch`` the engine would, at the same position in slot
  order — stream-identical by construction.
- **Inlined scalar constants**: the engine materializes every constant
  as an ``np.full`` array while the kernel may keep it a Python scalar,
  and NEP 50 gives Python scalars *weak* promotion.  A small abstract
  dtype analysis finds the cases where both promotions provably agree
  (see :func:`_scalar_obstacle`); the kernel generator materializes every
  other constant, as the engine does.

The kernel generator (:func:`repro.core.fused._generate`) consults the
same predicates, so every kernel it emits certifies; a ``rejected``
kernel is a generator bug, and the fused engine falls back to numpy.
Every decision is emitted as a :class:`CertificationRecord` into
``plan.provenance`` — ``certified``, ``fallback`` (an opaque plan, or a
kernel that could not be generated: the numpy engine runs it) or
``rejected`` (UNC401) — and the differential harness in
``tests/analysis/test_certify.py`` runs every certified kernel against
the numpy engine.

The sample ledger's stream mode rests on the same kind of proof:
:func:`prefix_stable` names the leaves whose ``n`` rows followed by
``N - n`` more equal one ``N``-row draw (:data:`PREFIX_STABLE_CLASSES`).
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.core import fused as _fused
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.optimizer import is_stochastic
from repro.core.plan import OP_SOURCE, EvaluationPlan

__all__ = [
    "CertificationRecord",
    "DrawEvent",
    "PREFIX_STABLE_CLASSES",
    "TRUSTED_BULK_FAMILIES",
    "certification_records",
    "certify_kernel",
    "certify_rewrite",
    "certify_value",
    "plan_draw_sequence",
    "prefix_stable",
]

#: ``(module, qualname)`` of distribution classes whose ``sample_n`` is
#: *known* (by reading both sources) to be the exact affine reduction of
#: the named base-generator family, making coalesced draws value- and
#: stream-identical.  Exact type match only: a subclass may override
#: ``sample_n`` arbitrarily while inheriting ``bulk_draw_spec``.
TRUSTED_BULK_FAMILIES = {
    ("repro.dists.gaussian", "Gaussian"): "standard_normal",
    ("repro.dists.uniform", "Uniform"): "random",
    ("repro.dists.exponential", "Exponential"): "standard_exponential",
}

#: ``(module, qualname)`` of distribution classes whose ``sample_n`` makes
#: one NumPy generator call per batch (or none) and whose row ``i`` does
#: not depend on the batch size, so ``n`` rows then ``N - n`` more on one
#: generator equal one ``N``-row draw (the sample ledger's stream mode).
#: Read from each ``sample_n``, as :data:`TRUSTED_BULK_FAMILIES` is; NumPy's
#: rejection samplers (gamma, beta, Student t, Poisson, binomial, von
#: Mises) loop per element and keep no batch-sized state, so they belong.
#: Exact types only.  Left out: ``TruncatedGaussian``, drawn by SciPy,
#: whose sampler this table does not pin; ``MultivariateGaussian``, whose
#: matrix product may round a 1-row batch differently from the same row
#: in a larger one, depending on the BLAS (on a 2-CPU x86 host with
#: NumPy 2.4, a 1 000-row draw split at 1 row differed from the whole at
#: 4 of 20 seeds); multi-call
#: samplers (``Mixture``, ``KernelDensity``) and user code
#: (``FunctionDistribution``).
PREFIX_STABLE_CLASSES = frozenset(TRUSTED_BULK_FAMILIES) | {
    ("repro.dists.uniform", "DiscreteUniform"),
    ("repro.dists.bernoulli", "Bernoulli"),
    ("repro.dists.bernoulli", "Binomial"),
    ("repro.dists.beta", "Beta"),
    ("repro.dists.categorical", "Categorical"),
    ("repro.dists.categorical", "PointMass"),
    ("repro.dists.cauchy", "Cauchy"),
    ("repro.dists.empirical", "Empirical"),
    ("repro.dists.exponential", "Gamma"),
    ("repro.dists.laplace", "Laplace"),
    ("repro.dists.lognormal", "LogNormal"),
    ("repro.dists.poisson", "Poisson"),
    ("repro.dists.rayleigh", "Rayleigh"),
    ("repro.dists.studentt", "StudentT"),
    ("repro.dists.triangular", "Triangular"),
    ("repro.dists.vonmises", "VonMises"),
    ("repro.dists.weibull", "Weibull"),
}


@dataclasses.dataclass(frozen=True)
class DrawEvent:
    """One entry of a plan's canonical RNG consumption sequence.

    ``count`` is in units of batch draws (one event of count ``k``
    consumes ``k * n`` values for a batch of ``n``); ``slots`` are the
    plan slots filled by the event, in consumption order.
    """

    family: str
    count: int
    slots: tuple[int, ...]

    def as_dict(self) -> dict[str, Any]:
        return {"family": self.family, "count": self.count,
                "slots": list(self.slots)}


@dataclasses.dataclass(frozen=True)
class CertificationRecord:
    """The certifier's verdict for one rewrite or kernel.

    Lives in ``plan.provenance`` next to the optimizer's ``PassRecord``s
    (the ``name`` property keys it in name-indexed provenance views).
    """

    subject: str  # "optimizer-rewrite" | "fused-kernel"
    status: str  # "certified" | "fallback" | "rejected"
    structural_hash: str | None
    rule: str | None = None  # "UNC401" when rejected
    reasons: tuple[str, ...] = ()
    draw_sequence: tuple[DrawEvent, ...] = ()

    @property
    def name(self) -> str:
        return ("stream-certify" if self.subject == "optimizer-rewrite"
                else "kernel-certify")

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "subject": self.subject,
            "status": self.status,
            "structural_hash": self.structural_hash,
            "rule": self.rule,
            "reasons": list(self.reasons),
            "draw_sequence": [e.as_dict() for e in self.draw_sequence],
        }


def _trusted_family(dist) -> str | None:
    kind = type(dist)
    return TRUSTED_BULK_FAMILIES.get((kind.__module__, kind.__qualname__))


def prefix_stable(dist) -> bool:
    """Is ``dist`` of a class in :data:`PREFIX_STABLE_CLASSES`?"""
    kind = type(dist)
    return (kind.__module__, kind.__qualname__) in PREFIX_STABLE_CLASSES


def plan_draw_sequence(plan: EvaluationPlan) -> tuple[DrawEvent, ...]:
    """The reference engines' RNG consumption sequence for ``plan``.

    Trusted bulk-reducible leaves report their base family; everything
    else that draws is ``delegated`` (consumed through the node's own
    ``evaluate_batch``, which the kernel calls identically).  Adjacent
    same-family events coalesce, mirroring what a fused kernel may merge.
    """
    events: list[DrawEvent] = []
    for step in plan.steps:
        if step.opcode != OP_SOURCE or not is_stochastic(step.node):
            continue
        node = step.node
        family = "delegated"
        if isinstance(node, LeafNode):
            family = _trusted_family(node.dist) or "delegated"
        if events and events[-1].family == family and family != "delegated":
            last = events[-1]
            events[-1] = DrawEvent(family, last.count + 1,
                                   last.slots + (step.slot,))
        else:
            events.append(DrawEvent(family, 1, (step.slot,)))
    return tuple(events)


def certify_rewrite(original: EvaluationPlan,
                    optimized: EvaluationPlan) -> CertificationRecord:
    """Certify that an optimizer rewrite preserves the RNG stream.

    The optimizer only rewrites deterministic interior structure, so the
    stream is preserved exactly when the stochastic sources are the
    *identical node objects in identical slot order* — the draw sequence
    is then the same event list by construction.  Any reordering,
    duplication or elision is rejected (UNC401).
    """
    source_of = [s.node for s in original.steps if is_stochastic(s.node)]
    rewritten = [s.node for s in optimized.steps if is_stochastic(s.node)]
    digest = optimized.structural_hash
    if source_of == rewritten:
        return CertificationRecord(
            subject="optimizer-rewrite",
            status="certified",
            structural_hash=digest,
            reasons=(
                f"stochastic source sequence preserved: {len(source_of)} "
                "source(s) in identical slot order",
            ),
            draw_sequence=plan_draw_sequence(optimized),
        )
    detail = (
        f"original plan draws from {len(source_of)} stochastic source(s), "
        f"rewrite draws from {len(rewritten)}"
        if len(source_of) != len(rewritten)
        else f"rewrite reorders the {len(source_of)} stochastic source(s)"
    )
    return CertificationRecord(
        subject="optimizer-rewrite",
        status="rejected",
        structural_hash=digest,
        rule="UNC401",
        reasons=(detail + "; the RNG consumption sequence would change",),
        draw_sequence=plan_draw_sequence(optimized),
    )


# -- abstract dtypes for inlined-scalar certification -----------------------

_FLOAT64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)

#: Unary ufunc labels that map {float64, int64, bool} inputs to float64.
_FLOAT_UFUNCS = frozenset({
    "sqrt", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "sinh", "cosh",
    "tanh",
})

_PROMOTABLE_KINDS = "ifb"  # int64 / float64 / bool_ engine-side dtypes


def _infer_dtypes(plan: EvaluationPlan) -> list:
    """Engine-semantics result dtype per slot (``None`` = unknown).

    The reference engine materializes constants with ``np.full``, so
    array-array promotion rules apply throughout; that is the semantics
    certification compares the kernel against.
    """
    dtypes: list = [None] * len(plan.steps)
    for step in plan.steps:
        node, slot = step.node, step.slot
        if step.opcode == OP_SOURCE:
            if isinstance(node, LeafNode):
                if _trusted_family(node.dist) is not None:
                    dtypes[slot] = _FLOAT64
            elif (type(node) is PointMassNode
                  and isinstance(node.value, _fused._SCALAR_TYPES)):
                dtypes[slot] = np.asarray(node.value).dtype
            continue
        if isinstance(node, BinaryOpNode) and len(step.parent_slots) == 2:
            symbol = node.label
            if symbol in {"<", "<=", ">", ">=", "==", "!=",
                          "and", "or", "xor"}:
                dtypes[slot] = _BOOL
                continue
            a, b = (dtypes[p] for p in step.parent_slots)
            if a is None or b is None:
                continue
            if a.kind not in _PROMOTABLE_KINDS or b.kind not in _PROMOTABLE_KINDS:
                continue
            result = np.result_type(a, b)
            if symbol == "/":
                result = np.result_type(result, _FLOAT64)
            dtypes[slot] = result
        elif isinstance(node, UnaryOpNode) and len(step.parent_slots) == 1:
            if node.label == "not":
                dtypes[slot] = _BOOL
            elif node.label in {"neg", "pos", "abs", "absolute", "fabs"}:
                dtypes[slot] = dtypes[step.parent_slots[0]]
        elif (isinstance(node, ApplyNode) and len(step.parent_slots) == 1
              and node.label in _FLOAT_UFUNCS):
            operand = dtypes[step.parent_slots[0]]
            if operand is not None and operand.kind in _PROMOTABLE_KINDS:
                dtypes[slot] = _FLOAT64
    return dtypes


def _scalar_obstacle(value, other, symbol: str) -> str | None:
    """Why an inlined Python scalar might promote differently, or ``None``.

    The engine sees ``np.full(n, value)`` (strong, array-array
    promotion); the kernel sees the raw scalar (weak under NEP 50).
    Returns the reason when the two can disagree in dtype or value.
    """
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return None  # numpy scalars are strong: identical promotion.
    if isinstance(value, bool):
        return (f"python bool constant {value!r} inlined into {symbol!r}: "
                "weak-scalar promotion may differ from the engine's "
                "materialized array")
    if other is None:
        return (f"python scalar {value!r} inlined into {symbol!r} whose "
                "other operand has unknown dtype; weak-scalar promotion "
                "not provably identical")
    if isinstance(value, float):
        if other == _FLOAT64 or other.kind in "ib":
            return None  # both paths promote to float64 with equal values.
    elif isinstance(value, int):
        if -(2 ** 63) <= value < 2 ** 63 and (other == _FLOAT64
                                              or other.kind == "i"):
            return None  # int64/float64 promotion agrees both ways.
    return (f"python scalar {value!r} inlined into {symbol!r} against "
            f"dtype {other}: weak-scalar promotion not provably identical")


def _inline_obstacles(plan: EvaluationPlan, inlined):
    """``(slot, reason)`` for each constant slot in ``inlined`` that an
    infix op may not take as a Python scalar (:func:`_scalar_obstacle`).

    The kernel generator materializes these slots; the certifier rejects
    a kernel that inlines one.
    """
    if not inlined:
        return
    dtypes = _infer_dtypes(plan)
    for step in plan.steps:
        node = step.node
        if not (isinstance(node, BinaryOpNode)
                and len(step.parent_slots) == 2
                and node.op in _fused._INFIX_BINARY):
            continue
        a, b = step.parent_slots
        for const_slot, other_slot in ((a, b), (b, a)):
            if const_slot not in inlined:
                continue
            obstacle = _scalar_obstacle(
                plan.steps[const_slot].node.value,
                dtypes[other_slot],
                node.label,
            )
            if obstacle is not None:
                yield const_slot, obstacle


def certify_kernel(spec, plan: EvaluationPlan) -> CertificationRecord:
    """Certify a generated kernel (``fused._KernelSpec``) stream-safe.

    ``certified`` means the kernel provably consumes the engine's stream
    and promotes as the engine does; ``rejected`` (UNC401) means it may
    not.  The generator consults the same rules, so a rejection is a
    generator bug.
    """
    rejected: list[str] = []
    events: list[DrawEvent] = []

    delegated = {
        slot for slot in (set(spec.s_slots) | set(spec.g_slots))
        if is_stochastic(plan.steps[slot].node)
    }
    run_starts = {slots[0]: (family, slots) for family, slots in spec.runs}
    for step in plan.steps:
        slot = step.slot
        if slot in run_starts:
            family, slots = run_starts[slot]
            for member in slots:
                dist = plan.steps[member].node.dist
                known = _trusted_family(dist)
                if known != family:
                    kind = type(dist).__name__
                    rejected.append(
                        f"slot {member}: the kernel coalesces {kind} into a "
                        f"{family!r} run, but {kind} is "
                        + ("not a trusted first-party reduction"
                           if known is None else f"a {known!r} draw")
                    )
            events.append(DrawEvent(family, len(slots), tuple(slots)))
        elif slot in delegated:
            events.append(DrawEvent("delegated", 1, (slot,)))

    # Interleaving: a coalesced run draws its whole block at the position
    # of its first slot, which is stream-safe only if no other RNG
    # consumer sits between the run's slots.  _generate guarantees this
    # by breaking runs at delegated leaves; re-verify independently.
    consumers = sorted(
        [slot for _f, slots in spec.runs for slot in slots] + list(delegated)
    )
    order = {slot: i for i, slot in enumerate(consumers)}
    for _family, slots in spec.runs:
        first = order[slots[0]]
        if any(order[s] != first + i for i, s in enumerate(slots)):
            rejected.append(
                f"coalesced run {slots} is interleaved with another RNG "
                "consumer; drawing it as one block would reorder the stream"
            )

    # Inlined scalar constants vs NEP 50 weak promotion.
    materialized = {slot for slot, _parents, ops in spec.steps_meta
                    if ops == ("const",)}
    inlined = set(spec.k_slots) - materialized
    rejected.extend(reason for _slot, reason
                    in _inline_obstacles(plan, inlined))

    if rejected:
        status, rule, reasons = "rejected", "UNC401", tuple(rejected)
    else:
        status, rule = "certified", None
        reasons = (
            "draw sequence matches the reference engine: "
            + (", ".join(f"{e.family}×{e.count}" for e in events)
               if events else "no stochastic draws"),
        )
    return CertificationRecord(
        subject="fused-kernel",
        status=status,
        structural_hash=plan.structural_hash,
        rule=rule,
        reasons=reasons,
        draw_sequence=tuple(events),
    )


def certification_records(plan: EvaluationPlan) -> tuple[CertificationRecord, ...]:
    """All certification records attached to ``plan.provenance``."""
    return tuple(r for r in plan.provenance
                 if isinstance(r, CertificationRecord))


def certify_value(value) -> dict[str, Any]:
    """End-to-end certification of one ``Uncertain``/``Node``/plan.

    Compiles the value, runs the optimizer pipeline (collecting its
    rewrite record), generates the fused kernel for the optimized plan
    and certifies it — without ever *executing* the kernel.  Returns a
    JSON-ready report dict; the CLI ``certify`` subcommand maps over a
    corpus of these.
    """
    from repro.core.plan import compile_plan

    if isinstance(value, EvaluationPlan):
        plan = value
    else:
        plan = compile_plan(getattr(value, "node", value))
    optimized = plan.optimized()
    records = list(certification_records(optimized))
    if not any(r.subject == "optimizer-rewrite" for r in records):
        # A no-op optimization emits no record in provenance; the
        # identity rewrite certifies trivially.
        records.insert(0, certify_rewrite(plan, optimized))
    if any(r.subject == "fused-kernel" for r in records):
        # The fused engine already certified this plan's kernel (the
        # record rode in on provenance); don't re-derive a duplicate.
        pass
    elif optimized.structural_hash is None:
        records.append(CertificationRecord(
            subject="fused-kernel",
            status="fallback",
            structural_hash=None,
            reasons=("plan is structurally opaque (lambdas or user "
                     "sampling functions): no kernel is generated and the "
                     "fused backend falls back to the numpy engine",),
        ))
    else:
        try:
            spec = _fused._generate(optimized)
        except Exception as exc:
            records.append(CertificationRecord(
                subject="fused-kernel",
                status="fallback",
                structural_hash=optimized.structural_hash,
                reasons=(f"kernel generation failed "
                         f"({type(exc).__name__}: {exc}); the fused "
                         "backend falls back to the numpy engine",),
            ))
        else:
            records.append(certify_kernel(spec, optimized))
    statuses = {record.status for record in records}
    worst = next(status for status in ("rejected", "fallback", "certified")
                 if status in statuses)
    return {
        "structural_hash": optimized.structural_hash,
        "slots": len(optimized.steps),
        "status": worst,
        "records": [r.as_dict() for r in records],
    }
