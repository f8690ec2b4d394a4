"""Static stream-safety certification for the plan compiler (UNC401).

The fused-kernel backend promises *bit-identity*: a generated kernel must
consume the RNG stream exactly as the reference numpy engine would and
produce identical arrays.  This
module proves it **symbolically**, before anything executes; nothing is
admitted by running it.

The certifier performs a *draw-order effect analysis*: it computes the
canonical RNG consumption sequence — which generator family draws, how
many values, triggered by which slots, in which order — of the reference
plan, and checks that a kernel provably consumes the same sequence with
the same value semantics.

What is provable, and why:

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
- **Scalar constants**: the engine materializes every constant as
  ``np.full(n, value)``; the kernel binds it as ``np.asarray(value)[()]``,
  the NumPy scalar of that array's dtype, which NEP 50 promotes as it
  promotes the array (only Python scalars are weak).  A scalar read is
  safe as one operand of a broadcasting binary, never under ``**``,
  whose scalar exponent NumPy special-cases, never on both operands,
  whose result would have no rows, and never for a value NumPy holds
  only as an object.

The kernel generator (:func:`repro.core.fused._generate`) consults the
same predicates, so every kernel it emits certifies; a ``rejected``
kernel is a generator bug, and the fused engine falls back to numpy.
Every decision is a :class:`CertificationRecord` — ``certified``,
``fallback`` (an opaque plan, or a kernel that could not be generated:
the numpy engine runs it) or ``rejected`` (UNC401).  The fused engine
keeps a kernel's record on the shape with the kernel, so it is the
certificate of every plan of that shape
(:func:`certification_records`), and the differential harness in
``tests/analysis/test_certify.py`` runs every certified kernel against
the numpy engine.

The trust table lives in :mod:`repro.core.structural`, with the shape
keys, and is re-exported here, where it is enforced.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any

import numpy as np

from repro.core import fused as _fused
from repro.core.graph import (
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    is_stochastic,
)
from repro.core.plan import EvaluationPlan
from repro.core.structural import (
    TRUSTED_BULK_FAMILIES,
    trusted_family,
)

__all__ = [
    "CertificationRecord",
    "DrawEvent",
    "TRUSTED_BULK_FAMILIES",
    "certification_records",
    "certify_kernel",
    "certify_rewrite",
    "certify_value",
    "plan_draw_sequence",
    "trusted_family",
]

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
    """The certifier's verdict for one kernel.

    A built kernel's record lives on its shape's kernel spec
    (:func:`certification_records`); the ``name`` property keys it in
    name-indexed views.
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


def plan_draw_sequence(plan: EvaluationPlan) -> tuple[DrawEvent, ...]:
    """The reference engines' RNG consumption sequence for ``plan``.

    Trusted bulk-reducible leaves report their base family; everything
    else that draws is ``delegated`` (consumed through the node's own
    ``evaluate_batch``, which the kernel calls identically).  Adjacent
    same-family events coalesce, mirroring what a fused kernel may merge.
    """
    events: list[DrawEvent] = []
    for step in plan.steps:
        if step.parent_slots or not is_stochastic(step.node):
            continue
        node = step.node
        family = "delegated"
        if isinstance(node, LeafNode):
            family = trusted_family(node.dist) or "delegated"
        if events and events[-1].family == family and family != "delegated":
            last = events[-1]
            events[-1] = DrawEvent(family, last.count + 1,
                                   last.slots + (step.slot,))
        else:
            events.append(DrawEvent(family, 1, (step.slot,)))
    return tuple(events)


def certify_rewrite(original: EvaluationPlan,
                    optimized: EvaluationPlan) -> CertificationRecord:
    """Certify that a rewrite of ``original`` preserves the RNG stream.

    Retired with the rewrite optimizer; kept because the end-to-end
    benchmark's tracer wraps it.  The stream is preserved exactly when
    the stochastic sources are the *identical node objects in identical
    slot order*.  Any reordering, duplication or elision is rejected
    (UNC401).
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
                known = trusted_family(dist)
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

    # Scalar reads: a constant bound as a NumPy scalar promotes as the
    # engine's np.full array does, but only a broadcasting binary
    # reproduces the engine's n rows from it (``**`` special-cases a
    # scalar exponent).
    for slot, i in sorted(spec.scalar_reads):
        step = plan.steps[slot]
        op = getattr(step.node, "op", None)
        if not (type(step.node) is BinaryOpNode
                and (op in _fused._NPFUNC_BINARY
                     or (op in _fused._INFIX_BINARY and op is not operator.pow))):
            rejected.append(f"slot {slot}: a scalar read under "
                            f"{step.node.label!r}, not a broadcasting binary")
            continue
        const = plan.steps[step.parent_slots[i]].node
        if (slot, 1 - i) in spec.scalar_reads:
            rejected.append(f"slot {slot}: both operands read as scalars; "
                            "the engine's result has n rows")
        elif not (type(const) is PointMassNode
                  and np.asarray(const.value).dtype != object):
            rejected.append(f"slot {slot}: operand {i} read as a scalar is "
                            "not a constant NumPy holds in a fixed dtype")

    if rejected:
        status, rule, reasons = "rejected", "UNC401", tuple(rejected)
    else:
        status, rule = "certified", None
        reasons = (
            "draw sequence matches the reference engine: "
            + (", ".join(f"{e.family}×{e.count}" for e in events)
               if events else "no stochastic draws"),
        )
    # The record certifies the shape's kernel, which every plan of the
    # shape shares: it carries the shape key.
    return CertificationRecord(
        subject="fused-kernel",
        status=status,
        structural_hash=plan.shape.key,
        rule=rule,
        reasons=reasons,
        draw_sequence=tuple(events),
    )


def certification_records(plan: EvaluationPlan) -> tuple[CertificationRecord, ...]:
    """The record of ``plan``'s shape's kernel once built (else empty):
    every plan of a shape reports it, whichever of them built the kernel."""
    kernel = plan.shape and plan.shape.kernel
    record = kernel and kernel.certification
    return (record,) if record else ()


def _kernel_record(plan: EvaluationPlan) -> CertificationRecord:
    """Generate ``plan``'s fused kernel and certify it, or record why the
    fused backend falls back to the numpy engine."""
    if plan.structural_hash is None:
        return CertificationRecord(
            subject="fused-kernel",
            status="fallback",
            structural_hash=None,
            reasons=("plan is structurally opaque (lambdas or user "
                     "sampling functions): no kernel is generated and the "
                     "fused backend falls back to the numpy engine",),
        )
    try:
        spec = _fused._generate(plan)
    except Exception as exc:
        return CertificationRecord(
            subject="fused-kernel",
            status="fallback",
            structural_hash=plan.shape.key,
            reasons=(f"kernel generation failed "
                     f"({type(exc).__name__}: {exc}); the fused "
                     "backend falls back to the numpy engine",),
        )
    return certify_kernel(spec, plan)


def certify_value(value) -> dict[str, Any]:
    """End-to-end certification of one ``Uncertain``/``Node``/plan.

    Compiles the value, generates the fused kernel for its plan and
    certifies it — without ever *executing* the kernel.  Returns a
    JSON-ready report dict; the CLI ``certify`` subcommand maps over a
    corpus of these.
    """
    from repro.core.plan import compile_plan

    if isinstance(value, EvaluationPlan):
        plan = value
    else:
        plan = compile_plan(getattr(value, "node", value))
    # A kernel the fused engine already certified brings its record on
    # the shape; don't re-derive a duplicate.
    records = list(certification_records(plan)) or [_kernel_record(plan)]
    statuses = {record.status for record in records}
    worst = next(status for status in ("rejected", "fallback", "certified")
                 if status in statuses)
    return {
        "structural_hash": plan.structural_hash,
        "slots": len(plan.steps),
        "status": worst,
        "records": [r.as_dict() for r in records],
    }
