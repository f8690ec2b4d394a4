"""The plan compiler's fused-kernel execution backend.

For every *hot* plan shape (a topology key, see
:mod:`repro.core.structural`) this module generates one flat numpy Python
source — a single function that evaluates the whole compiled plan
without the per-step dispatch loop of
:class:`~repro.core.engines.NumpyEngine` — and keeps it, with its
accept/reject verdict, on the shape's
:class:`~repro.core.structural.ShapeEntry`, so structural-cache eviction
drops both.  Isomorphic plans compiled later rebind the same code to their
own node objects and values: a Gaussian, Uniform or Exponential leaf's
loc and scale are bound per plan, so a kernel serves every reading of a
fixed program.  Like a tiered JIT, the engine compiles only hot code:
a shape's first ``_HOT_RUNS - 1`` runs execute on the NumPy engine, the
bit-identical reference, and the ``_HOT_RUNS``-th builds the kernel.

What the generated kernel fuses:

- **Coalesced leaf draws.**  Runs of adjacent stochastic leaves whose
  distributions declare an affine reduction
  (:meth:`~repro.dists.base.Distribution.bulk_draw_spec`) collapse into a
  single base-generator call plus a broadcast affine, applied in place to
  the generator's fresh array::

      _d0 = rng.standard_normal(4 * n).reshape(4, n)
      _d0 *= _scale0
      _d0 += _loc0

  This is bit-identical to the four sequential ``rng.normal(...)`` calls
  the reference engines make — numpy's distribution methods compute
  ``loc + scale * draw`` per value from the same underlying stream, so
  chunking the stream differently does not reorder it.  IEEE
  multiplication and addition commute exactly, so scaling in place
  changes no value, and a run allocates one block instead of two.  A
  one-leaf run scales and shifts too, whatever its values: no term is
  dropped as an identity, so the kernel fits every plan of its shape.
  Adjacency is in *RNG-consumption order*: point masses and
  deterministic interior ops never draw, so they do not break a run.
  A run is split where its block would outlive its readers: once every
  leaf drawn so far is dead, the next leaf starts a new block.  Drawing
  ``k1 * n`` and then ``k2 * n`` values consumes the stream exactly as
  one ``(k1 + k2) * n`` call does, so the split changes no value.
- **Lifetimes.**  Each variable (and each draw block, through its row
  views) is deleted after the statement that reads it last, so a large
  draw holds the plan's widest cut rather than every slot.
- **Operator chains.**  Deterministic interior ops become native infix
  expressions; single-use intermediates are inlined into their consumer,
  so ``sqrt(dx*dx + dy*dy) / dt > 4`` becomes one line of numpy instead
  of five dispatched steps.
- **Constants.**  Scalar point masses are bound per plan as the NumPy
  scalar ``np.asarray(value)[()]``, of the dtype the engine's
  ``np.full(n, value)`` has.  A NumPy scalar promotes as that array does
  (only Python scalars are weak under NEP 50), so an operand of a
  broadcasting binary reads the scalar; elsewhere each read builds the
  engine's ``np.full`` array inside its own statement, so no constant
  array lives across a draw.

Safety: every freshly generated kernel is **admitted by proof, before
first use**.  The generator coalesces a leaf only when its exact class
is a trusted reduction of the family its ``bulk_draw_spec`` names, and
delegates every other leaf to the leaf's own ``sample_n``; it reads a
constant as a scalar only as one operand of a broadcasting binary, and
builds the engine's ``np.full`` for every other read.  The
stream-safety certifier (:mod:`repro.analysis.certify`) then re-checks
the kernel independently: draw sequence, contiguous runs, scalar reads.
Nothing is executed to admit a kernel.  A kernel the certifier rejects (UNC401: a generator
bug), or one that cannot be generated, is recorded on the shape, warned
about with :class:`FusedFallbackWarning` and counted in runtime metrics;
its plans, and plans with no structural hash (lambdas, opaque sources),
run on the NumPy engine.  The :class:`CertificationRecord` is kept on
the shape's kernel spec either way: it is the certificate of every plan
of the shape (``repro.analysis.certification_records(plan)``).
"""

from __future__ import annotations

import operator
import warnings

import numpy as np

from repro.core.engines import _ENGINES, ExecutionEngine, register_engine
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import EvaluationPlan, PlanStep
from repro.core.structural import trusted_family
from repro.runtime import cancellation as _cancel
from repro.runtime import metrics as _metrics


class FusedFallbackWarning(UserWarning):
    """A plan could not use the fused backend and fell back to numpy."""


#: Deterministic binary ops with a native infix spelling.  The symbol is
#: applied to ndarray operands, which dispatches to exactly the same ufunc
#: the reference engine's bound callable invokes.
_INFIX_BINARY = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.truediv: "/", operator.floordiv: "//", operator.mod: "%",
    operator.pow: "**",
    operator.lt: "<", operator.le: "<=", operator.gt: ">",
    operator.ge: ">=", operator.eq: "==", operator.ne: "!=",
    np.add: "+", np.subtract: "-", np.multiply: "*", np.true_divide: "/",
}

#: Binary ops spelled as calls on the ``np`` module object.
_NPFUNC_BINARY = {
    np.logical_and: "logical_and",
    np.logical_or: "logical_or",
    np.logical_xor: "logical_xor",
}

_PREFIX_UNARY = {operator.neg: "-", operator.pos: "+"}
_NPFUNC_UNARY = {np.abs: "abs", np.absolute: "abs", np.logical_not: "logical_not"}

#: Operations that cannot signal IEEE floating-point errors, letting the
#: kernel skip the ``np.errstate`` context manager entirely.
_SAFE_SYMBOLS = frozenset(
    {"+", "-", "*", "<", "<=", ">", ">=", "==", "!=",
     "logical_and", "logical_or", "logical_xor", "logical_not", "abs"}
)

_SCALAR_TYPES = (int, float, bool, np.integer, np.floating, np.bool_)

#: The run of a shape that builds its kernel; earlier runs use the NumPy
#: engine.  Chosen from shape_zoo's Zipf stream (docs/performance.md).
_HOT_RUNS = 3


def _chk(values, n):
    """Match ``engines._check_batch``: coerce + validate a step's output."""
    if type(values) is not np.ndarray:
        values = np.asarray(values)
    if values.shape[:1] != (n,):
        from repro.core.sampling import SamplingError

        raise SamplingError(
            f"fused kernel produced batch of shape {values.shape}, "
            f"expected leading dimension {n}"
        )
    return values


class FusedStep(PlanStep):
    """One emitted kernel statement, listing its constituent operations."""

    __slots__ = ("ops",)

    def __init__(self, node, slot, parent_slots, ops):
        super().__init__(node, slot, parent_slots)
        self.ops = tuple(ops)
        self.kind = "Fused"


class FusedProgram:
    """Introspection handle for one generated kernel (shared per shape)."""

    __slots__ = ("structural_hash", "source", "steps")

    def __init__(self, structural_hash, source, steps):
        self.structural_hash = structural_hash
        self.source = source
        self.steps = tuple(steps)

    def op_histogram(self) -> dict[str, int]:
        """Constituent-operation counts across all fused statements."""
        hist: dict[str, int] = {}
        for step in self.steps:
            for op in step.ops:
                name, _, count = op.partition(" ×")
                hist[name] = hist.get(name, 0) + (int(count) if count else 1)
        return hist

    def describe(self) -> str:
        lines = [f"fused kernel {self.structural_hash}:"]
        lines.extend(f"  {step!r}" for step in self.steps)
        lines.append("generated source:")
        lines.extend("  " + line for line in self.source.splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FusedProgram {self.structural_hash} "
            f"{len(self.steps)} fused step(s)>"
        )


class _Expr:
    """An expression being built for one plan slot."""

    __slots__ = ("text", "ops")

    def __init__(self, text, ops=()):
        self.text = text
        self.ops = tuple(ops)


class _KernelSpec:
    """Everything needed to rebind the generated source to a new plan."""

    __slots__ = (
        "source", "factory", "steps_meta", "s_slots", "f_slots", "g_slots",
        "k_slots", "scalar_reads", "runs", "verified", "certification",
    )

    def __init__(self):
        self.source = ""
        self.factory = None
        self.steps_meta = ()  # (slot, parent_slots, ops) per statement
        self.s_slots = ()
        self.f_slots = ()
        self.g_slots = ()
        self.k_slots = ()
        self.scalar_reads = frozenset()  # (slot, operand) reading a _K scalar
        self.runs = ()  # (family, (slot, ...)) per coalesced draw
        self.verified = False
        self.certification = None  # CertificationRecord (shared per shape)


def _binding_args(spec: _KernelSpec, plan: EvaluationPlan):
    """Extract this plan's callables/constants for the shared kernel code."""
    steps = plan.steps
    S = tuple(steps[i].node.evaluate_batch for i in spec.s_slots)
    # F holds op callables for Binary/UnaryOp slots and lifted ufuncs for
    # vectorized ApplyNode slots (called directly, no wrapper).
    F = tuple(
        getattr(steps[i].node, "op", None) or steps[i].node.fn
        for i in spec.f_slots
    )
    G = tuple(steps[i].node.evaluate_batch for i in spec.g_slots)
    # Per plan: a shape fixes each constant's value up to a NaN's payload.
    K = tuple(np.asarray(steps[i].node.value)[()] for i in spec.k_slots)
    R = []
    for _family, slots in spec.runs:
        params = [steps[i].node.dist.bulk_draw_spec() for i in slots]
        if len(slots) == 1:
            R.append((float(params[0][1]), float(params[0][2])))
        else:
            # Column vectors, shaped once here so the kernel's broadcast
            # against the (k, n) draw block needs no per-call reshaping.
            R.append(
                (
                    np.asarray([p[1] for p in params], dtype=np.float64)
                    .reshape(-1, 1),
                    np.asarray([p[2] for p in params], dtype=np.float64)
                    .reshape(-1, 1),
                )
            )
    return S, F, G, K, tuple(R)


def _is_expression(node) -> bool:
    """Does the generator spell ``node`` as an inlinable expression (an
    operator or a direct call), rather than a call of its own
    ``evaluate_batch``?"""
    kind = type(node)
    return kind in (BinaryOpNode, UnaryOpNode) or (
        kind is ApplyNode and node.vectorized and isinstance(node.fn, np.ufunc)
    )


def _generate(plan: EvaluationPlan) -> _KernelSpec:
    """Generate (but do not certify) the kernel source for ``plan``."""
    spec = _KernelSpec()
    steps = plan.steps
    root_slot = plan.root_slot

    # Use counts decide inlining (exprs).
    uses = [0] * len(steps)
    uses[root_slot] += 1
    for step in steps:
        for p in step.parent_slots:
            uses[p] += 1

    # -- classify ----------------------------------------------------------
    # Scalar point masses are bound as ``_K`` NumPy scalars and spelled
    # per read: as the scalar where broadcasting keeps the result
    # identical, else as ``np.full(n, _Kj)`` (mirroring the engine) built
    # inside the reading statement, so no constant array outlives it.
    # Reads that materialise: operands of generic/unknown calls and of
    # unary ops, operands of ``**`` (numpy special-cases a scalar exponent,
    # e.g. 0.5 as sqrt, which rounds differently from the engine's array
    # exponent) and one side of a const-const binary.  A value NumPy holds
    # only as an object (an int past 64 bits) is no constant: it runs its
    # own ``evaluate_batch``.
    consts = {
        step.slot for step in steps
        if not step.parent_slots
        and type(step.node) is PointMassNode
        and isinstance(step.node.value, _SCALAR_TYPES)
        and np.asarray(step.node.value).dtype != object
    }
    scalar_reads = set()  # (reading slot, operand index)
    for step in steps:
        node = step.node
        reads = [
            (step.slot, i) for i, p in enumerate(step.parent_slots)
            if p in consts
        ]
        if type(node) is BinaryOpNode and (
            node.op in _NPFUNC_BINARY  # np.logical_* broadcast scalars
            or (node.op in _INFIX_BINARY and node.op is not operator.pow)
        ):
            # A const-const binary materialises its left side.
            scalar_reads.update(reads[-1:] if len(reads) == 2 else reads)

    # -- lifetimes ---------------------------------------------------------
    # A single-use expression is inlined into its reader's statement, so
    # a variable is last read by the statement that holds its last reader
    # (``home``).  The kernel deletes each variable after that statement,
    # and starts a new draw block once every variable of the open one is
    # dead, so a block never outlives its readers.
    inline = [
        bool(step.parent_slots)
        and uses[step.slot] == 1
        and step.slot != root_slot
        and _is_expression(step.node)
        for step in steps
    ]
    home = list(range(len(steps)))
    for step in reversed(steps):
        if inline[step.slot]:
            home[step.slot] = home[plan.last_read[step.slot]]
    last_read = [-1] * len(steps)
    for step in steps:
        for p in step.parent_slots:
            last_read[p] = max(last_read[p], home[step.slot])

    s_slots, f_slots, g_slots, k_slots, runs = [], [], [], [], []
    k_index = {}
    pending_run = None  # [family, [slots], last read of its block]
    for step in steps:
        if step.parent_slots:
            continue
        node = step.node
        if type(node) is LeafNode:
            draw = node.dist.bulk_draw_spec()
            if draw is not None and draw[0] == trusted_family(node.dist):
                family = draw[0]
                if (
                    pending_run is not None
                    and pending_run[0] == family
                    and pending_run[2] > step.slot
                ):
                    pending_run[1].append(step.slot)
                else:
                    if pending_run is not None:
                        runs.append((pending_run[0], tuple(pending_run[1])))
                    pending_run = [family, [step.slot], -1]
                pending_run[2] = max(pending_run[2], last_read[step.slot])
                continue
            # Any other leaf draws through its own sample_n: it ends any
            # open run so draw order stays exactly the engines' order.
            if pending_run is not None:
                runs.append((pending_run[0], tuple(pending_run[1])))
                pending_run = None
            s_slots.append(step.slot)
        elif step.slot in consts:
            k_index[step.slot] = len(k_slots)
            k_slots.append(step.slot)
        else:
            # Non-scalar point masses and exotic parentless nodes run
            # through their own evaluate_batch (they never draw RNG, so
            # their position relative to the coalesced draws is free).
            s_slots.append(step.slot)
    if pending_run is not None:
        runs.append((pending_run[0], tuple(pending_run[1])))
    run_of = {}
    for r, (_family, slots) in enumerate(runs):
        for slot in slots:
            run_of[slot] = r

    # -- emit --------------------------------------------------------------
    body: list[str] = []
    steps_meta: list[tuple] = []
    exprs: dict[int, _Expr] = {}
    unsafe = False
    dies_at: dict[int, list[int]] = {}  # after the root's, ``return`` frees
    for slot, last in enumerate(last_read):
        if last >= 0 and last != root_slot and slot not in consts:
            dies_at.setdefault(last, []).append(slot)

    def operands(step):
        """Operand expressions of ``step`` (inlined expression, constant
        or variable)."""
        out = []
        for i, p in enumerate(step.parent_slots):
            j = k_index.get(p)
            if j is None:
                out.append(exprs.get(p) or _Expr(f"v{p}"))
            elif (step.slot, i) in scalar_reads:
                out.append(_Expr(f"_K{j}"))
            else:
                out.append(_Expr(f"np.full(n, _K{j})", ("const",)))
        return out

    def assign(slot, expr, parent_slots):
        body.append(f"v{slot} = {expr.text}")
        steps_meta.append((slot, tuple(parent_slots), expr.ops))
        dead = [f"v{d}" for d in dies_at.get(slot, ()) if d not in exprs]
        if dead:
            body.append(f"del {', '.join(dead)}")

    drawn_runs = set()
    for step in steps:
        slot, node, parents = step.slot, step.node, step.parent_slots
        kind = type(node)
        if not parents:
            if slot in run_of:
                r = run_of[slot]
                family, slots = runs[r]
                if r not in drawn_runs:
                    drawn_runs.add(r)
                    k = len(slots)
                    # Scaled and shifted in place: the same IEEE multiply
                    # and add per value as ``loc + scale * draw``, with no
                    # second block.
                    if k == 1:
                        body.append(f"v{slot} = rng.{family}(n)")
                        body.append(f"v{slot} *= _scale{r}")
                        body.append(f"v{slot} += _loc{r}")
                        steps_meta.append((slot, (), (family,)))
                    else:
                        body.append(
                            f"_d{r} = rng.{family}({k} * n).reshape({k}, n)"
                        )
                        body.append(f"_d{r} *= _scale{r}")
                        body.append(f"_d{r} += _loc{r}")
                        body.append(
                            ", ".join(f"v{s}" for s in slots) + f" = _d{r}"
                        )
                        body.append(f"del _d{r}")
                        steps_meta.append((slots[0], (), (f"{family} ×{k}",)))
            elif slot in k_index:
                if slot == root_slot:
                    body.append(f"v{slot} = np.full(n, _K{k_index[slot]})")
                    steps_meta.append((slot, (), ("const",)))
            else:
                j = s_slots.index(slot)
                unsafe = True
                body.append(f"v{slot} = _chk(_S{j}((), n, rng), n)")
                steps_meta.append((slot, (), (step.kind,)))
            continue
        if kind is BinaryOpNode and node.op in _INFIX_BINARY:
            sym = _INFIX_BINARY[node.op]
            a, b = operands(step)
            expr = _Expr(
                f"({a.text} {sym} {b.text})",
                ops=a.ops + b.ops + (sym,),
            )
        elif kind is BinaryOpNode and node.op in _NPFUNC_BINARY:
            fn = _NPFUNC_BINARY[node.op]
            a, b = operands(step)
            expr = _Expr(
                f"np.{fn}({a.text}, {b.text})",
                ops=a.ops + b.ops + (fn,),
            )
            sym = fn
        elif kind is UnaryOpNode and node.op in _PREFIX_UNARY:
            sym = _PREFIX_UNARY[node.op]
            (a,) = operands(step)
            expr = _Expr(f"({sym}{a.text})", ops=a.ops + (sym,))
            sym = "neg" if sym == "-" else "pos"
        elif kind is UnaryOpNode and node.op in _NPFUNC_UNARY:
            fn = _NPFUNC_UNARY[node.op]
            (a,) = operands(step)
            expr = _Expr(f"np.{fn}({a.text})", ops=a.ops + (fn,))
            sym = fn
        elif _is_expression(node):
            # Hashable op callables (e.g. np.hypot) and lifted ufuncs
            # applied to whole batches: call the bound callable directly.
            # For a ufunc ApplyNode this is bit-identical to its
            # ``evaluate_batch`` — ``np.asarray`` is a no-op on the
            # ndarray the ufunc returns — minus the wrapper frame.  A
            # unary ufunc on an ndarray operand keeps its shape, so the
            # batch check is skipped exactly as NumpyEngine skips its
            # (conditional) ``_check_batch`` for well-shaped results.
            j = len(f_slots)
            f_slots.append(slot)
            args = operands(step)
            call = f"_F{j}({', '.join(a.text for a in args)})"
            if not (kind is ApplyNode and node.fn.nout == 1):
                call = f"_chk({call}, n)"
            expr = _Expr(
                call,
                ops=tuple(a2 for a in args for a2 in a.ops) + (node.label,),
            )
            sym = node.label
        else:
            # ApplyNode / ComponentNode / future hashable kinds: run the
            # node's own evaluate_batch, exactly like the generic engine
            # path.  These never consume RNG (RNG-consuming node kinds are
            # structurally opaque and never reach the fused backend).
            j = len(g_slots)
            g_slots.append(slot)
            args = operands(step)
            unsafe = True
            assign(
                slot,
                _Expr(
                    f"_chk(_G{j}([{', '.join(a.text for a in args)}], n, rng), n)",
                    ops=tuple(a2 for a in args for a2 in a.ops) + (step.kind,),
                ),
                parents,
            )
            continue
        if sym not in _SAFE_SYMBOLS:
            unsafe = True
        if inline[slot]:
            exprs[slot] = expr  # single consumer: fuse into it
        else:
            assign(slot, expr, parents)

    body.append(f"return v{root_slot}")

    lines = ["def _factory(np, _chk, S, F, G, K, R):"]
    for j in range(len(s_slots)):
        lines.append(f"    _S{j} = S[{j}]")
    for j in range(len(f_slots)):
        lines.append(f"    _F{j} = F[{j}]")
    for j in range(len(g_slots)):
        lines.append(f"    _G{j} = G[{j}]")
    for j in range(len(k_slots)):
        lines.append(f"    _K{j} = K[{j}]")
    for r in range(len(runs)):
        lines.append(f"    _loc{r}, _scale{r} = R[{r}]")
    lines.append("    def _kernel(n, rng):")
    if unsafe:
        lines.append(
            "        with np.errstate(divide='ignore', invalid='ignore',"
            " over='ignore'):"
        )
        lines.extend("            " + b for b in body)
    else:
        lines.extend("        " + b for b in body)
    lines.append("    return _kernel")
    source = "\n".join(lines) + "\n"

    namespace: dict = {}
    exec(compile(source, f"<fused:{plan.shape.key[:16]}>", "exec"), namespace)
    spec.source = source
    spec.factory = namespace["_factory"]
    spec.steps_meta = tuple(steps_meta)
    spec.s_slots = tuple(s_slots)
    spec.f_slots = tuple(f_slots)
    spec.g_slots = tuple(g_slots)
    spec.k_slots = tuple(k_slots)
    spec.scalar_reads = frozenset(scalar_reads)
    spec.runs = tuple(runs)
    return spec


#: Sentinel: this plan cannot be fused; always use the NumPy engine.
_FALLBACK = object()


def fused_program(plan: EvaluationPlan) -> FusedProgram | None:
    """The fused program bound to ``plan``, or ``None`` if it falls back.

    Builds the shape's kernel now, however cold the shape.  The
    introspection objects are built on each call, so the draw path never
    pays for them.
    """
    if plan._fused is None:
        _prepare(plan, _metrics.active())
    if plan._fused is _FALLBACK:
        return None
    spec = plan.shape.kernel
    steps = plan.steps
    return FusedProgram(
        plan.shape.key,
        spec.source,
        [
            FusedStep(steps[slot].node, slot, parent_slots, ops)
            for slot, parent_slots, ops in spec.steps_meta
        ],
    )


def _reject(plan: EvaluationPlan, spec: _KernelSpec, detail: str, metrics):
    """Record ``spec`` as rejected on the shape; the plan falls back."""
    warnings.warn(
        f"fused kernel for plan {plan.structural_hash} rejected ({detail}); "
        "falling back to numpy",
        FusedFallbackWarning,
        stacklevel=4,
    )
    if metrics is not None:
        metrics.record_fused(rejected=1)
    spec.verified = False
    plan.shape.kernel = spec
    plan._fused = _FALLBACK
    return _FALLBACK


def _prepare(plan: EvaluationPlan, metrics):
    """Build (or rebind) and admit the kernel for ``plan``; cache on it.

    The kernel spec, its verdict and its certification record are stored
    on ``plan.shape``, so every later plan of the shape rebinds it (or
    falls back, if rejected); ``plan._fused`` is the bound kernel or
    ``_FALLBACK``.  ``metrics`` is the sink the caller resolved
    (``None``: off).
    """
    shape = plan.shape
    if shape is None:
        plan._fused = _FALLBACK
        return _FALLBACK
    spec = shape.kernel
    fresh = spec is None
    if fresh:
        try:
            spec = _generate(plan)
        except Exception as exc:
            return _reject(
                plan, _KernelSpec(),
                f"generation failed: {type(exc).__name__}: {exc}", metrics,
            )
        # Static stream-safety certification (UNC401).
        from repro.analysis.certify import certify_kernel

        record = spec.certification = certify_kernel(spec, plan)
        if not record.certified:
            reasons = "; ".join(record.reasons)
            return _reject(plan, spec, f"{record.rule}: {reasons}", metrics)
    elif not spec.verified:
        # A previous plan of this shape was rejected: don't retry.
        plan._fused = _FALLBACK
        return _FALLBACK
    try:
        S, F, G, K, R = _binding_args(spec, plan)
        kernel = spec.factory(np, _chk, S, F, G, K, R)
    except Exception as exc:
        return _reject(plan, spec, f"{type(exc).__name__}: {exc}", metrics)
    if fresh:
        spec.verified = True
        shape.kernel = spec
        if metrics is not None:
            metrics.record_fused(built=1)
    elif metrics is not None:
        metrics.record_fused(kernel_hits=1)
    plan._fused = kernel
    return kernel


class FusedEngine(ExecutionEngine):
    """Execute hot plan shapes through per-shape generated numpy kernels.

    Drop-in engine (``evaluation_config(engine="fused")``): memo-carrying
    draws, unfusable plans and the first ``_HOT_RUNS - 1`` runs of a shape
    delegate to the numpy engine, so semantics are always exactly the
    reference engines' — the kernel path is taken only once the shape is
    hot and its kernel is certified.
    """

    name = "fused"

    # ``release`` stays the fifth positional after ``self``: per-layer
    # wrappers (benchmarks/e2e/tracing.py) forward it by position.
    def run(self, plan, n, rng, memo=None, release=False):
        bound = plan._fused
        if bound is None and memo is None:
            shape = plan.shape
            if shape is None:
                bound = plan._fused = _FALLBACK
            elif shape.kernel is None:
                # Unlocked: a lost update only delays the build, and two
                # threads may both build; either kernel is bit-identical.
                shape.runs += 1
                if shape.runs >= _HOT_RUNS:
                    bound = _prepare(plan, _metrics.active())
            else:
                bound = _prepare(plan, _metrics.active())
        if bound is None or bound is _FALLBACK or memo is not None:
            # A cold shape, an unfusable plan or a memoised context (which
            # needs every shared slot): the reference engine's run, which
            # polls the ambient token per plan step.
            return _ENGINES["numpy"].run(plan, n, rng, memo, release)
        # A generated kernel is one indivisible batch: the boundary check
        # is before launch (delegated runs inherit the NumPy engine's
        # finer per-step boundaries).
        token = _cancel.current()
        if token is not None:
            token.check(kernel=plan.shape.key, n=n)
        values: list = [None] * len(plan.steps)
        values[plan.root_slot] = bound(n, rng)
        return values


register_engine(FusedEngine())

__all__ = [
    "FusedEngine",
    "FusedFallbackWarning",
    "FusedProgram",
    "FusedStep",
    "fused_program",
]
