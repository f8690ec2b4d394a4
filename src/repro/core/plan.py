"""Compilation of Bayesian networks into reusable evaluation plans.

The paper's runtime samples the Uncertain<T> network "much like a JIT"
(Section 4.2).  The seed implementation re-walked the DAG on every batch:
each SPRT batch draw built a fresh memo table, re-discovered the
topological order, and paid per-node ``id()``-dict overhead.  This module
performs that discovery exactly once: :func:`compile_plan` lowers a
:class:`~repro.core.graph.Node` DAG into an :class:`EvaluationPlan` — a
flat, topologically ordered program whose instructions reference their
operands by *slot index* instead of by dictionary lookup.

Key properties:

- **Shared subexpressions become shared slots.**  Each distinct node gets
  exactly one slot, so `x + x` reads the same slot twice — the SSA-like
  dependence analysis of Figure 8, now resolved at compile time.  The plan
  holds strong references to its nodes, which also removes the seed's
  GC-pinning workaround (``id()`` keys are only unique while the object is
  alive; slots are unique forever).
- **Plans are cached per root node.**  The cache is keyed on graph
  identity (the root object) and is weak: when a graph dies, its plan is
  collected.  :func:`invalidate_plan` / :func:`clear_plan_cache` provide
  the explicit invalidation path.
- **Plan order matches the seed interpreter's traversal order**, so the
  compiled engines consume the RNG stream in exactly the same sequence —
  seed-for-seed identical samples (see ``tests/core/test_plan.py``).

Execution of a plan is the job of an engine (:mod:`repro.core.engines`).
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator

from repro.core.graph import Node
from repro.core.structural import (
    STRUCTURAL_CACHE,
    ShapeEntry,
    StructuralOpaque,
    binding_digest,
    node_token,
)
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Sentinel for a ``structural_hash`` not computed yet (``None`` is the
#: opaque plan's hash).
_UNSET = object()


class PlanStep:
    """One instruction of a compiled plan.

    ``slot`` is this step's output slot (== its index in ``plan.steps``);
    ``parent_slots`` are the operand slots (empty for a source: a leaf or
    a point mass).
    """

    __slots__ = ("node", "slot", "parent_slots", "kind")

    def __init__(self, node: Node, slot: int, parent_slots: tuple[int, ...]) -> None:
        self.node = node
        self.slot = slot
        self.parent_slots = parent_slots
        self.kind = type(node).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = getattr(self, "ops", None)
        if ops:
            # Fused super-ops (repro.core.fused) list their constituent
            # operations so traces and describe() stay debuggable.
            return (
                f"<{type(self).__name__} {self.slot}: {self.kind} "
                f"[{', '.join(ops)}] <- {self.parent_slots}>"
            )
        return f"<PlanStep {self.slot}: {self.kind} {self.node.label!r} <- {self.parent_slots}>"


class EvaluationPlan:
    """A ``Node`` DAG lowered into a flat, topologically ordered program.

    ``steps[i]`` writes slot ``i``; parents always occupy lower slots, so a
    single forward pass evaluates the whole network.  The root's value is
    in ``steps[-1]`` (``root_slot``).  ``last_read[i]`` is the slot of the
    last step that reads slot ``i`` (``-1`` for the root, which no step
    reads), so a run whose caller reads only the root can drop each batch
    once its last reader has run.  ``shape`` is the
    :class:`~repro.core.structural.ShapeEntry` ``compile_plan`` registered,
    shared with its kernel and certificate by every plan of the topology
    (``None``: an opaque plan, which is never shared).
    """

    __slots__ = (
        "root",
        "steps",
        "slot_of",
        "root_slot",
        "last_read",
        "shape",
        "_hash",
        "_fused",
        "__weakref__",
    )

    def __init__(
        self,
        root: Node,
        steps: "list[PlanStep]",
        slot_of: "dict[Node, int]",
        last_read: "list[int]",
        shape: ShapeEntry | None,
    ) -> None:
        # ``steps``/``slot_of``/``last_read`` are ``root``'s lowering
        # (compile_plan's walk), ``shape`` its registered entry.
        self.root = root
        self.steps: tuple[PlanStep, ...] = tuple(steps)
        self.slot_of = slot_of
        self.root_slot = slot_of[root]
        self.last_read = last_read
        self.shape = shape
        self._hash = _UNSET
        self._fused = None

    # -- compiler pipeline ---------------------------------------------------

    @property
    def structural_hash(self) -> str | None:
        """What names the rows this plan draws (``None`` if opaque).

        The shape key, plus a digest of the values the plan's parametric
        leaves bind in slot order when it has any
        (:func:`~repro.core.structural.binding_digest`): two plans with
        equal hashes draw the same rows from the same stream.  The sample
        ledger, the coalescer's groups and the parallel workers' plan
        cache key on it.  Computed on first read; the kernel path reads
        ``shape.key`` instead.
        """
        digest = self._hash
        if digest is _UNSET:
            shape = self.shape
            if shape is None:
                digest = None
            else:
                values = binding_digest(self)
                digest = shape.key if values is None else f"{shape.key}:{values}"
            self._hash = digest
        return digest

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)

    def op_histogram(self) -> dict[str, int]:
        """Number of steps per node kind."""
        hist: dict[str, int] = {}
        for step in self.steps:
            hist[step.kind] = hist.get(step.kind, 0) + 1
        return hist

    def __reduce__(self):
        # Plans serialise as their root graph and recompile on load: the
        # lowering is cheap and deterministic, and shipping the graph keeps
        # the payload small (no steps or bound kernel), which
        # ParallelEngine sends to its workers with every chunk.  The
        # receiver registers the shape in its own structural cache, which
        # yields the sender's key.
        return (compile_plan, (self.root,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EvaluationPlan {len(self)} slots, root "
            f"{self.root.label!r} @ {self.root_slot}>"
        )


def _lower(root: Node):
    """One walk over ``root``'s DAG: ``(steps, slot_of, last_read, fingerprint)``.

    The walk that lowers the graph also yields the shape's fingerprint
    tokens (:func:`~repro.core.structural.plan_fingerprint`'s format), so
    ``compile_plan`` never passes over the steps twice.  The fingerprint
    is ``None`` for an opaque plan.
    """
    slot_of: dict[Node, int] = {}
    steps: list[PlanStep] = []
    last_read: list[int] = []
    tokens: list | None = []
    # iter_nodes' post-order walk, inlined with ``slot_of`` as the seen set:
    # the parents of a node are pushed in order, so the last is lowered
    # first.  A node without parents is lowered when it is first popped.
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in slot_of:
            continue
        parents = node.parents
        if not expanded and parents:
            stack.append((node, True))
            for p in parents:
                if p not in slot_of:
                    stack.append((p, False))
            continue
        slot = len(steps)
        parent_slots = tuple(map(slot_of.__getitem__, parents))
        steps.append(PlanStep(node, slot, parent_slots))
        slot_of[node] = slot
        # Slots are lowered in order, so the latest reader is the last one.
        last_read.append(-1)
        for p in parent_slots:
            last_read[p] = slot
        if tokens is not None:
            try:
                tokens.append(node_token(node, parent_slots))
            except StructuralOpaque:
                tokens = None
    if tokens is None:
        return steps, slot_of, last_read, None
    tokens.append(("root", slot_of[root]))
    return steps, slot_of, last_read, tuple(tokens)


# ---------------------------------------------------------------------------
# Plan cache: keyed on graph identity by storing the plan on the root node
# itself (``Node._compiled_plan``), so plan lifetime equals graph lifetime
# and nothing needs pinning.  A weak registry of planned roots supports the
# cache-wide operations.  Nodes are immutable after construction, so a
# cached plan can never go stale; the explicit invalidation path exists for
# exotic callers (e.g. a node class that mutates its distribution in place).
# ---------------------------------------------------------------------------

_PLANNED_ROOTS: "weakref.WeakSet[Node]" = weakref.WeakSet()


def compile_plan(
    root: Node,
    analyze: "Callable[[EvaluationPlan], object] | None" = None,
    metrics=_metrics.AMBIENT,
) -> EvaluationPlan:
    """Lower ``root``'s DAG into an :class:`EvaluationPlan`, cached per root.

    Repeated calls with the same root object return the same plan, which is
    what amortises graph traversal across the SPRT's repeated batch draws.

    ``analyze``, when given, is invoked once per *fresh* compile (never on
    cache hits) with the new plan — the hook
    :mod:`repro.analysis` uses to surface UNC101-class diagnostics exactly
    once per cached plan (see
    :attr:`~repro.core.conditionals.EvaluationConfig.plan_analyzer`).
    Its return value is ignored; exceptions propagate to the caller.

    ``metrics`` is the sink to count the compile in when the caller has
    resolved it (``None``: off); by default the ambient one.
    """
    plan = root._compiled_plan
    if metrics is _metrics.AMBIENT:
        metrics = _metrics.active()
    if plan is not None:
        if metrics is not None:
            metrics.record_cache_hit()
        return plan
    with _trace.span("plan.compile", root=root.label) as span_attrs:
        steps, slot_of, last_read, fingerprint = _lower(root)
        # Register the plan's shape in the structural cache.  A
        # hit means an isomorphic plan (possibly from another session)
        # already compiled — the signal the structural counters expose —
        # and hands this plan that shape's entry and kernel.
        shape, structural_hit = STRUCTURAL_CACHE.register(fingerprint)
        plan = EvaluationPlan(root, steps, slot_of, last_read, shape)
        span_attrs["slots"] = len(steps)
        span_attrs["structural_hash"] = None if shape is None else shape.key
    root._compiled_plan = plan
    _PLANNED_ROOTS.add(root)
    if metrics is not None:
        metrics.record_compile()
        if shape is not None:
            metrics.record_structural(structural_hit)
    if analyze is not None:
        analyze(plan)
    return plan


def _invalidate_ledger(plan) -> None:
    """Drop sample-ledger entries derived from ``plan``, if the ledger is
    live.  Resolved through ``sys.modules`` so processes that never used
    the ledger (parallel workers, import-light tools) don't import it."""
    import sys

    ledger_mod = sys.modules.get("repro.core.ledger")
    if ledger_mod is not None and plan is not None:
        ledger_mod.LEDGER.invalidate_entries(plan)


def invalidate_plan(root: Node) -> bool:
    """Drop the cached plan for ``root``; returns whether one existed.

    Cached sample columns derived from the plan (the cross-query ledger,
    :mod:`repro.core.ledger`) are invalidated with it.
    """
    had = root._compiled_plan is not None
    if had:
        _invalidate_ledger(root._compiled_plan)
    root._compiled_plan = None
    _PLANNED_ROOTS.discard(root)
    return had


def clear_plan_cache() -> None:
    """Drop every cached plan (all future draws recompile).

    Ledger entries keyed by the dropped plans' shapes are dropped too.
    """
    for node in list(_PLANNED_ROOTS):
        if node._compiled_plan is not None:
            _invalidate_ledger(node._compiled_plan)
        node._compiled_plan = None
    _PLANNED_ROOTS.clear()


# Every registered root holds its plan (invalidation unregisters it), so
# the registry's size is the number of live cached plans.
_metrics.register_gauges("plans", lambda: {"cached": len(_PLANNED_ROOTS)})
