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

from repro.core.graph import BinaryOpNode, Node, UnaryOpNode, iter_nodes
from repro.core.structural import STRUCTURAL_CACHE, ShapeEntry
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Sentinel distinguishing "shape not registered yet" from the legitimate
#: ``None`` result of an opaque (unshareable) plan.
_UNSET = object()


#: Instruction tags, chosen at compile time so the hot loop can dispatch
#: without re-inspecting node types.
OP_SOURCE = 0  # no parents: leaves, point masses (needs n and rng)
OP_UNARY = 1  # UnaryOpNode: values[out] = op(values[a])
OP_BINARY = 2  # BinaryOpNode: values[out] = op(values[a], values[b])
OP_GENERAL = 3  # anything else: node.evaluate_batch(parent values, n, rng)


class PlanStep:
    """One instruction of a compiled plan.

    ``slot`` is this step's output slot (== its index in ``plan.steps``);
    ``parent_slots`` are the operand slots; ``opcode`` is one of the ``OP_*``
    tags above.
    """

    __slots__ = ("node", "slot", "parent_slots", "opcode", "kind")

    def __init__(self, node: Node, slot: int, parent_slots: tuple[int, ...]) -> None:
        self.node = node
        self.slot = slot
        self.parent_slots = parent_slots
        self.kind = type(node).__name__
        if not parent_slots:
            self.opcode = OP_SOURCE
        elif type(node) is BinaryOpNode:
            self.opcode = OP_BINARY
        elif type(node) is UnaryOpNode:
            self.opcode = OP_UNARY
        else:
            self.opcode = OP_GENERAL

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
    in ``steps[-1]`` (``root_slot``).
    """

    __slots__ = (
        "root",
        "steps",
        "slot_of",
        "root_slot",
        "leaf_slots",
        "optimization_level",
        "provenance",
        "_program",
        "_shape",
        "_optimized",
        "_fused",
        "__weakref__",
    )

    def __init__(self, root: Node) -> None:
        self.root = root
        slot_of: dict[Node, int] = {}
        steps: list[PlanStep] = []
        for node in iter_nodes(root):
            slot = len(steps)
            parent_slots = tuple(slot_of[p] for p in node.parents)
            steps.append(PlanStep(node, slot, parent_slots))
            slot_of[node] = slot
        self.steps: tuple[PlanStep, ...] = tuple(steps)
        self.slot_of = slot_of
        self.root_slot = slot_of[root]
        self.leaf_slots = tuple(s.slot for s in steps if not s.parent_slots)
        #: 0 for a raw lowering; set by :meth:`optimized` (and preserved
        #: through pickling) on plans produced by the optimizer pipeline.
        self.optimization_level = 0
        #: Compiler provenance trail: pass-by-pass
        #: :class:`~repro.core.optimizer.PassRecord` entries plus
        #: :class:`~repro.analysis.certify.CertificationRecord` entries
        #: from the static stream-safety certifier (rewrite + kernel).
        self.provenance: tuple = ()
        self._program = None
        self._shape = _UNSET
        self._optimized = None
        self._fused = None

    @property
    def program(self) -> tuple[tuple, ...]:
        """Specialized instruction tuples for the hot execution loop.

        Each entry front-loads everything a step needs — opcode, the bound
        callable, output slot, operand slots, and the node (for error
        reporting) — so engines dispatch without per-step attribute
        lookups.  Built lazily and cached on the plan.
        """
        if self._program is None:
            entries = []
            for s in self.steps:
                if s.opcode == OP_BINARY:
                    a, b = s.parent_slots
                    entries.append((OP_BINARY, s.node.op, s.slot, a, b, s.node))
                elif s.opcode == OP_UNARY:
                    entries.append(
                        (OP_UNARY, s.node.op, s.slot, s.parent_slots[0], s.node)
                    )
                elif s.opcode == OP_SOURCE:
                    entries.append((OP_SOURCE, s.node.evaluate_batch, s.slot, s.node))
                else:
                    entries.append(
                        (
                            OP_GENERAL,
                            s.node.evaluate_batch,
                            s.slot,
                            s.parent_slots,
                            s.node,
                        )
                    )
            self._program = tuple(entries)
        return self._program

    # -- compiler pipeline ---------------------------------------------------

    @property
    def shape(self) -> ShapeEntry | None:
        """This plan's shared :class:`~repro.core.structural.ShapeEntry`.

        Registered lazily in the process-global
        :class:`~repro.core.structural.StructuralCache` (``compile_plan``
        registers eagerly), so equal shapes across sessions resolve to the
        same entry.  ``None`` marks an opaque plan (lambdas, user sampling
        functions) that can never be shared structurally.
        """
        if self._shape is _UNSET:
            self._shape, _hit = STRUCTURAL_CACHE.entry_for(self)
        return self._shape

    @property
    def structural_hash(self) -> str | None:
        """Canonical structural key of this plan's shape (``None`` if opaque)."""
        shape = self.shape
        return None if shape is None else shape.key

    def optimized(self, level: int = 2) -> "EvaluationPlan":
        """This plan lowered through the optimizer pipeline at ``level``.

        Cached per level and per shape; returns ``self`` when ``level`` is
        0, when this plan is already at (or above) the requested level, or
        when no pass changes the graph.  A shape the optimizer left
        unchanged or rejected keeps that verdict on its shape entry, so a
        later isomorphic plan returns itself with the same records and
        runs no pass; shapes the passes rewrite are optimized per plan.
        See :mod:`repro.core.optimizer` for the pass order and the
        bit-identity contract.
        """
        if not level or self.optimization_level >= level:
            return self
        cache = self._optimized
        if cache is None:
            cache = self._optimized = {}
        plan = cache.get(level)
        if plan is None:
            shape = self.shape
            records = None if shape is None else shape.verdicts.get(level)
            if records is not None:
                plan = self
            else:
                from repro.core.optimizer import optimize_plan

                plan, records = optimize_plan(self, level)
                if plan is not self:
                    plan.optimization_level = level
                elif shape is not None:
                    shape.verdicts[level] = records
            plan.provenance = records
            cache[level] = plan
        return plan

    def certification_records(self) -> tuple:
        """Stream-safety :class:`CertificationRecord` entries in provenance.

        One ``stream-certify`` record per optimizer rewrite and one
        ``kernel-certify`` record per fused-kernel admission decision;
        empty for plans that were never optimized or fused.
        """
        return tuple(
            r for r in self.provenance
            if getattr(r, "subject", None) in (
                "optimizer-rewrite", "fused-kernel",
            )
        )

    # -- introspection ------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self.steps)

    @property
    def node_count(self) -> int:
        return len(self.steps)

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
        # the payload small (no steps/program/bound methods).  This is what
        # lets ParallelEngine send a plan to worker processes once.  The
        # optimization level travels along so an optimized plan does not
        # silently unpickle as a raw one (the optimized *root* is shipped,
        # so no pass re-runs on load).  The receiver registers the shape
        # in its own structural cache, which yields the sender's key.
        return (_rebuild_plan, (self.root, self.optimization_level))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EvaluationPlan {self.num_slots} slots, root "
            f"{self.root.label!r} @ {self.root_slot}>"
        )


def _rebuild_plan(root: Node, optimization_level: int = 0) -> "EvaluationPlan":
    """Unpickle target: recompile (and re-cache) the plan for ``root``.

    The sender's optimization level is re-seeded on the rebuilt plan: the
    shipped root already *is* the optimized root, so marking the level
    prevents engines from re-running the passes.
    """
    plan = compile_plan(root)
    if optimization_level and plan.optimization_level < optimization_level:
        plan.optimization_level = optimization_level
    return plan


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
    """
    plan = root._compiled_plan
    metrics = _metrics.active()
    if plan is not None:
        if metrics is not None:
            metrics.record_cache_hit()
        return plan
    with _trace.span("plan.compile", root=root.label) as span_attrs:
        plan = EvaluationPlan(root)
        span_attrs["slots"] = len(plan.steps)
        # Stage 2: register the plan's shape in the structural cache.  A
        # hit means an isomorphic plan (possibly from another session)
        # already compiled — the signal the structural counters expose —
        # and hands this plan that shape's entry and optimizer verdicts.
        shape, structural_hit = STRUCTURAL_CACHE.entry_for(plan)
        plan._shape = shape
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


def plan_cache_size() -> int:
    """Number of live cached plans (diagnostics)."""
    return sum(1 for node in _PLANNED_ROOTS if node._compiled_plan is not None)
