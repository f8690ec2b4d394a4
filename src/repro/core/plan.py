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

from repro.core.graph import BinaryOpNode, Node, PointMassNode, UnaryOpNode
from repro.core.structural import (
    STRUCTURAL_CACHE,
    ShapeEntry,
    StructuralOpaque,
    node_token,
)
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
        "is_optimized",
        "provenance",
        "_program",
        "_shape",
        "_optimized",
        "_fused",
        "__weakref__",
    )

    def __init__(
        self,
        root: Node,
        steps: "list[PlanStep] | None" = None,
        slot_of: "dict[Node, int] | None" = None,
    ) -> None:
        # ``steps``/``slot_of``, when given, are ``root``'s lowering
        # (compile_plan's walk, or a slot program bound to a graph).
        self.root = root
        if steps is None:
            steps, slot_of, _ = _lower(root)
        self.steps: tuple[PlanStep, ...] = tuple(steps)
        self.slot_of = slot_of
        self.root_slot = slot_of[root]
        self.leaf_slots = tuple(s.slot for s in steps if not s.parent_slots)
        #: False for a raw lowering; set by :meth:`optimized` (and
        #: preserved through pickling) on plans the optimizer rewrote.
        self.is_optimized = False
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
        callable, output slot, operand slots, the node (for error
        reporting) and, last, the slots this step reads for the last time
        (never the root's) — so engines dispatch without per-step
        attribute lookups, and a run whose caller reads only the root can
        drop each batch once its last consumer has run.  Built lazily and
        cached on the plan.
        """
        if self._program is None:
            # Built back to front: a step reads a slot for the last time
            # when no later step has read it.
            entries = []
            read_later = [False] * len(self.steps)
            for s in reversed(self.steps):
                done = ()
                for p in s.parent_slots:
                    if not read_later[p]:
                        read_later[p] = True
                        done += (p,)
                if s.opcode == OP_BINARY:
                    a, b = s.parent_slots
                    entries.append((OP_BINARY, s.node.op, s.slot, a, b, s.node, done))
                elif s.opcode == OP_UNARY:
                    entries.append(
                        (OP_UNARY, s.node.op, s.slot, s.parent_slots[0], s.node, done)
                    )
                elif s.opcode == OP_SOURCE:
                    entries.append(
                        (OP_SOURCE, s.node.evaluate_batch, s.slot, s.node, done)
                    )
                else:
                    entries.append(
                        (
                            OP_GENERAL,
                            s.node.evaluate_batch,
                            s.slot,
                            s.parent_slots,
                            s.node,
                            done,
                        )
                    )
            entries.reverse()
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

    def optimized(self) -> "EvaluationPlan":
        """This plan lowered through the optimizer pipeline.

        Cached on the plan and per shape: the first plan of a shape runs
        :func:`~repro.core.optimizer.optimize_plan` (and its stream
        certification) and records the result on the shape entry as a
        :class:`SlotProgram`; every plan of the shape, the first one
        included, is then bound to that program, so a later isomorphic
        graph runs no pass.  Returns ``self`` when this plan is already
        optimized or when no pass changes the graph.  See
        :mod:`repro.core.optimizer` for the pass order and the
        bit-identity contract.
        """
        if self.is_optimized:
            return self
        plan = self._optimized
        if plan is None:
            shape = self.shape
            program = None if shape is None else shape.optimized
            if program is None:
                from repro.core import optimizer

                result, records = optimizer.optimize_plan(self)
                program = SlotProgram.derive(self, result, records)
                if shape is not None:
                    shape.optimized = program
            plan = self._optimized = program.bind(self)
        return plan

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
        # the payload small (no steps/program/bound methods), which
        # ParallelEngine sends to its workers with every chunk.  The
        # optimized flag travels along so an optimized plan does not
        # silently unpickle as a raw one (the optimized *root* is shipped,
        # so no pass re-runs on load).  The receiver registers the shape
        # in its own structural cache, which yields the sender's key.
        return (_rebuild_plan, (self.root, self.is_optimized))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EvaluationPlan {len(self)} slots, root "
            f"{self.root.label!r} @ {self.root_slot}>"
        )


def _lower(root: Node):
    """One walk over ``root``'s DAG: ``(steps, slot_of, fingerprint)``.

    The walk that lowers the graph also yields the shape's fingerprint
    tokens (:func:`~repro.core.structural.plan_fingerprint`'s format), so
    ``compile_plan`` never passes over the steps twice.  The fingerprint
    is ``None`` for an opaque plan.
    """
    slot_of: dict[Node, int] = {}
    steps: list[PlanStep] = []
    tokens: list | None = []
    # iter_nodes' post-order walk, inlined with ``slot_of`` as the seen set.
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in slot_of:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend([(p, False) for p in node.parents if p not in slot_of])
            continue
        slot = len(steps)
        parent_slots = tuple([slot_of[p] for p in node.parents])
        steps.append(PlanStep(node, slot, parent_slots))
        slot_of[node] = slot
        if tokens is not None:
            try:
                tokens.append(node_token(node, parent_slots))
            except StructuralOpaque:
                tokens = None
    if tokens is None:
        return steps, slot_of, None
    tokens.append(("root", slot_of[root]))
    return steps, slot_of, tuple(tokens)


#: Sources of a slot program's slots.
_KEEP = 0  # the raw slot's node, by identity
_REPARENT = 1  # the raw slot's node, cloned onto new parent slots
_CONST = 2  # a folded constant: a fresh point mass of the recorded value


class SlotProgram:
    """A shape's optimizer result, as slots of the raw shape.

    Lives on the raw shape's :class:`~repro.core.structural.ShapeEntry`
    (``entry.optimized``) and holds no node, so it never keeps a
    graph alive.  ``records`` is the ``PassRecord``/``CertificationRecord``
    trail of the run that made it.  ``slots`` is ``None`` when the passes
    left the shape unchanged or their rewrite was rejected (the plan is
    its own optimized plan); otherwise, per optimized slot, one of
    ``(_KEEP, raw_slot, parent_slots)``, ``(_REPARENT, raw_slot,
    parent_slots)`` or ``(_CONST, value, ())``.  ``fingerprint`` is the
    optimized shape's fingerprint: the key of its live entry.
    """

    __slots__ = ("records", "slots", "root_slot", "fingerprint")

    def __init__(self, records, slots=None, root_slot=None, fingerprint=None):
        self.records = records
        self.slots = slots
        self.root_slot = root_slot
        self.fingerprint = fingerprint

    @classmethod
    def derive(cls, raw: "EvaluationPlan", result: "EvaluationPlan",
               records: tuple) -> "SlotProgram":
        """The program of ``optimize_plan(raw)``'s ``(result, records)``."""
        if result is raw:
            return cls(records)
        (origins,) = [r.origins for r in records if r.name == "dead-slot-elim"]
        raw_steps = raw.steps
        slots = []
        for step, origin in zip(result.steps, origins):
            if origin is None:
                slots.append((_CONST, step.node.value, ()))
            elif raw_steps[origin].node is step.node:
                slots.append((_KEEP, origin, step.parent_slots))
            else:
                slots.append((_REPARENT, origin, step.parent_slots))
        shape = result.shape
        return cls(
            records,
            tuple(slots),
            result.root_slot,
            None if shape is None else shape.fingerprint,
        )

    def bind(self, raw: "EvaluationPlan") -> "EvaluationPlan":
        """This program instantiated over ``raw``'s own node objects.

        No pass, certification, graph walk or fingerprint runs: kept
        slots reuse ``raw``'s nodes, re-parented slots clone them onto
        the bound parents, and folded constants become fresh point
        masses.  The plan's shape is the optimized shape's live entry
        (re-registered if it was evicted).
        """
        if self.slots is None:
            raw.provenance = self.records
            return raw
        raw_steps = raw.steps
        nodes: list[Node] = []
        steps: list[PlanStep] = []
        slot_of: dict[Node, int] = {}
        for slot, (source, arg, parent_slots) in enumerate(self.slots):
            if source == _KEEP:
                node = raw_steps[arg].node
            elif source == _REPARENT:
                node = raw_steps[arg].node.with_parents(
                    tuple([nodes[p] for p in parent_slots])
                )
            else:
                node = PointMassNode(arg)
            nodes.append(node)
            steps.append(PlanStep(node, slot, parent_slots))
            slot_of[node] = slot
        plan = EvaluationPlan(nodes[self.root_slot], steps, slot_of)
        plan.is_optimized = True
        plan.provenance = self.records
        plan._shape = STRUCTURAL_CACHE.register(self.fingerprint)[0]
        return plan


def _rebuild_plan(root: Node, is_optimized: bool = False) -> "EvaluationPlan":
    """Unpickle target: recompile (and re-cache) the plan for ``root``.

    The sender's optimized flag is re-seeded on the rebuilt plan: the
    shipped root already *is* the optimized root, so marking it prevents
    engines from re-running the passes.
    """
    plan = compile_plan(root)
    if is_optimized:
        plan.is_optimized = True
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
        steps, slot_of, fingerprint = _lower(root)
        plan = EvaluationPlan(root, steps, slot_of)
        span_attrs["slots"] = len(steps)
        # Stage 2: register the plan's shape in the structural cache.  A
        # hit means an isomorphic plan (possibly from another session)
        # already compiled — the signal the structural counters expose —
        # and hands this plan that shape's entry and slot programs.
        shape, structural_hit = STRUCTURAL_CACHE.register(fingerprint)
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


# Every registered root holds its plan (invalidation unregisters it), so
# the registry's size is the number of live cached plans.
_metrics.register_gauges("plans", lambda: {"cached": len(_PLANNED_ROOTS)})
