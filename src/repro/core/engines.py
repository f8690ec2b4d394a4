"""Execution engines: strategies for running a compiled evaluation plan.

A plan (:mod:`repro.core.plan`) is the *what*; an engine is the *how*.
This module holds the two core engines and the registry; the fused
(:mod:`repro.core.fused`) and parallel (:mod:`repro.runtime.parallel`)
engines register behind the same interface.

- :class:`NumpyEngine` — the default.  Executes the flat program in one
  forward pass over preallocated slots; shared subexpressions are slot
  reads, batch evaluation is vectorized numpy.
- :class:`InterpreterEngine` — a per-call iterative post-order walk of
  the DAG with a dictionary memo, always over the raw plan: the
  unoptimized reference semantics that the engine-equivalence tests and
  the end-to-end benchmark's oracle compare against.

Both engines visit nodes in the same order, so given the same RNG they
produce bit-identical sample streams.  Engines are stateless; select one
per draw via ``evaluation_config(engine="numpy")`` or pass an instance.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import conditionals as _cond
from repro.core.graph import Node
from repro.core.plan import (
    OP_BINARY,
    OP_SOURCE,
    OP_UNARY,
    EvaluationPlan,
)
from repro.resilience import health as _health
from repro.runtime import cancellation as _cancel
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Floating-point error handling for plan execution.  IEEE semantics are
#: the language of Uncertain<T> — division by a zero-crossing support
#: *means* inf, log of a boundary-crossing support *means* NaN — so the
#: engines centralise the ``np.errstate`` suppression here instead of
#: making every caller wrap draws in ``with np.errstate(divide="ignore")``.
#: The static analyzer (rule UNC101/UNC102) remains the compile-time
#: companion that flags where those values come from, and the resilience
#: layer's ``on_nonfinite`` policy is the runtime one.
_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


class EngineError(RuntimeError):
    """Raised when an engine cannot execute a plan."""


def _check_batch(values, node: Node, n: int) -> np.ndarray:
    """Validate the leading dimension of a node's batch output."""
    values = np.asarray(values)
    if values.shape[:1] != (n,):
        # Import here to avoid a cycle: sampling.py imports this module.
        from repro.core.sampling import SamplingError

        raise SamplingError(
            f"node {node!r} produced batch of shape {values.shape}, "
            f"expected leading dimension {n}"
        )
    return values


class ExecutionEngine:
    """Strategy interface: produce sample batches for a compiled plan.

    ``run`` fills (and returns) the plan's slot vector; ``sample`` is the
    common convenience returning just the root batch.  ``memo`` maps nodes
    to already-sampled batches: entries are reused, and every newly
    evaluated node is written back — this is what keeps shared variables
    consistent across multiple roots sampled under one
    :class:`~repro.core.sampling.SampleContext`.  ``release=True`` tells
    a memo-free run that its caller reads only the root slot, so the
    engine may drop every other batch once its last consumer has run
    (peak memory, not values, changes); engines that keep every slot
    ignore it.
    """

    name: str = "abstract"
    #: Engines that execute whatever plan they are handed can run the
    #: optimizer's rewritten program (``sample`` switches to
    #: ``plan.optimized()`` on memo-free draws).  The interpreter
    #: opts out to stay the *unoptimized* reference semantics, which makes
    #: every engine-equivalence test an end-to-end check of the optimizer's
    #: bit-identity contract.
    supports_optimized: bool = True

    def run(
        self,
        plan: EvaluationPlan,
        n: int,
        rng: np.random.Generator,
        memo: dict[Node, np.ndarray] | None = None,
        release: bool = False,
    ) -> list:
        raise NotImplementedError

    def sample(
        self,
        plan: EvaluationPlan,
        n: int,
        rng: np.random.Generator,
        memo: dict[Node, np.ndarray] | None = None,
        config: "_cond.EvaluationConfig | None" = None,
    ) -> np.ndarray:
        """Batch of ``n`` joint samples of the plan's root.

        This is the instrumented entry point: with a metrics sink active
        (the default) it attributes samples and wall time to this engine's
        name, with a tracer installed it records an
        ``engine.<name>.sample`` span, and with a non-default
        ``on_nonfinite`` policy it runs the numerical-health check of
        :mod:`repro.resilience.health` over the batch (per-slot NaN/Inf
        attribution, warn/raise/resample).  ``optimize``, ``on_nonfinite``
        and ``metrics`` come from ``config`` (default: the ambient one).
        ``run`` stays raw for callers that benchmark or need every slot;
        here every memo-free draw the health check does not inspect runs
        with ``release=True``.
        """
        if config is None:
            config = _cond.get_config()
        if memo is None and self.supports_optimized:
            # Memo-carrying draws (SampleContext) stay on the unoptimized
            # plan: memo keys are the *user's* node objects, and rewritten
            # plans may not contain them.
            if config.optimize:
                plan = plan.optimized()
        propagate = config.on_nonfinite == "propagate"
        metrics = _metrics.resolve(config.metrics)
        tracer = _trace.get_tracer()
        # Only the health check reads interior slots.  ``release`` goes
        # by position: per-layer wrappers of ``run`` forward positionals.
        release = propagate and memo is None
        if metrics is None and tracer is None and propagate:
            return self.run(plan, n, rng, memo, release)[plan.root_slot]
        start = perf_counter()
        values = self.run(plan, n, rng, memo, release)
        elapsed = perf_counter() - start
        if metrics is not None:
            metrics.record_engine(self.name, n, elapsed)
        if tracer is not None:
            tracer.record(
                f"engine.{self.name}.sample",
                start,
                elapsed,
                n=int(n),
                slots=len(plan.steps),
            )
        if propagate:
            return values[plan.root_slot]
        return _health.enforce(
            self, plan, values, n, rng, config, allow_resample=memo is None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _demanded(plan: EvaluationPlan, values: list) -> list[bool]:
    """Which slots must be evaluated to produce the root, given pre-seeded
    slots?  Mirrors the lazy interpreter: a subtree hidden entirely behind
    memoised nodes is never evaluated (and never consumes RNG)."""
    needed = [False] * len(values)
    stack = [plan.root_slot]
    steps = plan.steps
    while stack:
        slot = stack.pop()
        if needed[slot] or values[slot] is not None:
            continue
        needed[slot] = True
        stack.extend(steps[slot].parent_slots)
    return needed


class NumpyEngine(ExecutionEngine):
    """Vectorized single-pass execution over preallocated slots (default).

    The hot loop dispatches on the opcode chosen at compile time; binary
    and unary operators run without the generic ``evaluate_batch``
    indirection.
    """

    name = "numpy"

    def run(self, plan, n, rng, memo=None, release=False):
        values: list = [None] * len(plan.steps)
        # Cooperative cancellation: the ambient token (installed by the
        # service tier or an ambient deadline) is polled once per program
        # step — the engine's natural batch boundary.  ``token`` is None
        # for ordinary evaluations, so the hot path pays one predictable
        # branch per step and nothing else; checks never touch ``rng``.
        token = _cancel.current()
        step_i = 0
        if memo is None:
            # Hot path (the SPRT loop, expectations): run the specialized
            # program with bound callables and no bookkeeping.  With
            # ``release``, each batch is dropped after its last read.
            shape = (n,)
            with np.errstate(**_ERRSTATE):
                for entry in plan.program:
                    if token is not None:
                        token.check(step=step_i, steps=len(plan.program))
                        step_i += 1
                    opcode = entry[0]
                    if opcode == OP_BINARY:
                        _, op, slot, a, b, node, done = entry
                        out = op(values[a], values[b])
                    elif opcode == OP_SOURCE:
                        _, evaluate, slot, node, done = entry
                        out = evaluate((), n, rng)
                    elif opcode == OP_UNARY:
                        _, op, slot, a, node, done = entry
                        out = op(values[a])
                    else:
                        _, evaluate, slot, parent_slots, node, done = entry
                        out = evaluate([values[i] for i in parent_slots], n, rng)
                    if type(out) is not np.ndarray or out.shape[:1] != shape:
                        out = _check_batch(out, node, n)
                    values[slot] = out
                    if release:
                        for i in done:
                            values[i] = None
            return values
        seeded = False
        if memo:
            slot_of = plan.slot_of
            for node, batch in memo.items():
                slot = slot_of.get(node)
                if slot is not None:
                    values[slot] = batch
                    seeded = True
        if seeded:
            needed = _demanded(plan, values)
            steps = [s for s in plan.steps if needed[s.slot]]
        else:
            steps = plan.steps
        with np.errstate(**_ERRSTATE):
            for step in steps:
                if token is not None:
                    token.check(step=step_i, steps=len(steps))
                    step_i += 1
                opcode = step.opcode
                node = step.node
                if opcode == OP_BINARY:
                    a, b = step.parent_slots
                    out = node.op(values[a], values[b])
                elif opcode == OP_SOURCE:
                    out = node.evaluate_batch((), n, rng)
                elif opcode == OP_UNARY:
                    out = node.op(values[step.parent_slots[0]])
                else:
                    out = node.evaluate_batch(
                        [values[i] for i in step.parent_slots], n, rng
                    )
                if type(out) is not np.ndarray or out.shape[:1] != (n,):
                    out = _check_batch(out, node, n)
                values[step.slot] = out
        for step in steps:
            memo[step.node] = values[step.slot]
        return values


class InterpreterEngine(ExecutionEngine):
    """The seed interpreter: walk the DAG per draw with a dictionary memo.

    Functionally identical to :class:`NumpyEngine` (same node visit order,
    same RNG stream); pays graph traversal on every batch.  Serves as a
    second, independently implemented semantics for the equivalence
    tests and the end-to-end benchmark's oracle.
    """

    name = "interpreter"
    supports_optimized = False

    def run(self, plan, n, rng, memo=None, release=False):
        local: dict[Node, np.ndarray] = dict(memo) if memo else {}
        stack: list[tuple[Node, bool]] = [(plan.root, False)]
        token = _cancel.current()
        with np.errstate(**_ERRSTATE):
            while stack:
                node, expanded = stack.pop()
                if node in local:
                    continue
                if not expanded:
                    stack.append((node, True))
                    for parent in node.parents:
                        if parent not in local:
                            stack.append((parent, False))
                else:
                    if token is not None:
                        token.check(nodes_done=len(local), steps=len(plan.steps))
                    parent_values = [local[p] for p in node.parents]
                    out = _check_batch(
                        node.evaluate_batch(parent_values, n, rng), node, n
                    )
                    local[node] = out
        if memo is not None:
            memo.update(local)
        values: list = [None] * len(plan.steps)
        for node, slot in plan.slot_of.items():
            if node in local:
                values[slot] = local[node]
        return values


# ---------------------------------------------------------------------------
# Engine registry: names usable in ``evaluation_config(engine=...)``.
# ---------------------------------------------------------------------------

_ENGINES: dict[str, ExecutionEngine] = {}

#: Engines that live outside :mod:`repro.core` and register themselves on
#: import; resolved lazily so selecting them by name works even before
#: their module loads (and without making this module import them).
_LAZY_ENGINES = {
    "parallel": "repro.runtime.parallel",
    "fused": "repro.core.fused",
}


def register_engine(engine: ExecutionEngine, name: str | None = None) -> ExecutionEngine:
    """Register ``engine`` under ``name`` (defaults to ``engine.name``)."""
    key = name or engine.name
    if not key or key == "abstract":
        raise ValueError("engines must carry a concrete name")
    _ENGINES[key] = engine
    return engine


def get_engine(engine: "str | ExecutionEngine") -> ExecutionEngine:
    """Resolve an engine selection (a name or an instance) to an engine."""
    if isinstance(engine, ExecutionEngine):
        return engine
    try:
        return _ENGINES[engine]
    except KeyError:
        module = _LAZY_ENGINES.get(engine)
        if module is not None:
            import importlib

            importlib.import_module(module)
            if engine in _ENGINES:
                return _ENGINES[engine]
        raise EngineError(
            f"unknown execution engine {engine!r}; available: {sorted(_ENGINES)}"
        ) from None


def available_engines() -> tuple[str, ...]:
    return tuple(sorted(_ENGINES))


register_engine(NumpyEngine())
register_engine(InterpreterEngine())
