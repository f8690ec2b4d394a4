"""Ancestral sampling over the Bayesian network (Section 4.2).

Because the network is a DAG, its nodes admit a topological order.  We
evaluate leaves first and propagate values upward, visiting each node exactly
once per joint sample — the memoisation that makes shared subexpressions
(Figure 8) statistically correct.

This module is a thin facade over the compilation/execution layer:
:func:`repro.core.plan.compile_plan` lowers a graph once into a flat,
topologically ordered :class:`~repro.core.plan.EvaluationPlan` (cached per
root), and an :class:`~repro.core.engines.ExecutionEngine` (selected by the
ambient :class:`~repro.core.conditionals.EvaluationConfig`) runs it.
Every query resolves one :class:`Draw` when it starts, and each engine
run of the query goes through it.  Repeated draws — the SPRT's batches,
``expected_value``, ``pr()`` — pay graph traversal zero times after the
first.

The implementation is batch-first: one evaluation pass computes ``n``
independent joint samples as numpy arrays, which is what the SPRT's batched
draws (Section 4.3) consume.  A single sample is a batch of one.

.. versionchanged:: 2.0
   The module-level entry points ``sample_once``, ``sample_batch`` and
   ``execute_plan`` — deprecated since v1.1 — were removed.  Use the
   unified evaluation API instead: ``Uncertain.sample`` /
   ``Uncertain.samples`` / ``Uncertain.sample_with`` with engine
   selection and budgets on
   :class:`~repro.core.conditionals.EvaluationConfig` (see
   ``docs/api.md`` for migration notes).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import conditionals as _cond
from repro.core.engines import ExecutionEngine, get_engine
from repro.core.graph import Node
from repro.core.plan import EvaluationPlan, compile_plan
from repro.resilience import health as _health
from repro.rng import ensure_rng
from repro.runtime import cancellation as _cancel
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace


class SamplingError(RuntimeError):
    """Raised when a sampling function misbehaves (wrong shape, NaN policy)."""


class SampleBudgetExceeded(SamplingError):
    """A configured ``sample_budget`` would be exceeded by this draw."""


class DeadlineExceeded(SamplingError):
    """A configured wall-clock ``deadline`` expired before this draw."""


#: The accounting of an unmetered draw (``ExecutionEngine.sample``): no
#: budget, no deadline, so it admits every draw and installs no token.
UNMETERED = _cond.Accounting(None, None)


class Draw:
    """One resolved draw: what every engine run of one query shares.

    Built once when a query or a test starts, it holds the plan and the
    engine instance, the config with its accounting, the metrics sink and
    the tracer, the deadline token to install, the health policy, and the
    generator (``rng=None`` is the config's ``rng``, an integer seeds a
    fresh one).  Each engine run then only admits, runs, records and,
    under a non-default ``on_nonfinite``, enforces health (:meth:`run`).

    :meth:`sample` reads the rows of a one-shot query; with the sample
    ledger on (``config.sample_cache``), a memo-free draw built from an
    integer seed may be served from a cached column
    (:meth:`SampleLedger.serve <repro.core.ledger.SampleLedger.serve>`).
    A sequential loop (SPRT, adaptive ``E``) calls :meth:`run` per batch,
    the repeated batched sampling of Section 4.3, and never reads the
    ledger.

    The accounting's deadline token is installed around every engine run,
    ledger fills included, unless a token (the service's per-request one)
    is already installed when the draw is built.
    """

    __slots__ = (
        "plan", "engine", "rng", "memo", "config", "accounting", "metrics",
        "tracer", "token", "propagate", "seed",
    )

    def __init__(
        self,
        plan: EvaluationPlan,
        rng: np.random.Generator | int | None = None,
        engine: "str | ExecutionEngine | None" = None,
        config: "_cond.EvaluationConfig | None" = None,
        memo: dict[Node, np.ndarray] | None = None,
        accounting: "_cond.Accounting | None" = None,
    ) -> None:
        if config is None:
            config = _cond.get_config()
        if accounting is None:
            accounting = config.accounting
        self.plan = plan
        self.engine = get_engine(config.engine if engine is None else engine)
        if rng is None:
            rng = config.rng
        #: The integer seed the caller passed, if any: what the ledger keys.
        self.seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        self.rng = rng if isinstance(rng, np.random.Generator) else ensure_rng(rng)
        self.memo = memo
        self.config = config
        self.accounting = accounting
        selection = config.metrics
        self.metrics = (_metrics.METRICS if selection is True
                        else _metrics.resolve(selection))
        self.tracer = _trace.get_tracer()
        token = accounting.token
        self.token = token if token is not None and _cancel.current() is None else None
        self.propagate = config.on_nonfinite == "propagate"

    def run(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Admit ``n`` rows and run the engine once, on ``rng`` (default:
        the draw's generator); the root batch.

        With a metrics sink it attributes rows and wall time to the
        engine, with a tracer it records an ``engine.<name>.sample`` span,
        and under a non-default ``on_nonfinite`` it runs the health check
        of :mod:`repro.resilience.health` over the batch.  Only that check
        reads interior slots, so every other memo-free run releases them.
        """
        self.accounting.admit(n)
        if rng is None:
            rng = self.rng
        plan, memo, eng = self.plan, self.memo, self.engine
        token = self.token
        if token is not None:
            outer = _cancel.swap(token)
        try:
            metrics, tracer = self.metrics, self.tracer
            # ``release`` goes by position: per-layer wrappers of ``run``
            # forward positionals.
            if metrics is None and tracer is None and self.propagate:
                return eng.run(plan, n, rng, memo, memo is None)[plan.root_slot]
            start = perf_counter()
            values = eng.run(plan, n, rng, memo, self.propagate and memo is None)
            elapsed = perf_counter() - start
            if metrics is not None:
                metrics.record_engine(eng.name, n, elapsed)
            if tracer is not None:
                tracer.record(f"engine.{eng.name}.sample", start, elapsed,
                              n=int(n), slots=len(plan.steps))
            if self.propagate:
                return values[plan.root_slot]
            return _health.enforce(eng, plan, values, n, rng, self.config,
                                   allow_resample=memo is None)
        except _cancel.EvaluationCancelled as exc:
            if token is None:
                raise
            raise DeadlineExceeded(
                f"evaluation deadline of {self.accounting.deadline}s expired "
                f"mid-draw at {exc.progress or 'start'}"
            ) from exc
        finally:
            if token is not None:
                _cancel.swap(outer)

    def sample(self, n: int) -> np.ndarray:
        """The ``n`` rows of a one-shot query: from the sample ledger
        when it serves this draw, else one engine run."""
        if n <= 0:
            raise ValueError(f"batch size must be positive, got {n}")
        n = int(n)
        if self.memo is None and self.config.sample_cache:
            from repro.core.ledger import LEDGER

            rows = LEDGER.serve(self, n)
            if rows is not None:
                return rows
        return self.run(n)


class SampleContext:
    """One batch of ``n`` joint assignments to every sampled variable.

    A context represents ``n`` joint assignments to the random variables of
    any graphs evaluated through it.  Reusing a context across multiple
    roots (as the Game of Life's four rule conditionals do within one cell
    update) keeps shared variables consistent between those roots.

    Internally the context is a memo table keyed by node object — the node
    *is* the variable (Figure 8) — filled by executing each root's cached
    plan with the shared memo.  Keying on the objects themselves (rather
    than the seed's ``id()`` integers) also keeps every sampled node alive
    for the lifetime of the context, so no separate GC pinning is needed.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        engine: "str | ExecutionEngine | None" = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"batch size must be positive, got {n}")
        self.n = int(n)
        self.rng = ensure_rng(rng)
        self._engine = engine
        self._values: dict[Node, np.ndarray] = {}

    def __contains__(self, node: Node) -> bool:
        return node in self._values

    def value_of(
        self, node: Node, engine: "str | ExecutionEngine | None" = None
    ) -> np.ndarray:
        """Sampled batch for ``node``, evaluating lazily on first access.

        ``engine`` overrides, for this evaluation only, the engine chosen
        at context construction (which itself overrides the ambient
        configuration).
        """
        batch = self._values.get(node)
        if batch is None:
            config = _cond.get_config()
            plan = compile_plan(node, analyze=config.plan_analyzer)
            if engine is None:
                engine = self._engine
            batch = Draw(plan, self.rng, engine, config, self._values).sample(self.n)
        return batch
