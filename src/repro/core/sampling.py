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
Repeated draws — the SPRT's batches, ``expected_value``, ``pr()`` — pay
graph traversal zero times after the first.

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

import numpy as np

from repro.core import conditionals as _cond
from repro.core.engines import ExecutionEngine, get_engine
from repro.core.graph import Node
from repro.core.plan import EvaluationPlan, compile_plan
from repro.rng import ensure_rng
from repro.runtime import cancellation as _cancel


class SamplingError(RuntimeError):
    """Raised when a sampling function misbehaves (wrong shape, NaN policy)."""


class SampleBudgetExceeded(SamplingError):
    """A configured ``sample_budget`` would be exceeded by this draw."""


class DeadlineExceeded(SamplingError):
    """A configured wall-clock ``deadline`` expired before this draw."""


def _execute_plan(
    plan: EvaluationPlan,
    n: int,
    rng: np.random.Generator | int | None = None,
    memo: dict[Node, np.ndarray] | None = None,
    engine: "str | ExecutionEngine | None" = None,
    use_ledger: bool = True,
    config: "_cond.EvaluationConfig | None" = None,
) -> np.ndarray:
    """Internal, warning-free plan execution used by every runtime caller.

    Admits the draw through ``config``'s
    :meth:`~repro.core.conditionals.Accounting.admit` (every draw in the
    process funnels through here), resolves the engine (explicit argument
    beats the config), and delegates to the engine's instrumented
    ``sample`` under the same config.  ``config`` defaults to the ambient
    one; the service passes its own.

    When ``config.sample_cache`` is enabled, eligible draws are served
    from the cross-query :class:`~repro.core.ledger.SampleLedger` (cached
    prefix + freshly drawn suffix; admission charged inside the ledger
    for the suffix only).  Sequential-batch callers go through
    :func:`sequential_draw` instead, which passes ``use_ledger=False``.
    """
    if n <= 0:
        raise ValueError(f"batch size must be positive, got {n}")
    n = int(n)
    if config is None:
        config = _cond.get_config()
    if use_ledger and memo is None and config.sample_cache:
        from repro.core.ledger import LEDGER

        rows = LEDGER.serve(plan, n, rng, engine, config)
        if rows is not None:
            return rows
    accounting = config.accounting
    accounting.admit(n)
    eng = get_engine(engine if engine is not None else config.engine)
    if accounting.token is None or _cancel.current() is not None:
        # No deadline, or an installed token (the service's per-request
        # one) wins.
        return eng.sample(plan, n, ensure_rng(rng), memo=memo, config=config)
    # Admission only catches a deadline that expired between draws; the
    # token also stops a long draw at the engine's next batch boundary.
    with _cancel.scope(accounting.token):
        try:
            return eng.sample(plan, n, ensure_rng(rng), memo=memo, config=config)
        except _cancel.EvaluationCancelled as exc:
            raise DeadlineExceeded(
                f"evaluation deadline of {config.deadline}s expired "
                f"mid-draw at {exc.progress or 'start'}"
            ) from exc


def sequential_draw(plan: EvaluationPlan, rng, dtype):
    """The draw-``k`` callable of a sequential loop (SPRT, adaptive ``E``).

    Successive calls return *disjoint* ``dtype`` batches, the repeated
    batched sampling of Section 4.3.  With ``sample_cache`` on they read
    consecutive ledger windows
    (:meth:`~repro.core.ledger.SampleLedger.open_window`), never the same
    prefix twice; otherwise each call is a fresh draw.
    """
    config = _cond.get_config()
    window = None
    if config.sample_cache:
        from repro.core.ledger import LEDGER

        window = LEDGER.open_window(plan, rng, None, config)

    def draw(k: int) -> np.ndarray:
        rows = window.draw(k) if window is not None else None
        if rows is None:
            rows = _execute_plan(plan, k, rng, use_ledger=False, config=config)
        return np.asarray(rows, dtype=dtype)

    return draw


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
            plan = compile_plan(node, analyze=_cond.get_config().plan_analyzer)
            if engine is None:
                engine = self._engine
            batch = _execute_plan(
                plan, self.n, self.rng, memo=self._values, engine=engine
            )
        return batch
