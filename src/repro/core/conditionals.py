"""Evaluation configuration for conditionals and expectations.

The implicit conditional (``if speed > 4:``) has no argument position for a
hypothesis test or RNG, so the runtime carries an ambient
:class:`EvaluationConfig`.  The :func:`evaluation_config` context manager
scopes overrides, which the case studies use to instrument sample counts and
to switch between SPRT / fixed / group-sequential testing.
"""

from __future__ import annotations

import contextlib
import dataclasses
from time import monotonic
from typing import Iterator

import numpy as np

from repro.core.sprt import HypothesisTest, SPRT
from repro.resilience.policies import (
    INCONCLUSIVE_POLICIES,
    NONFINITE_POLICIES,
    validate_policy,
)
from repro.rng import default_rng
from repro.runtime import metrics as _metrics


@dataclasses.dataclass
class EvaluationConfig:
    """Ambient knobs for evaluating conditionals and expectations.

    Attributes mirror Section 4.3: ``alpha``/``beta`` are the significance
    level and type-II error bound of the conditional hypothesis tests,
    ``epsilon`` the half-width of the SPRT indifference region,
    ``batch_size`` the paper's ``k``, ``max_samples`` the truncation bound,
    and ``expectation_samples`` the fixed sample size the ``E`` operator
    uses.

    ``engine`` selects how compiled evaluation plans are executed (see
    :mod:`repro.core.engines`; ``"numpy"`` is the vectorized default,
    ``"interpreter"`` the per-batch graph walk, ``"parallel"`` the
    process-pool engine of :mod:`repro.runtime.parallel`).

    The unified evaluation knobs (the ``repro.evaluate`` surface) live
    here too:

    - ``sample_budget`` — cumulative cap on joint samples drawn while this
      config is active; exceeding it raises
      :class:`~repro.core.sampling.SampleBudgetExceeded`.
    - ``deadline`` — wall-clock seconds, measured from the construction of
      this config, after which any further draw raises
      :class:`~repro.core.sampling.DeadlineExceeded` (time-bounded
      conditionals: the SPRT loop checks before every batch).
    - ``metrics`` — ``True`` (default) records runtime counters into the
      process-global :data:`repro.runtime.metrics.METRICS`; ``False``
      disables recording; a
      :class:`~repro.runtime.metrics.RuntimeMetrics` instance scopes
      recording to that instance.
    - ``estimator_samples`` / ``ci_samples`` — shared default sample sizes
      for the moment estimators (``sd``/``var``) and the interval/density
      estimators (``ci``/``histogram``/``evidence``).
    """

    alpha: float = 0.05
    beta: float = 0.05
    epsilon: float = 0.05
    batch_size: int = 10
    max_samples: int = 10_000
    expectation_samples: int = 1_000
    rng: np.random.Generator = dataclasses.field(default_factory=default_rng)
    #: Optional override: a factory building the test for a given threshold.
    test_factory: "callable | None" = None
    #: Execution engine for compiled plans: a registered name or an
    #: :class:`~repro.core.engines.ExecutionEngine` instance.  Built-in
    #: names: ``"numpy"`` (default), ``"interpreter"``, ``"parallel"``,
    #: ``"fused"`` (generated-kernel backend, :mod:`repro.core.fused`).
    engine: "str | object" = "numpy"
    #: Optimizer level for compiled plans (:mod:`repro.core.optimizer`):
    #: ``False``/``0`` disables, ``1`` runs constant folding + dead-slot
    #: elimination, ``True``/``2`` adds common-subexpression elimination.
    #: Safe default ``True``: every accepted rewrite preserves bit-identical
    #: RNG streams (rewrites that would reorder leaf draws are rejected),
    #: and memo-carrying draws (``SampleContext``) always run unoptimized.
    optimize: "bool | int" = True
    #: Optional static-analysis hook run once per freshly compiled plan
    #: (``None`` = off).  Install the default analyzer — which warns with
    #: :class:`~repro.analysis.UncertaintyWarning` on UNC101-class
    #: findings — via :meth:`enable_plan_analysis`.
    plan_analyzer: "callable | None" = None
    #: Cumulative cap on joint samples drawn under this config (``None`` =
    #: unlimited).  Enforced centrally by the sampling facade.
    sample_budget: int | None = None
    #: Wall-clock budget in seconds from this config's construction
    #: (``None`` = unlimited).
    deadline: float | None = None
    #: Runtime-metrics selection: ``True`` → the process-global registry,
    #: ``False`` → off, or a :class:`~repro.runtime.metrics.RuntimeMetrics`
    #: instance for scoped recording.
    metrics: "bool | object" = True
    #: Default sample size for the moment estimators ``sd``/``var``.
    estimator_samples: int = 1_000
    #: Default sample size for ``ci``/``histogram``/``evidence``.
    ci_samples: int = 10_000
    #: Numerical-health policy applied by every engine batch:
    #: ``"propagate"`` (IEEE semantics, the default), ``"warn"``,
    #: ``"raise"``, or ``"resample"`` (redraw poisoned rows, bounded by
    #: ``nonfinite_retries``).  See ``docs/resilience.md``.
    on_nonfinite: str = "propagate"
    #: Retry cap for ``on_nonfinite="resample"``; exhausting it raises
    #: :class:`~repro.resilience.NonFiniteError`.
    nonfinite_retries: int = 8
    #: Cross-query sample ledger (:mod:`repro.core.ledger`): ``False``
    #: (default) disables, ``True`` enables with the default 64 MiB byte
    #: budget, an ``int`` enables with that byte budget.  When enabled,
    #: repeated queries over the same plan shape reuse cached sample
    #: columns, drawing only stream suffixes (see ``docs/performance.md``
    #: for the bit-identity and invalidation contract).
    sample_cache: "bool | int" = False
    #: Policy for hypothesis tests that truncate without significance:
    #: ``"best-guess"`` (the paper's ternary mapping, the default),
    #: ``"warn"``, or ``"raise"``
    #: (:class:`~repro.resilience.InconclusiveError`).
    on_inconclusive: str = "best-guess"
    #: Running count of Bernoulli samples drawn by conditionals (telemetry
    #: for Figure 14(b)); reset with ``reset_sample_counter``.
    samples_drawn: int = 0
    #: Running count of conditionals evaluated.
    conditionals_evaluated: int = 0
    #: Running count of joint samples executed under this config (the
    #: quantity ``sample_budget`` bounds).
    samples_executed: int = 0

    def __post_init__(self) -> None:
        # The deadline clock starts when the config is built, so a
        # ``with evaluation_config(deadline=0.5):`` block bounds the whole
        # block's sampling, not each individual draw.
        self.deadline_at = (
            monotonic() + self.deadline if self.deadline is not None else None
        )
        validate_policy("on_nonfinite", self.on_nonfinite, NONFINITE_POLICIES)
        validate_policy(
            "on_inconclusive", self.on_inconclusive, INCONCLUSIVE_POLICIES
        )
        if self.nonfinite_retries < 0:
            raise ValueError(
                f"nonfinite_retries must be >= 0, got {self.nonfinite_retries}"
            )
        if not isinstance(self.sample_cache, bool):
            if not isinstance(self.sample_cache, int):
                raise ValueError(
                    "sample_cache must be a bool or an int byte budget, "
                    f"got {self.sample_cache!r}"
                )
            if self.sample_cache <= 0:
                raise ValueError(
                    "sample_cache byte budget must be positive, got "
                    f"{self.sample_cache}"
                )

    def make_test(self, threshold: float) -> HypothesisTest:
        """Construct the hypothesis test for a conditional at ``threshold``."""
        if self.test_factory is not None:
            return self.test_factory(threshold)
        return SPRT(
            threshold=threshold,
            alpha=self.alpha,
            beta=self.beta,
            epsilon=self.epsilon,
            batch_size=self.batch_size,
            max_samples=self.max_samples,
        )

    def record(self, samples_used: int) -> None:
        self.samples_drawn += samples_used
        self.conditionals_evaluated += 1
        sink = _metrics.active()
        if sink is not None:
            sink.record_conditional(samples_used)

    def reset_sample_counter(self) -> None:
        self.samples_drawn = 0
        self.conditionals_evaluated = 0

    def enable_plan_analysis(self) -> None:
        """Warn (once per cached plan) on statically detectable bugs.

        Installs :func:`repro.analysis.warn_on_diagnostics` as the
        compile-time hook: every fresh plan compile runs the interval
        abstract interpreter, and error-severity findings — division by a
        zero-crossing support (UNC101), domain violations (UNC102) —
        surface as :class:`~repro.analysis.UncertaintyWarning`.  Cache
        hits never re-analyze, so the overhead is one sub-millisecond
        pass per distinct graph.
        """
        from repro.analysis.diagnostics import warn_on_diagnostics

        self.plan_analyzer = warn_on_diagnostics


_active_config = EvaluationConfig()


def get_config() -> EvaluationConfig:
    """The currently active evaluation configuration."""
    return _active_config


def set_config(config: EvaluationConfig) -> EvaluationConfig:
    """Install ``config`` globally, returning the previous one."""
    global _active_config
    previous = _active_config
    _active_config = config
    return previous


@contextlib.contextmanager
def evaluation_config(**overrides) -> Iterator[EvaluationConfig]:
    """Scope an evaluation configuration.

    Example::

        with evaluation_config(alpha=0.01, rng=default_rng(7)) as cfg:
            if speed > 4:
                ...
            print(cfg.samples_drawn)
    """
    base = get_config()
    fields = {
        f.name: getattr(base, f.name)
        for f in dataclasses.fields(EvaluationConfig)
        if f.name
        not in ("samples_drawn", "conditionals_evaluated", "samples_executed")
    }
    fields.update(overrides)
    fresh = EvaluationConfig(**fields)
    previous = set_config(fresh)
    try:
        yield fresh
    finally:
        set_config(previous)


# The runtime-metrics module resolves its recording sink through the active
# configuration (see ``EvaluationConfig.metrics``).
_metrics.bind_resolver(lambda: get_config().metrics)
