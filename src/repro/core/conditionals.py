"""Evaluation configuration for conditionals and expectations.

The implicit conditional (``if speed > 4:``) has no argument position for a
hypothesis test or RNG, so the runtime carries an ambient
:class:`EvaluationConfig`.  The :func:`evaluation_config` context manager
scopes overrides, which the case studies use to instrument sample counts and
to switch between SPRT / fixed / group-sequential testing.

The configuration itself is frozen policy.  What changes while it is active
— sample counters and the deadline clock — lives on the config's own
:class:`Accounting` scope (``cfg.accounting``), which every draw path
charges through :meth:`Accounting.admit`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
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
from repro.runtime.cancellation import CancellationToken


class Accounting:
    """The mutable bookkeeping of one evaluation scope.

    Every :class:`EvaluationConfig` builds its own, so a fresh config
    starts with zeroed counters and a restarted deadline clock.
    :meth:`admit` is the one budget/deadline check every draw path uses.
    Thread-safe: a service's worker threads share one scope.
    """

    __slots__ = (
        "sample_budget", "deadline", "token", "_lock",
        "samples_drawn", "conditionals_evaluated", "samples_executed",
    )

    def __init__(self, sample_budget: int | None, deadline: float | None) -> None:
        self.sample_budget = sample_budget
        self.deadline = deadline
        #: The deadline as a cancellation token (``None`` without one),
        #: which a ``sampling.Draw`` installs around each engine run.
        self.token = (
            CancellationToken(deadline_at=monotonic() + deadline)
            if deadline is not None else None
        )
        self._lock = threading.Lock()
        #: Bernoulli samples drawn by conditionals (telemetry for Figure
        #: 14(b)); reset with :meth:`reset_sample_counter`.
        self.samples_drawn = 0
        #: Conditionals evaluated.
        self.conditionals_evaluated = 0
        #: Joint samples charged by :meth:`admit` (``sample_budget`` bounds it).
        self.samples_executed = 0

    def admit(self, n: int, *, charge: bool = True) -> None:
        """Admit (and, if ``charge``, count) a draw of ``n`` joint samples.

        Raises :class:`~repro.core.sampling.DeadlineExceeded` past the
        deadline, :class:`~repro.core.sampling.SampleBudgetExceeded` if
        ``n`` more samples would exceed the budget.
        """
        if self.token is not None and self.token.expired:
            from repro.core.sampling import DeadlineExceeded

            raise DeadlineExceeded(
                f"evaluation deadline of {self.deadline}s expired before a "
                f"draw of {n} samples"
            )
        with self._lock:
            if (self.sample_budget is not None
                    and self.samples_executed + n > self.sample_budget):
                from repro.core.sampling import SampleBudgetExceeded

                raise SampleBudgetExceeded(
                    f"sample budget exhausted: {self.samples_executed} drawn + "
                    f"{n} requested > budget {self.sample_budget}"
                )
            if charge:
                self.samples_executed += n

    def record(self, samples_used: int, metrics=_metrics.AMBIENT) -> None:
        """Count one evaluated conditional that used ``samples_used``, in
        this scope and in ``metrics`` (the sink the caller resolved,
        ``None`` for none; by default the ambient one)."""
        with self._lock:
            self.samples_drawn += samples_used
            self.conditionals_evaluated += 1
        if metrics is _metrics.AMBIENT:
            metrics = _metrics.active()
        if metrics is not None:
            metrics.record_conditional(samples_used)

    def reset_sample_counter(self) -> None:
        with self._lock:
            self.samples_drawn = 0
            self.conditionals_evaluated = 0


@dataclasses.dataclass(frozen=True)
class EvaluationConfig:
    """Ambient knobs for evaluating conditionals and expectations.

    Attributes mirror Section 4.3: ``alpha``/``beta`` are the significance
    level and type-II error bound of the conditional hypothesis tests,
    ``epsilon`` the half-width of the SPRT indifference region,
    ``batch_size`` the paper's ``k``, ``max_samples`` the truncation bound,
    and ``expectation_samples`` the fixed sample size the ``E`` operator
    uses.

    ``engine`` selects how compiled evaluation plans are executed (see
    :mod:`repro.core.engines`; ``"fused"``, the default, runs each hot
    plan shape as one generated kernel, ``"numpy"`` is the vectorized
    reference engine, ``"interpreter"`` the per-batch graph walk,
    ``"parallel"`` the process-pool engine of
    :mod:`repro.runtime.parallel`).

    The unified evaluation knobs (the ``repro.evaluate`` surface) live
    here too:

    - ``sample_budget`` — cumulative cap on joint samples drawn while this
      config is active (counted in ``accounting.samples_executed``);
      exceeding it raises
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

    The config is frozen; derive variants with ``dataclasses.replace`` or
    :func:`evaluation_config`.  Its counters live on ``accounting``.
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
    #: names: ``"fused"`` (default; generated kernels per plan shape,
    #: :mod:`repro.core.fused`, bit-identical to the reference engine),
    #: ``"numpy"`` (the reference engine), ``"interpreter"``,
    #: ``"parallel"``.
    engine: "str | object" = "fused"
    #: Retired: the rewrite optimizer is gone and every engine runs the
    #: compiled plan.  Accepted at any value and ignored, because the
    #: end-to-end benchmark's oracle still passes ``optimize=0``.
    optimize: "bool | int" = True
    #: Optional static-analysis hook run once per freshly compiled plan
    #: (``None`` = off).  ``evaluation_config(plan_analyzer=
    #: warn_on_diagnostics)`` (:mod:`repro.analysis`) warns with
    #: :class:`~repro.analysis.UncertaintyWarning` on UNC101-class
    #: findings, once per cached plan.
    plan_analyzer: "callable | None" = None
    #: Cumulative cap on joint samples drawn under this config (``None`` =
    #: unlimited).  Enforced by ``accounting.admit`` on every draw path.
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
    #: budget, an ``int`` enables with that byte budget.  When enabled, a
    #: one-shot query asked again with the same integer seed reuses the
    #: rows of its first run, bit for bit what a fresh run would draw (see
    #: ``docs/performance.md``).
    sample_cache: "bool | int" = False
    #: Policy for hypothesis tests that truncate without significance:
    #: ``"best-guess"`` (the paper's ternary mapping, the default),
    #: ``"warn"``, or ``"raise"``
    #: (:class:`~repro.resilience.InconclusiveError`).
    on_inconclusive: str = "best-guess"
    #: This config's counters and deadline clock (built fresh per config).
    accounting: Accounting = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The deadline clock starts when the config is built, so a
        # ``with evaluation_config(deadline=0.5):`` block bounds the whole
        # block's sampling, not each individual draw.
        object.__setattr__(
            self, "accounting", Accounting(self.sample_budget, self.deadline)
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
            print(cfg.accounting.samples_drawn)

    The scoped config is ``dataclasses.replace(get_config(), **overrides)``:
    it inherits the enclosing policy but starts its own accounting.
    """
    fresh = dataclasses.replace(get_config(), **overrides)
    previous = set_config(fresh)
    try:
        yield fresh
    finally:
        set_config(previous)


# The runtime-metrics module resolves its recording sink through the active
# configuration (see ``EvaluationConfig.metrics``).
_metrics.bind_resolver(lambda: get_config().metrics)
