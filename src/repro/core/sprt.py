"""Hypothesis tests for conditionals (Section 4.3).

A comparison over uncertain data is a Bernoulli random variable whose
parameter ``p`` is the evidence for the comparison.  Conditionals must turn
that Bernoulli into a concrete branch decision while controlling
*approximation error* — the error introduced because Uncertain<T> only ever
sees samples.  The paper's runtime does this with Wald's sequential
probability ratio test (SPRT), drawing batches of ``k`` samples until the
test reaches significance or a maximum sample size.

Three tests are provided:

- :class:`SPRT` — the paper's mechanism.  Optimal average sample size,
  unbounded worst case, truncated at ``max_samples``.
- :class:`FixedSampleTest` — the "fixed pool of samples" baseline the paper
  contrasts against (Park et al.); also the naive one-sample decision when
  ``n=1``.
- :class:`GroupSequentialTest` — Pocock-style group sequential boundaries,
  the paper's anticipated future work ("closed" sequential tests with a
  guaranteed sample-size bound).

All tests consume a sampler ``draw(k) -> ndarray of k booleans`` so they are
independent of the graph machinery and unit-testable against synthetic
Bernoulli streams.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable

import numpy as np

from repro.resilience.policies import Inconclusive
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace


class TestDecision(enum.Enum):
    """Ternary outcome of a hypothesis test (Section 3.4's ternary logic)."""

    ACCEPT_ALTERNATIVE = "accept_alternative"  # evidence that p > threshold
    ACCEPT_NULL = "accept_null"  # evidence that p <= threshold
    INCONCLUSIVE = "inconclusive"  # max samples reached without significance

    def as_bool(self) -> bool:
        """Branch decision: only a significant alternative takes the branch.

        Inconclusive maps to ``False`` — this is what makes
        ``if (a < b) ... elif (a >= b) ...`` able to take *neither* branch,
        just as the paper describes.
        """
        return self is TestDecision.ACCEPT_ALTERNATIVE


@dataclasses.dataclass(frozen=True)
class TestResult:
    """Outcome of a test run: decision plus sampling diagnostics.

    Truncated runs additionally carry a structured
    :class:`~repro.resilience.Inconclusive` record in ``inconclusive``
    (``None`` for significant decisions), so callers can inspect *how*
    undecided the test was instead of only seeing the ternary decision.
    """

    decision: TestDecision
    samples_used: int
    successes: int
    inconclusive: Inconclusive | None = None

    @property
    def p_hat(self) -> float:
        """Empirical success fraction; 0.5 (maximum ignorance, never a
        NaN that poisons downstream arithmetic) when no samples were
        drawn."""
        return self.successes / self.samples_used if self.samples_used else 0.5

    def __bool__(self) -> bool:
        return self.decision.as_bool()


BernoulliSampler = Callable[[int], np.ndarray]


class HypothesisTest:
    """Base class: test H0: p <= threshold against HA: p > threshold."""

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.threshold = float(threshold)

    def run(self, draw: BernoulliSampler, metrics=_metrics.AMBIENT) -> TestResult:
        """Run the test against ``draw``, with runtime instrumentation.

        The statistical procedure itself lives in ``_run`` (template
        method); this wrapper attributes the run — number of sequential
        steps (batch draws) and total samples — to ``metrics`` (the sink
        the caller resolved, ``None`` for none; by default the ambient
        one) and, when a tracer is installed, records a
        ``test.<Kind>.run`` span enclosing the engine batches it caused.
        """
        kind = type(self).__name__
        with _trace.span(f"test.{kind}.run", threshold=self.threshold) as attrs:
            result, steps = self._run(draw)
            attrs["steps"] = steps
            attrs["samples"] = result.samples_used
            attrs["decision"] = result.decision.value
        if metrics is _metrics.AMBIENT:
            metrics = _metrics.active()
        if metrics is not None:
            metrics.record_test(kind, steps, result.samples_used)
        return result

    def _run(self, draw: BernoulliSampler) -> tuple[TestResult, int]:
        """Subclass hook: return ``(result, sequential_steps)``."""
        raise NotImplementedError


class SPRT(HypothesisTest):
    """Wald's sequential probability ratio test with an indifference region.

    Tests the simple hypotheses ``p = threshold - epsilon`` versus
    ``p = threshold + epsilon``; within the indifference region either
    decision is acceptable.  Sampling proceeds in batches of ``batch_size``
    (the paper's ``k = 10``) until the log-likelihood ratio crosses a Wald
    boundary or ``max_samples`` is reached.

    Boundaries: accept HA when LLR >= log((1-beta)/alpha); accept H0 when
    LLR <= log(beta/(1-alpha)).  ``alpha`` bounds false positives
    (significance), ``beta`` false negatives (1 - power).
    """

    def __init__(
        self,
        threshold: float = 0.5,
        alpha: float = 0.05,
        beta: float = 0.05,
        epsilon: float = 0.05,
        batch_size: int = 10,
        max_samples: int = 10_000,
    ) -> None:
        super().__init__(threshold)
        if not 0 < alpha < 1 or not 0 < beta < 1:
            raise ValueError(f"alpha and beta must be in (0, 1), got {alpha}, {beta}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if batch_size <= 0 or max_samples < batch_size:
            raise ValueError("need batch_size >= 1 and max_samples >= batch_size")
        self.alpha = float(alpha)
        self.beta = float(beta)
        # Shrink the indifference region near the boundaries: for a high
        # threshold like .pr(0.95), a fixed epsilon of 0.05 would place the
        # alternative at p = 1.0, where a single failure sends the LLR to
        # -infinity and the test can essentially never accept.  Halving the
        # distance to the nearest boundary keeps both hypotheses proper.
        epsilon = float(min(epsilon, (1.0 - threshold) / 2.0, threshold / 2.0))
        self.p0 = threshold - epsilon
        self.p1 = threshold + epsilon
        if not 0.0 < self.p0 < self.p1 < 1.0:
            raise ValueError(
                f"indifference region around {threshold} collapsed: [{self.p0}, {self.p1}]"
            )
        self.epsilon = epsilon
        self.batch_size = int(batch_size)
        self.max_samples = int(max_samples)
        # Per-observation log-likelihood-ratio increments.
        self._llr_success = math.log(self.p1 / self.p0)
        self._llr_failure = math.log((1.0 - self.p1) / (1.0 - self.p0))
        self.upper_bound = math.log((1.0 - self.beta) / self.alpha)
        self.lower_bound = math.log(self.beta / (1.0 - self.alpha))

    def llr(self, successes: int, failures: int) -> float:
        """Log-likelihood ratio of HA over H0 after the given counts."""
        return successes * self._llr_success + failures * self._llr_failure

    def _run(self, draw: BernoulliSampler) -> tuple[TestResult, int]:
        successes = 0
        total = 0
        steps = 0
        while total < self.max_samples:
            k = min(self.batch_size, self.max_samples - total)
            batch = np.asarray(draw(k), dtype=bool)
            if batch.shape != (k,):
                raise ValueError(
                    f"sampler returned shape {batch.shape}, expected ({k},)"
                )
            successes += int(batch.sum())
            total += k
            steps += 1
            llr = self.llr(successes, total - successes)
            if llr >= self.upper_bound:
                return (
                    TestResult(TestDecision.ACCEPT_ALTERNATIVE, total, successes),
                    steps,
                )
            if llr <= self.lower_bound:
                return TestResult(TestDecision.ACCEPT_NULL, total, successes), steps
        outcome = Inconclusive(self.threshold, total, successes, self.max_samples)
        return (
            TestResult(TestDecision.INCONCLUSIVE, total, successes, outcome),
            steps,
        )


class FixedSampleTest(HypothesisTest):
    """Fixed-size one-sided binomial test — the non-sequential baseline.

    With ``significance=None`` this is the naive plug-in decision
    (``p_hat > threshold``), which is what a fixed pool of samples with no
    statistical control gives you; ``n=1`` then reproduces NaiveLife's
    single-sample decisions exactly.  With a significance level, an exact
    binomial test is applied and insufficient evidence in *either* direction
    is inconclusive.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        n: int = 1_000,
        significance: float | None = None,
    ) -> None:
        super().__init__(threshold)
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if significance is not None and not 0 < significance < 1:
            raise ValueError(f"significance must be in (0, 1), got {significance}")
        self.n = int(n)
        self.significance = significance

    def _run(self, draw: BernoulliSampler) -> tuple[TestResult, int]:
        batch = np.asarray(draw(self.n), dtype=bool)
        successes = int(batch.sum())
        if self.significance is None:
            decision = (
                TestDecision.ACCEPT_ALTERNATIVE
                if successes > self.threshold * self.n
                else TestDecision.ACCEPT_NULL
            )
            return TestResult(decision, self.n, successes), 1
        from scipy import stats

        p_upper = stats.binom.sf(successes - 1, self.n, self.threshold)
        p_lower = stats.binom.cdf(successes, self.n, self.threshold)
        if p_upper <= self.significance:
            decision = TestDecision.ACCEPT_ALTERNATIVE
        elif p_lower <= self.significance:
            decision = TestDecision.ACCEPT_NULL
        else:
            decision = TestDecision.INCONCLUSIVE
        outcome = (
            Inconclusive(self.threshold, self.n, successes, self.n)
            if decision is TestDecision.INCONCLUSIVE
            else None
        )
        return TestResult(decision, self.n, successes, outcome), 1


class GroupSequentialTest(HypothesisTest):
    """Pocock-style group sequential test with a hard sample-size cap.

    The paper anticipates replacing the truncated SPRT with group sequential
    methods from the clinical-trials literature (Jennison & Turnbull), which
    guarantee an upper bound on sample size.  We implement the Pocock
    scheme: ``looks`` interim analyses after every ``group_size`` samples,
    each a two-sided z-test at a constant nominal level chosen so the total
    type-I error is ``alpha``.
    """

    #: Pocock constant nominal significance levels for overall alpha=0.05.
    _POCOCK_NOMINAL = {1: 0.05, 2: 0.0294, 3: 0.0221, 4: 0.0182, 5: 0.0158,
                       6: 0.0142, 7: 0.0130, 8: 0.0120, 9: 0.0112, 10: 0.0106}

    def __init__(
        self,
        threshold: float = 0.5,
        alpha: float = 0.05,
        looks: int = 5,
        group_size: int = 200,
    ) -> None:
        super().__init__(threshold)
        if looks < 1:
            raise ValueError(f"looks must be >= 1, got {looks}")
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        self.alpha = float(alpha)
        self.looks = int(looks)
        self.group_size = int(group_size)
        nominal = self._POCOCK_NOMINAL.get(min(self.looks, 10), 0.0106)
        # Scale the tabulated alpha=0.05 constants for other overall levels.
        self.nominal_level = nominal * (self.alpha / 0.05)
        from scipy import stats

        self._z_crit = float(stats.norm.isf(self.nominal_level / 2))

    @property
    def max_samples(self) -> int:
        return self.looks * self.group_size

    def _run(self, draw: BernoulliSampler) -> tuple[TestResult, int]:
        successes = 0
        total = 0
        steps = 0
        p0 = self.threshold
        for _ in range(self.looks):
            batch = np.asarray(draw(self.group_size), dtype=bool)
            successes += int(batch.sum())
            total += self.group_size
            steps += 1
            se = math.sqrt(p0 * (1 - p0) / total)
            z = (successes / total - p0) / se
            if z >= self._z_crit:
                return (
                    TestResult(TestDecision.ACCEPT_ALTERNATIVE, total, successes),
                    steps,
                )
            if z <= -self._z_crit:
                return TestResult(TestDecision.ACCEPT_NULL, total, successes), steps
        outcome = Inconclusive(self.threshold, total, successes, self.max_samples)
        return (
            TestResult(TestDecision.INCONCLUSIVE, total, successes, outcome),
            steps,
        )
