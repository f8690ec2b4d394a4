"""Statistical promises checked against closed-form ground truth.

Bit-identity suites show that every engine draws the same stream; they
cannot show that an estimator is *right*.  These tests run an estimator
over many fixed seeds on a linear-Gaussian sum, whose distribution is known
exactly, and check the frequency properties the estimator promises.

``s = 2·X + Y + 0.5`` with ``X ~ N(1, 2)`` and ``Y ~ N(-3, 1.5)`` is
``N(-0.5, sqrt(18.25))``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.conditionals import evaluation_config
from repro.core.expectation import expected_value_adaptive
from repro.core.sprt import TestDecision
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian
from repro.service import QueryRequest, evaluate_request
from repro.service.degradation import DEFAULT_LEVELS, DegradationDecision

MU = -0.5
SIGMA = math.sqrt(4 * 2.0**2 + 1.5**2)
SEEDS = range(200)


def linear_gaussian_sum() -> Uncertain:
    return 2 * Uncertain(Gaussian(1.0, 2.0)) + Uncertain(Gaussian(-3.0, 1.5)) + 0.5


def test_adaptive_expectation_meets_its_tolerance():
    # The CLT stopping rule targets a 95% interval of half-width 0.2, so
    # the estimate should land within 0.2 of the true mean in about 95%
    # of runs; 0.90 leaves room for the sequential rule's optimism.
    s = linear_gaussian_sum()
    hits = 0
    for seed in SEEDS:
        mean, used = expected_value_adaptive(s, tolerance=0.2, batch_size=100, rng=seed)
        assert used >= 200
        hits += abs(mean - MU) <= 0.2
    assert hits / len(SEEDS) >= 0.90


def test_confidence_interval_reaches_nominal_coverage():
    # The true probability mass inside each 90% interval, averaged over
    # seeds, must match the nominal level.
    s = linear_gaussian_sum()
    truth = stats.norm(MU, SIGMA)
    mass = []
    for seed in SEEDS:
        lo, hi = s.confidence_interval(0.9, samples=2000, rng=seed)
        mass.append(truth.cdf(hi) - truth.cdf(lo))
    assert abs(np.mean(mass) - 0.90) <= 0.01


@pytest.mark.parametrize(
    "p, right",
    [(0.6, TestDecision.ACCEPT_ALTERNATIVE), (0.4, TestDecision.ACCEPT_NULL)],
)
def test_sprt_error_rates_through_a_plan(p, right):
    # t puts the exact Pr[s > t] at 0.5 ± 0.10, outside the ε = 0.05
    # indifference region around the 0.5 threshold, where Wald's bounds
    # promise wrong decisions at most α = β = 0.05 of the time; 0.10
    # leaves room for 200 seeds.  Inconclusive counts as wrong.
    t = MU + SIGMA * stats.norm.isf(p)
    assert stats.norm(MU, SIGMA).sf(t) == pytest.approx(p)
    question = linear_gaussian_sum() > t
    wrong = 0
    with evaluation_config(alpha=0.05, beta=0.05, epsilon=0.05):
        for seed in SEEDS:
            wrong += question.test(0.5, rng=seed).decision is not right
    assert wrong / len(SEEDS) <= 0.10


@pytest.mark.parametrize("level", range(len(DEFAULT_LEVELS)))
def test_browned_out_means_stay_inside_their_wider_intervals(level):
    # A request answered at a brownout level draws fewer samples, so its
    # 95% interval widens to 1.96·σ/√effective.  The answer must land in
    # that interval in 95% of runs at every level; an interval computed
    # from the nominal count would be too narrow at every level > 0.
    factor = DEFAULT_LEVELS[level]
    decision = DegradationDecision(level, factor, 16)
    nominal = 400
    s = linear_gaussian_sum()
    seeds = range(400)
    hits = 0
    for seed in seeds:
        request = QueryRequest(
            value=s, kind="expected_value", samples=nominal, seed=seed
        )
        result = evaluate_request(request, engine="numpy", degrade=decision)
        assert result.samples_used == decision.effective(nominal)
        half_width = 1.96 * SIGMA / math.sqrt(result.samples_used)
        hits += abs(result.value - MU) <= half_width
    tolerance = 3 * math.sqrt(0.95 * 0.05 / len(seeds))
    assert abs(hits / len(seeds) - 0.95) <= tolerance
