"""Tests for conditioning on uncertain evidence (x.given(cond))."""

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.conditioning import condition
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian, Uniform
from repro.rng import default_rng


class TestCondition:
    def test_default_stream_is_the_configs_generator(self):
        # rng=None draws from config.rng, like every other query: the
        # ambient pool is the pool an explicit generator of that seed
        # draws, and another ambient seed draws another pool.
        x = Uncertain(Gaussian(0.0, 1.0))
        pools = {}
        for seed in (7, 8):
            with evaluation_config(rng=default_rng(seed)):
                pools[seed] = x.given(x > 0.0, pool_size=500).node.dist.pool
            explicit = x.given(x > 0.0, pool_size=500, rng=default_rng(seed))
            assert np.array_equal(pools[seed], explicit.node.dist.pool)
        assert not np.array_equal(pools[7], pools[8])

    def test_truncates_support(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        positive = x.given(x > 0.0, rng=default_rng(0))
        samples = positive.samples(2_000, default_rng(1))
        assert samples.min() > 0.0

    def test_truncated_gaussian_mean(self):
        # E[X | X > 0] for N(0,1) is sqrt(2/pi).
        x = Uncertain(Gaussian(0.0, 1.0))
        positive = x.given(x > 0.0, pool_size=20_000, rng=default_rng(2))
        assert positive.expected_value(20_000, default_rng(3)) == pytest.approx(
            np.sqrt(2 / np.pi), abs=0.03
        )

    def test_evidence_on_shared_network(self):
        # Condition a sum on one of its own addends: Pr structure must use
        # the same joint assignment for both.
        x = Uncertain(Gaussian(0.0, 1.0))
        y = Uncertain(Gaussian(0.0, 1.0))
        total = x + y
        conditioned = total.given(x > 1.0, rng=default_rng(4))
        # E[x | x > 1] ~ 1.525; y unaffected -> E[total | x > 1] ~ 1.525.
        assert conditioned.expected_value(10_000, default_rng(5)) == pytest.approx(
            1.525, abs=0.08
        )

    def test_independent_evidence_changes_nothing(self):
        x = Uncertain(Gaussian(3.0, 1.0))
        unrelated = Uncertain(Gaussian(0.0, 1.0))
        conditioned = x.given(unrelated > 0.0, rng=default_rng(6))
        assert conditioned.expected_value(10_000, default_rng(7)) == pytest.approx(
            3.0, abs=0.05
        )

    def test_composes_with_further_computation(self):
        u = Uncertain(Uniform(0.0, 1.0))
        upper = u.given(u > 0.5, rng=default_rng(8))
        doubled = upper * 2.0
        assert doubled.expected_value(10_000, default_rng(9)) == pytest.approx(
            1.5, abs=0.03
        )

    def test_impossible_evidence_raises(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        with pytest.raises(ValueError, match="never true"):
            x.given(x > 100.0, max_batches=3, batch_size=100, rng=default_rng(10))

    def test_evidence_type_checked(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        with pytest.raises(TypeError, match="UncertainBool"):
            condition(x, x)

    def test_parameter_validation(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            condition(x, x > 0.0, pool_size=0)

    def test_conjunction_evidence(self):
        u = Uncertain(Uniform(0.0, 1.0))
        band = u.given((u > 0.25) & (u < 0.75), rng=default_rng(11))
        samples = band.samples(2_000, default_rng(12))
        assert samples.min() > 0.25 and samples.max() < 0.75
