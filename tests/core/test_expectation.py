"""Tests for the expected-value operator (fixed and adaptive)."""

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.expectation import (
    expected_value,
    expected_value_adaptive,
    reduce_samples,
)
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian, PointMass
from repro.rng import default_rng


class TestFixedExpectation:
    def test_matches_mean(self, fixed_rng):
        u = Uncertain(Gaussian(3.0, 1.0))
        assert expected_value(u, 50_000, fixed_rng) == pytest.approx(3.0, abs=0.02)

    def test_default_sample_size_from_config(self):
        u = Uncertain(PointMass(2.0))
        with evaluation_config(expectation_samples=17, rng=default_rng(0)):
            assert expected_value(u) == 2.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            expected_value(Uncertain(PointMass(1.0)), 0)

    def test_object_mean(self, rng):
        class Vec:
            def __init__(self, x):
                self.x = x

            def __add__(self, other):
                return Vec(self.x + other.x)

            def __truediv__(self, k):
                return Vec(self.x / k)

        u = Uncertain(lambda r: Vec(r.normal(4.0, 0.1)))
        mean = expected_value(u, 500, rng)
        assert isinstance(mean, Vec)
        assert mean.x == pytest.approx(4.0, abs=0.1)

    def test_linearity(self, fixed_rng):
        a = Uncertain(Gaussian(1.0, 1.0))
        combo = 2.0 * a + 3.0
        assert expected_value(combo, 50_000, fixed_rng) == pytest.approx(5.0, abs=0.05)


class TestAdaptiveExpectation:
    def test_converges_to_mean(self):
        u = Uncertain(Gaussian(7.0, 2.0))
        mean, n = expected_value_adaptive(u, tolerance=0.05, rng=default_rng(1))
        assert mean == pytest.approx(7.0, abs=0.2)

    def test_tighter_tolerance_needs_more_samples(self):
        u = Uncertain(Gaussian(0.0, 1.0))
        _, loose = expected_value_adaptive(u, tolerance=0.2, rng=default_rng(2))
        _, tight = expected_value_adaptive(u, tolerance=0.02, rng=default_rng(2))
        assert tight > loose

    def test_low_variance_stops_early(self):
        u = Uncertain(Gaussian(5.0, 0.001))
        _, n = expected_value_adaptive(
            u, tolerance=0.01, batch_size=50, rng=default_rng(3)
        )
        assert n == 100  # two batches: the minimum before stopping is allowed

    def test_max_samples_cap(self):
        u = Uncertain(Gaussian(0.0, 100.0))
        _, n = expected_value_adaptive(
            u, tolerance=1e-6, max_samples=1_000, rng=default_rng(4)
        )
        assert n == 1_000

    def test_validation(self):
        u = Uncertain(PointMass(0.0))
        with pytest.raises(ValueError):
            expected_value_adaptive(u, tolerance=0.0)
        with pytest.raises(ValueError):
            expected_value_adaptive(u, confidence=1.0)
        with pytest.raises(ValueError):
            expected_value_adaptive(u, batch_size=1)
        with pytest.raises(ValueError):
            expected_value_adaptive(u, batch_size=100, max_samples=50)

    def test_adaptive_beats_fixed_on_easy_cases(self):
        # The paper anticipates adaptive E outperforming a fixed budget on
        # low-variance variables: same accuracy, far fewer samples.
        u = Uncertain(Gaussian(1.0, 0.01))
        _, n = expected_value_adaptive(
            u, tolerance=0.01, batch_size=50, rng=default_rng(5)
        )
        assert n < 1_000  # the fixed default


class TestConfidenceIntervalReduction:
    def test_one_quantile_call_matches_two(self):
        # Both tails come from one ``np.quantile`` call; pin that it is
        # bit-identical to quantiling each tail on its own, on arrays with
        # ties, NaN and infinities.
        rng = np.random.default_rng(2014)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n)
            if rng.random() < 0.5:
                values = np.round(values, 1)
            for special in (np.nan, np.inf, -np.inf):
                if rng.random() < 0.15:
                    values[rng.integers(0, n)] = special
            level = float(rng.choice([0.5, 0.9, 0.95, 0.99, rng.random()]))
            tail = (1.0 - level) / 2.0
            with np.errstate(invalid="ignore"):  # inf - inf interpolates to NaN
                expected = (
                    float(np.quantile(values, tail)),
                    float(np.quantile(values, 1.0 - tail)),
                )
                got = reduce_samples("confidence_interval", values, level=level)
            np.testing.assert_array_equal(got, expected)
            assert all(type(bound) is float for bound in got)
