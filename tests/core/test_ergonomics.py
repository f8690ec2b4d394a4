"""The uncertain-tee ergonomics surface: percentiles, intervals, map/flat_map.

These mirror the exemplar API (``percentiles(sampleCount)``,
``confidenceInterval(0.95)``, ``isProbable()``, ``map``/``flatMap``) on
top of this library's cached plans, ambient configuration and
engines — the satellite API redesign of the service-tier PR.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Uncertain, evaluate, evaluation_config
from repro.core.graph import BindNode
from repro.dists import Exponential, Gaussian, Uniform
from repro.runtime import RuntimeMetrics


class TestPercentiles:
    def test_shape_and_monotonicity(self):
        speed = Uncertain(Gaussian(4.0, 1.0))
        p = speed.percentiles(100, samples=20_000, rng=0)
        assert p.shape == (101,)
        assert np.all(np.diff(p) >= 0)
        # p[50] is the median of a symmetric distribution.
        assert p[50] == pytest.approx(4.0, abs=0.1)

    def test_divisions_default_and_override(self):
        value = Uncertain(Uniform(0.0, 1.0))
        assert value.percentiles(samples=1_000, rng=0).shape == (101,)
        assert value.percentiles(4, samples=1_000, rng=0).shape == (5,)

    def test_samples_defaults_to_ci_samples(self):
        scoped = RuntimeMetrics()
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(ci_samples=333, metrics=scoped, rng=0):
            value.percentiles()
        assert scoped.total_samples() == 333

    def test_honors_sample_budget(self):
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(sample_budget=10, rng=0):
            with pytest.raises(repro.SampleBudgetExceeded):
                value.percentiles(samples=1_000)

    def test_engine_override_is_bit_identical(self):
        value = Uncertain(Gaussian(0.0, 1.0)) * 2.0 + 1.0
        a = value.percentiles(10, samples=4_096, rng=3, engine="numpy")
        b = value.percentiles(10, samples=4_096, rng=3, engine="interpreter")
        assert np.array_equal(a, b)


class TestConfidenceInterval:
    def test_covers_the_mass(self):
        value = Uncertain(Gaussian(10.0, 2.0))
        lo, hi = value.confidence_interval(0.95, samples=50_000, rng=0)
        assert lo == pytest.approx(10.0 - 1.96 * 2.0, abs=0.15)
        assert hi == pytest.approx(10.0 + 1.96 * 2.0, abs=0.15)

    def test_matches_ci_spelling(self):
        value = Uncertain(Exponential(1.0))
        a = value.confidence_interval(0.9, samples=5_000, rng=7)
        b = value.ci(0.9, n=5_000, rng=7)
        assert a == b

    def test_level_validation(self):
        value = Uncertain(Gaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            value.confidence_interval(0.0)
        with pytest.raises(ValueError):
            value.confidence_interval(1.0)


class TestIsProbable:
    def test_on_boolean_evidence(self):
        speed = Uncertain(Gaussian(4.0, 0.1))
        assert (speed > 3.0).is_probable(0.9, rng=0)
        assert not (speed > 5.0).is_probable(0.5, rng=0)

    def test_lifts_truthiness_on_general_values(self):
        # A value that is almost never exactly zero is almost surely truthy.
        value = Uncertain(Gaussian(5.0, 0.1))
        assert value.is_probable(0.9, rng=0)

    def test_bool_overload_matches(self):
        speed = Uncertain(Gaussian(4.0, 0.1))
        with evaluation_config(rng=np.random.default_rng(0)):
            expected = bool(speed > 3.0)
        assert (speed > 3.0).is_probable(0.5, rng=0) == expected


class TestMapFlatMap:
    def test_map_preserves_correlation(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        doubled = x.map(lambda v: 2.0 * v, vectorized=True)
        diff = doubled - x - x
        assert diff.expected_value(100, rng=0) == pytest.approx(0.0, abs=1e-12)

    def test_flat_map_draws_from_dependent_distribution(self):
        # The canonical bind: a rate sampled upstream parameterises the
        # downstream distribution.
        rate = Uncertain(Uniform(1.0, 2.0))
        wait = rate.flat_map(lambda r: Exponential(r))
        # E[wait] = E[1/rate] = ln(2) for rate ~ U(1, 2).
        est = wait.expected_value(40_000, rng=0)
        assert est == pytest.approx(np.log(2.0), abs=0.03)

    def test_flat_map_accepts_uncertain_results(self):
        base = Uncertain(Gaussian(0.0, 0.001))
        shifted = base.flat_map(lambda v: Uncertain(Gaussian(v + 10.0, 0.001)))
        assert shifted.expected_value(500, rng=0) == pytest.approx(10.0, abs=0.1)

    def test_flat_map_accepts_plain_values(self):
        value = Uncertain(Uniform(0.0, 1.0)).flat_map(lambda v: 42.0)
        assert np.all(value.samples(16, rng=0) == 42.0)

    def test_bind_plans_are_structurally_opaque(self):
        value = Uncertain(Gaussian(0.0, 1.0)).flat_map(lambda v: Exponential(1.0))
        assert isinstance(value.node, BindNode)
        assert value.plan.structural_hash is None

    def test_bind_is_deterministic_per_seed(self):
        rate = Uncertain(Uniform(1.0, 2.0))
        wait = rate.flat_map(lambda r: Exponential(r))
        a = wait.samples(64, rng=5)
        b = wait.samples(64, rng=5)
        assert np.array_equal(a, b)


class TestFacadeParity:
    """The new surface is exposed identically via ``repro.evaluate``."""

    def test_percentiles_parity(self):
        value = Uncertain(Gaussian(1.0, 1.0))
        a = evaluate.percentiles(value, 10, samples=2_000, rng=1)
        b = value.percentiles(10, samples=2_000, rng=1)
        assert np.array_equal(a, b)

    def test_confidence_interval_parity(self):
        value = Uncertain(Gaussian(1.0, 1.0))
        assert evaluate.confidence_interval(
            value, 0.9, samples=2_000, rng=1
        ) == value.confidence_interval(0.9, samples=2_000, rng=1)

    def test_is_probable_parity(self):
        cond = Uncertain(Gaussian(4.0, 0.1)) > 3.0
        assert evaluate.is_probable(cond, 0.5, rng=1) == cond.is_probable(
            0.5, rng=1
        )

    def test_all_lists_the_new_names(self):
        for name in ("percentiles", "confidence_interval", "is_probable"):
            assert name in evaluate.__all__
