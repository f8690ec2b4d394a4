"""Failure-injection tests: the library must fail loudly and sanely."""

import math

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.sprt import SPRT, TestDecision
from repro.core.uncertain import Uncertain
from repro.dists import Empirical, Gaussian
from repro.rng import default_rng


class TestNaNPropagation:
    def test_nan_sensor_propagates_not_crashes(self, rng):
        broken = Uncertain(lambda r: float("nan"))
        sample = (broken + 1.0).sample(rng)
        assert math.isnan(sample)

    def test_nan_comparison_is_false(self, rng):
        broken = Uncertain(lambda r: float("nan"))
        cond = broken > 0.0
        assert cond.evidence(100, rng) == 0.0  # IEEE: NaN compares false

    def test_inf_division(self, rng):
        # No np.errstate needed at the call site: the engines centralise
        # floating-point error suppression (IEEE semantics are the default
        # on_nonfinite="propagate" policy).
        zero = Uncertain(0.0)
        inf = Uncertain(1.0) / zero
        value = inf.sample(rng)
        assert math.isinf(value)


class TestDegenerateDistributions:
    def test_zero_variance_conditional_decides_instantly(self):
        constant = Uncertain(Gaussian(5.0, 0.0))
        with evaluation_config(rng=default_rng(0)) as cfg:
            assert bool(constant > 4.0)
            assert cfg.accounting.samples_drawn <= 2 * cfg.batch_size

    def test_zero_variance_expected_value(self, rng):
        assert Uncertain(Gaussian(5.0, 0.0)).expected_value(10, rng) == 5.0

    def test_empty_empirical_rejected(self):
        with pytest.raises(ValueError):
            Empirical([])


class TestSamplerExhaustion:
    def test_max_sample_exhaustion_is_inconclusive_false(self):
        # Evidence pinned exactly at the threshold can never conclude.
        coin = Uncertain(Gaussian(0.0, 1.0)) > 0.0
        with evaluation_config(
            rng=default_rng(1), max_samples=200, epsilon=0.01
        ) as cfg:
            assert coin.pr(0.5) is False
            assert cfg.accounting.samples_drawn == 200

    def test_inconclusive_decision_surfaces_in_diagnostics(self):
        coin = Uncertain(Gaussian(0.0, 1.0)) > 0.0
        with evaluation_config(rng=default_rng(2), max_samples=200, epsilon=0.01):
            result = coin.test(0.5)
        assert result.decision is TestDecision.INCONCLUSIVE

    def test_sprt_with_always_true_sampler_terminates_fast(self):
        test = SPRT(threshold=0.5)
        result = test.run(lambda k: np.ones(k, dtype=bool))
        assert result.decision is TestDecision.ACCEPT_ALTERNATIVE
        assert result.samples_used <= 30


class TestMisbehavingSamplingFunctions:
    def test_wrong_shape_vectorised_fn(self, rng):
        from repro.dists.sampling_function import FunctionDistribution

        bad = Uncertain(FunctionDistribution(lambda r: 0.0, fn_n=lambda n, r: np.zeros(2 * n)))
        with pytest.raises(ValueError):
            bad.samples(5, rng)

    def test_exception_in_sampling_function_propagates(self, rng):
        def explode(r):
            raise RuntimeError("sensor offline")

        broken = Uncertain(explode)
        with pytest.raises(RuntimeError, match="sensor offline"):
            broken.sample(rng)

    def test_exception_inside_lifted_function_propagates(self, rng):
        from repro.core.lifting import apply

        def bad_metric(a, b):
            raise ZeroDivisionError

        u = apply(bad_metric, Uncertain(1.0), Uncertain(2.0))
        with pytest.raises(ZeroDivisionError):
            u.sample(rng)


class TestValidationSurface:
    def test_uncertain_truthiness_error_is_actionable(self):
        with pytest.raises(TypeError) as excinfo:
            bool(Uncertain(Gaussian(0, 1)))
        assert "compare" in str(excinfo.value)

    def test_expected_value_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Uncertain(Gaussian(0, 1)).expected_value(-5)

    def test_histogram_of_object_samples_fails_loudly(self, rng):
        objects = Uncertain(lambda r: object())
        with pytest.raises((TypeError, ValueError)):
            objects.histogram(10, 100, rng)
