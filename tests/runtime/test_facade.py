"""The unified evaluation API: façade surface, v2.0 removals, engine routing."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Uncertain, evaluate, evaluation_config
from repro.core.engines import NumpyEngine, register_engine
from repro.dists import Gaussian
from repro.runtime import RuntimeMetrics


class RecordingEngine(NumpyEngine):
    """A NumpyEngine that counts how often the runtime routed through it
    and keeps the plans it ran."""

    name = "recording-test"

    def __init__(self) -> None:
        self.calls = 0
        self.samples_requested = 0
        self.plans = []

    def run(self, plan, n, rng, memo=None, release=False):
        self.calls += 1
        self.samples_requested += int(n)
        self.plans.append(plan)
        return super().run(plan, n, rng, memo, release)


@pytest.fixture()
def recording_engine():
    engine = RecordingEngine()
    register_engine(engine)
    return engine


class TestRemovedEntryPoints:
    """The v1.1-deprecated module-level samplers are gone in v2.0."""

    def test_legacy_names_removed_from_sampling(self):
        import repro.core.sampling as sampling

        for legacy in ("sample_once", "sample_batch", "execute_plan"):
            assert not hasattr(sampling, legacy), legacy

    def test_legacy_imports_fail(self):
        with pytest.raises(ImportError):
            from repro.core.sampling import sample_batch  # noqa: F401

    def test_removal_documented_in_module(self):
        import repro.core.sampling as sampling

        assert "removed" in sampling.__doc__
        assert "docs/api.md" in sampling.__doc__

    def test_blessed_paths_do_not_warn(self):
        import warnings

        value = Uncertain(Gaussian(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            value.sample(rng=0)
            value.samples(10, rng=0)
            value.expected_value(100, np.random.default_rng(0))


class TestExpectedValueAlias:
    def test_E_is_the_same_function(self):
        assert Uncertain.E is Uncertain.expected_value

    def test_E_matches_expected_value(self):
        value = Uncertain(Gaussian(3.0, 1.0))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        assert value.E(500, rng_a) == value.expected_value(500, rng_b)

    def test_adaptive_passthrough(self):
        value = Uncertain(Gaussian(3.0, 1.0))
        est = value.E(adaptive=True, rng=np.random.default_rng(6), tolerance=0.1)
        assert est == pytest.approx(3.0, abs=0.3)

    def test_adaptive_rejects_fixed_n(self):
        value = Uncertain(Gaussian(3.0, 1.0))
        with pytest.raises(TypeError):
            value.E(100, adaptive=True)

    def test_adaptive_options_require_adaptive(self):
        value = Uncertain(Gaussian(3.0, 1.0))
        with pytest.raises(TypeError):
            value.E(100, tolerance=0.1)


class TestEstimatorDefaults:
    def test_sd_and_var_use_estimator_samples(self):
        scoped = RuntimeMetrics()
        value = Uncertain(Gaussian(0.0, 2.0))
        with evaluation_config(estimator_samples=777, metrics=scoped, rng=0):
            value.sd()
            value.var()
        assert scoped.total_samples() == 2 * 777

    def test_ci_uses_ci_samples(self):
        scoped = RuntimeMetrics()
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(ci_samples=555, metrics=scoped, rng=0):
            lo, hi = value.ci(0.9)
        assert scoped.total_samples() == 555
        assert lo < 0 < hi

    def test_explicit_n_still_wins(self):
        scoped = RuntimeMetrics()
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(estimator_samples=777, metrics=scoped, rng=0):
            value.sd(n=50)
        assert scoped.total_samples() == 50

    def test_invalid_n_rejected(self):
        value = Uncertain(Gaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            value.sd(n=0)


class TestCustomEngineRouting:
    """Satellite regression: a registered engine is honoured end-to-end."""

    def test_per_call_override_on_samples(self, recording_engine):
        value = Uncertain(Gaussian(0.0, 1.0))
        out = value.samples(64, rng=0, engine="recording-test")
        assert recording_engine.calls == 1
        assert recording_engine.samples_requested == 64
        assert len(out) == 64

    def test_config_engine_routes_every_draw_path(self, recording_engine):
        value = Uncertain(Gaussian(4.0, 1.0))
        with evaluation_config(engine="recording-test", rng=0):
            value.sample()
            value.samples(32)
            bool(value > 2.0)  # SPRT batches route through it too
        assert recording_engine.calls >= 3
        assert recording_engine.samples_requested >= 33

    def test_sample_with_engine_override(self, recording_engine):
        from repro.core.sampling import SampleContext

        x = Uncertain(Gaussian(0.0, 1.0), label="X")
        y = x + 1.0
        context = SampleContext(8, rng=np.random.default_rng(0))
        xv = x.sample_with(context, engine="recording-test")
        yv = y.sample_with(context, engine="recording-test")
        assert recording_engine.calls >= 1
        # Shared context: the two roots saw one joint assignment.
        assert yv == pytest.approx(xv + 1.0)

    def test_engine_runs_the_compiled_plan(self, recording_engine):
        # The const-fold corpus plan: a constant sub-DAG no pass rewrites.
        from repro.analysis.demos import CERTIFY_CORPUS
        from repro.core.plan import compile_plan

        value = CERTIFY_CORPUS["const-fold"]()
        value.samples(16, rng=0, engine="recording-test")
        assert recording_engine.plans == [compile_plan(value.node)]
        assert recording_engine.plans[0] is value.plan

    def test_results_match_numpy_engine(self, recording_engine):
        value = Uncertain(Gaussian(0.0, 1.0)) + 2.0
        via_custom = value.samples(100, rng=9, engine="recording-test")
        via_numpy = value.samples(100, rng=9, engine="numpy")
        assert np.array_equal(via_custom, via_numpy)


class TestFacadeSurface:
    def test_evaluate_namespace_is_complete(self):
        for name in evaluate.__all__:
            assert hasattr(evaluate, name), name

    def test_config_alias(self):
        assert evaluate.config is evaluate.evaluation_config

    def test_repro_all_is_trimmed(self):
        for legacy in ("sample_once", "sample_batch", "execute_plan"):
            assert legacy not in repro.__all__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_config_carries_runtime_knobs(self):
        from repro import EvaluationConfig

        config = EvaluationConfig(
            engine="numpy", sample_budget=10, deadline=1.0, metrics=False
        )
        assert config.engine == "numpy"
        assert config.sample_budget == 10
        assert config.deadline == 1.0
        assert config.metrics is False
        assert config.accounting.token.deadline_at is not None

    def test_facade_quickstart(self):
        # The docstring's shape: configure, draw, estimate, observe.
        value = Uncertain(Gaussian(2.0, 0.5))
        with evaluate.config(engine="numpy", sample_budget=100_000, rng=0):
            draws = value.samples(1_000)
            estimate = evaluate.expected_value(value, 1_000)
        assert len(draws) == 1_000
        assert estimate == pytest.approx(2.0, abs=0.2)
        assert isinstance(evaluate.stats(), dict)
