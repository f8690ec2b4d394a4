"""Runtime metrics and span tracing: recording, scoping, export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Uncertain, evaluation_config, runtime
from repro.core.plan import clear_plan_cache
from repro.dists import Gaussian
from repro.runtime import RuntimeMetrics, Tracer, tracing
from repro.runtime.metrics import METRICS, active


@pytest.fixture(autouse=True)
def fresh_stats():
    runtime.reset_stats()
    yield
    runtime.reset_stats()


class TestStatsAfterExperiments:
    def test_fig09_and_a_conditional_populate_the_counters(self):
        from repro.experiments import fig09_evidence

        clear_plan_cache()  # force real compiles so the counter must move
        runtime.reset_stats()
        result = fig09_evidence.run(fast=True)
        assert result.claims  # the experiment itself still passes

        speed = Uncertain(Gaussian(5.0, 1.0))
        with evaluation_config(rng=np.random.default_rng(0)):
            assert bool(speed > 2.0)  # implicit conditional -> SPRT

        stats = runtime.stats()
        assert stats["plans"]["compiled"] > 0
        assert sum(e["samples"] for e in stats["engines"].values()) > 0
        assert stats["tests"]["runs"] >= 1
        assert stats["tests"]["sprt_steps"] > 0
        assert stats["tests"]["samples"] > 0
        assert stats["conditionals"]["runs"] >= 1

    def test_expectation_counters(self):
        value = Uncertain(Gaussian(1.0, 1.0))
        value.expected_value(500, np.random.default_rng(1))
        value.expected_value(adaptive=True, rng=np.random.default_rng(2))
        stats = runtime.stats()
        assert stats["expectations"]["runs"] == 2
        assert stats["expectations"]["adaptive_runs"] == 1
        assert stats["expectations"]["samples"] >= 500

    def test_plan_cache_hits_are_distinguished_from_compiles(self):
        from repro.core.plan import compile_plan

        value = Uncertain(Gaussian(0.0, 1.0)) + 1.0
        value.samples(10, rng=0)
        compiled_before = runtime.stats()["plans"]["compiled"]
        # Recompiling the same root serves the per-root cache, not a build.
        assert compile_plan(value.node) is value.plan
        stats = runtime.stats()
        assert stats["plans"]["compiled"] == compiled_before
        assert stats["plans"]["cache_hits"] >= 1


class TestMetricsScoping:
    def test_metrics_false_disables_recording(self):
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(metrics=False):
            assert active() is None
            value.samples(100, rng=0)
        assert runtime.stats()["engines"] == {}

    def test_metrics_instance_scopes_recording(self):
        scoped = RuntimeMetrics()
        value = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(metrics=scoped):
            assert active() is scoped
            value.samples(123, rng=0)
        # The draw landed on the scoped instance, not the global registry.
        assert scoped.total_samples() == 123
        assert METRICS.total_samples() == 0

    def test_reset_stats_zeroes_everything(self):
        # Every counter; the caches' state is not a counter and stays.
        Uncertain(Gaussian(0.0, 1.0)).samples(50, rng=0)
        assert METRICS.snapshot() != RuntimeMetrics().snapshot()
        runtime.reset_stats()
        assert METRICS.snapshot() == RuntimeMetrics().snapshot()

    def test_reset_stats_keeps_the_cache_state(self):
        value = Uncertain(Gaussian(0.0, 1.0)) + 1.0
        value.samples(50, rng=0)
        before = runtime.stats()
        runtime.reset_stats()
        after = runtime.stats()
        assert after["plans"]["compiled"] == 0
        assert after["plans"]["cached"] == before["plans"]["cached"] >= 1
        assert after["structural"] == before["structural"]
        assert after["structural"]["entries"] >= 1

    def test_parallel_counters(self):
        from repro.runtime.parallel import ParallelEngine

        value = Uncertain(Gaussian(0.0, 1.0)) + 0.0
        engine = ParallelEngine(workers=1, chunk_size=256)
        try:
            # sample() (not run()) is the instrumented entry point.
            engine.sample(value.plan, 1_024, np.random.default_rng(0))
        finally:
            engine.shutdown()
        stats = runtime.stats()
        assert stats["parallel"]["chunks"] == 4
        assert stats["engines"]["parallel"]["samples"] == 1_024


class TestTracing:
    def test_engine_spans_are_recorded(self):
        value = Uncertain(Gaussian(0.0, 1.0)) + 1.0
        with tracing() as tracer:
            value.samples(200, rng=0)
        names = [span.name for span in tracer.spans]
        assert "engine.numpy.sample" in names
        span = next(s for s in tracer.spans if s.name == "engine.numpy.sample")
        assert span.attrs["n"] == 200
        assert span.duration >= 0.0

    def test_test_spans_nest_engine_spans(self):
        value = Uncertain(Gaussian(5.0, 1.0))
        with tracing() as tracer:
            with evaluation_config(rng=np.random.default_rng(0)):
                bool(value > 2.0)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, span)
        test_span = next(
            s for n, s in by_name.items() if n.startswith("test.")
        )
        engine_span = by_name["engine.numpy.sample"]
        assert engine_span.parent == test_span.id
        assert test_span.attrs["steps"] >= 1
        assert "decision" in test_span.attrs

    def test_to_json_schema_and_export(self, tmp_path):
        value = Uncertain(Gaussian(0.0, 1.0))
        with tracing() as tracer:
            value.samples(10, rng=0)
        doc = json.loads(tracer.to_json())
        assert doc["schema"] == "repro.trace/1"
        assert doc["spans"]
        for span in doc["spans"]:
            assert set(span) == {"id", "parent", "name", "start", "duration", "attrs"}

        path = tmp_path / "trace.json"
        tracer.export(path)
        assert json.loads(path.read_text()) == doc

    def test_tracing_scope_restores_previous_tracer(self):
        from repro.runtime import set_tracer
        from repro.runtime.trace import get_tracer

        outer = Tracer()
        set_tracer(outer)
        try:
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer
        finally:
            set_tracer(None)

    def test_tracing_off_records_nothing(self):
        tracer = Tracer()
        Uncertain(Gaussian(0.0, 1.0)).samples(10, rng=0)
        assert len(tracer) == 0
