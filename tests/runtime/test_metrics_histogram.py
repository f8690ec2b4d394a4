"""Latency histogram bucket math and the Prometheus text exposition.

The service tier's observability rests on two claims tested directly
here: (1) the bounded-bucket histogram reconstructs p50/p99 from its
counters alone, with error bounded by bucket width; (2) the Prometheus
renderer emits well-formed ``histogram`` series (cumulative buckets, a
mandatory ``le="+Inf"``, ``_sum``/``_count``) for every engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    LatencyHistogram,
    RuntimeMetrics,
    render_histogram,
    render_prometheus,
)


class TestBucketMath:
    def test_observations_land_in_inclusive_upper_bound_bucket(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        hist.observe(1.0)   # le=1 bucket (inclusive upper edge)
        hist.observe(1.5)   # le=2
        hist.observe(2.0)   # le=2
        hist.observe(3.0)   # le=4
        hist.observe(9.0)   # overflow
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.5)

    def test_cumulative_counts(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 100.0):
            hist.observe(v)
        d = hist.as_dict()
        assert d["cumulative"] == [1, 3, 4]  # le=1, le=2, le=4
        assert d["count"] == 5               # the +Inf bucket

    def test_quantile_interpolates_within_bucket(self):
        # 10 observations, all in the (1, 2] bucket: the q-quantile walks
        # linearly across that bucket — the histogram_quantile estimator.
        hist = LatencyHistogram(bounds=(1.0, 2.0))
        for _ in range(10):
            hist.observe(1.5)
        assert hist.quantile(0.5) == pytest.approx(1.5)   # 5/10 through
        assert hist.quantile(1.0) == pytest.approx(2.0)   # bucket upper edge
        assert hist.quantile(0.1) == pytest.approx(1.1)

    def test_quantile_spans_buckets(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(50):
            hist.observe(0.5)   # le=1
        for _ in range(50):
            hist.observe(3.0)   # le=4
        # p50 falls exactly at the end of the first bucket.
        assert hist.quantile(0.5) == pytest.approx(1.0)
        # p75 is halfway through the (2, 4] bucket's 50 observations.
        assert hist.quantile(0.75) == pytest.approx(3.0)

    def test_overflow_clamps_to_last_bound(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0))
        for _ in range(10):
            hist.observe(50.0)
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_empty_histogram_is_nan(self):
        hist = LatencyHistogram()
        assert math.isnan(hist.quantile(0.5))
        assert hist.as_dict()["p50"] is None

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(0.0, 1.0))

    def test_default_bounds_cover_service_range(self):
        # 100 microseconds to 30 seconds: the window the service serves in.
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BOUNDS[-1] == pytest.approx(30.0)

    def test_quantile_accuracy_against_numpy(self):
        # End-to-end sanity: on a realistic latency sample the bucketed
        # estimate lands within one bucket of the exact quantile.
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-5.0, sigma=1.0, size=10_000)
        hist = LatencyHistogram()
        for v in values:
            hist.observe(float(v))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            est = hist.quantile(q)
            idx = next(
                i for i, b in enumerate(DEFAULT_LATENCY_BOUNDS) if exact <= b
            )
            lower = DEFAULT_LATENCY_BOUNDS[idx - 1] if idx else 0.0
            assert lower <= est <= DEFAULT_LATENCY_BOUNDS[idx]


class TestEngineLatencyIntegration:
    def test_record_engine_feeds_histogram(self):
        metrics = RuntimeMetrics()
        metrics.record_engine("numpy", 1000, 0.004)
        metrics.record_engine("numpy", 1000, 0.006)
        snap = metrics.snapshot()
        latency = snap["engines"]["numpy"]["latency"]
        assert latency["count"] == 2
        assert latency["sum"] == pytest.approx(0.010)
        assert latency["p50"] > 0

    def test_engine_draws_populate_latency(self):
        # A real draw through an engine lands in that engine's histogram.
        import repro
        from repro.dists import Gaussian

        metrics = RuntimeMetrics()
        value = repro.uncertain(Gaussian(0.0, 1.0))
        with repro.evaluation_config(metrics=metrics, rng=0, engine="numpy"):
            value.samples(256)
        snap = metrics.snapshot()
        assert snap["engines"]["numpy"]["latency"]["count"] >= 1


class TestPrometheusRendering:
    def _histogram(self):
        hist = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(5.0)
        return hist

    def test_render_histogram_series(self):
        lines = render_histogram("x_seconds", self._histogram().as_dict())
        assert 'x_seconds_bucket{le="0.001"} 1' in lines
        assert 'x_seconds_bucket{le="0.1"} 2' in lines
        assert 'x_seconds_bucket{le="+Inf"} 3' in lines
        assert any(line.startswith("x_seconds_sum") for line in lines)
        assert "x_seconds_count 3" in lines

    def test_render_histogram_carries_labels(self):
        lines = render_histogram(
            "x_seconds", self._histogram().as_dict(), labels={"kind": "pr"}
        )
        assert 'x_seconds_bucket{kind="pr",le="+Inf"} 3' in lines
        assert 'x_seconds_count{kind="pr"} 3' in lines

    def test_snapshot_renders_engine_labels(self):
        metrics = RuntimeMetrics()
        metrics.record_engine("fused", 4096, 0.002)
        text = render_prometheus(metrics.snapshot())
        assert 'repro_engine_samples{engine="fused"} 4096' in text
        assert 'repro_engine_latency_seconds_bucket{engine="fused",le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_full_snapshot_renders_every_section(self):
        metrics = RuntimeMetrics()
        metrics.record_engine("numpy", 10, 0.001)
        text = render_prometheus(metrics.snapshot())
        assert "repro_plans_" in text
        # No malformed lines: every non-comment line is "name[{labels}] value".
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name, line
            float(value)  # parses as a number

    def test_each_family_is_contiguous_and_typed_once(self):
        # The exposition format requires all samples of one metric family
        # in one group, under at most one TYPE line.  Two engines used to
        # interleave the per-engine families.  The service's whole
        # /metrics body (its own families, then the runtime's counters and
        # cache state) must hold to the same rule.
        import asyncio

        import repro
        from repro.dists import Gaussian
        from repro.service import Service

        metrics = RuntimeMetrics()
        value = repro.uncertain(Gaussian(0.0, 1.0)) + 1.0
        for engine in ("numpy", "interpreter"):
            with repro.evaluation_config(metrics=metrics, engine=engine, rng=0):
                value.samples(64)
        assert set(metrics.snapshot()["engines"]) == {"numpy", "interpreter"}

        async def service_body():
            async with Service(engine="numpy") as svc:
                await svc.samples(value, 16, seed=1)
                await svc.expected_value(value, samples=64)  # via the ledger
                return svc.render_metrics()

        with repro.evaluation_config(sample_cache=True):
            body = asyncio.run(service_body())
        for text in (render_prometheus(metrics.snapshot()), body):
            self._assert_families_contiguous(text)

    @staticmethod
    def _assert_families_contiguous(text: str) -> None:
        typed: dict[str, str] = {}
        families: list[str] = []
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(" ")
                assert family not in typed, f"second TYPE line for {family}"
                typed[family] = kind
                families.append(family)
                continue
            if line.startswith("#"):  # HELP text precedes its TYPE line
                continue
            name = line.split("{")[0].split(" ")[0]
            stem = name.rsplit("_", 1)[0]
            if typed.get(stem) == "histogram" and name.endswith(
                ("_bucket", "_sum", "_count")
            ):
                name = stem
            families.append(name)
        runs = [f for i, f in enumerate(families) if i == 0 or f != families[i - 1]]
        split = {f for f in runs if runs.count(f) > 1}
        assert not split, f"families split into several groups: {sorted(split)}"
