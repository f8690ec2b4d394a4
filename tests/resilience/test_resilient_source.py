"""ResilientSource: retries, backoff, breaker trips, recovery probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SourceFailure
from repro.dists import Gaussian
from repro.dists.base import Distribution
from repro.resilience import CircuitBreaker, ResilientSource
from repro.resilience.source import CLOSED, OPEN
from repro.runtime.metrics import RuntimeMetrics
from repro.core.conditionals import evaluation_config


class Flaky(Distribution):
    """Fails on scripted call indices (1-based); samples N(0,1) otherwise."""

    def __init__(self, fail_calls=(), exc=RuntimeError) -> None:
        self.fail_calls = set(fail_calls)
        self.exc = exc
        self.calls = 0

    def sample_n(self, n, rng):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise self.exc(f"scripted failure on call {self.calls}")
        return rng.normal(0.0, 1.0, size=n)


class AlwaysFailing(Distribution):
    def __init__(self) -> None:
        self.calls = 0

    def sample_n(self, n, rng):
        self.calls += 1
        raise RuntimeError("permanently down")


class TestRetries:
    def test_transient_failure_is_retried_transparently(self):
        primary = Flaky(fail_calls={1})
        source = ResilientSource(primary, max_retries=2)
        out = source.sample_n(8, np.random.default_rng(0))
        assert len(out) == 8
        assert source.retries == 1
        assert primary.calls == 2

    def test_exhausted_retries_without_fallback_raise(self):
        source = ResilientSource(AlwaysFailing(), max_retries=2)
        with pytest.raises(SourceFailure, match="failed 3 time"):
            source.sample_n(8, np.random.default_rng(0))

    def test_exhausted_retries_serve_fallback(self):
        source = ResilientSource(
            AlwaysFailing(), fallback=Gaussian(10.0, 0.1), max_retries=1
        )
        out = source.sample_n(100, np.random.default_rng(0))
        assert np.mean(out) == pytest.approx(10.0, abs=0.2)
        assert source.fallback_draws == 1

    def test_unmatched_exception_types_propagate(self):
        primary = Flaky(fail_calls={1}, exc=KeyError)
        source = ResilientSource(primary, failure_types=(ValueError,))
        with pytest.raises(KeyError):
            source.sample_n(8, np.random.default_rng(0))
        assert source.retries == 0

    def test_backoff_delays_are_seed_deterministic(self):
        def delays_for(seed):
            recorded = []
            source = ResilientSource(
                Flaky(fail_calls={1, 2, 3}),
                max_retries=3,
                backoff_s=0.1,
                jitter=0.5,
                seed=seed,
                sleep=recorded.append,
            )
            source.sample_n(4, np.random.default_rng(0))
            return recorded

        a, b = delays_for(7), delays_for(7)
        assert a == b
        assert len(a) == 3
        # Exponential: each base delay doubles; jitter only inflates.
        assert 0.1 <= a[0] <= 0.15 and 0.2 <= a[1] <= 0.3

    def test_sample_stream_unperturbed_by_retries(self):
        # A retried source draws the same samples a clean one would have:
        # the jitter generator is separate from the sampling generator.
        clean = ResilientSource(Flaky()).sample_n(64, np.random.default_rng(3))
        flaky = ResilientSource(Flaky(fail_calls={1}), max_retries=1).sample_n(
            64, np.random.default_rng(3)
        )
        assert np.array_equal(clean, flaky)


class TestCircuitBreaker:
    def make(self, **kwargs):
        defaults = dict(window=8, failure_threshold=0.5, min_calls=2,
                        recovery_calls=3)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_trips_after_failure_fraction(self):
        breaker = self.make()
        breaker.record_failure()
        assert breaker.state == CLOSED  # below min_calls
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_open_breaker_skips_primary_until_recovery(self):
        primary = AlwaysFailing()
        breaker = self.make()
        source = ResilientSource(
            primary, fallback=Gaussian(0.0, 1.0), max_retries=0, breaker=breaker
        )
        rng = np.random.default_rng(0)
        source.sample_n(4, rng)  # fail -> outcome 1
        source.sample_n(4, rng)  # fail -> trips
        assert breaker.state == OPEN
        calls_when_tripped = primary.calls
        source.sample_n(4, rng)  # degraded, no primary touch
        source.sample_n(4, rng)
        assert primary.calls == calls_when_tripped
        assert source.fallback_draws >= 2

    def test_half_open_probe_recovers(self):
        primary = Flaky(fail_calls={1, 2})  # heals from call 3 on
        breaker = self.make(recovery_calls=2)
        source = ResilientSource(
            primary, fallback=Gaussian(0.0, 1.0), max_retries=0, breaker=breaker
        )
        rng = np.random.default_rng(0)
        source.sample_n(4, rng)
        source.sample_n(4, rng)
        assert breaker.state == OPEN
        source.sample_n(4, rng)  # degraded draw 1
        source.sample_n(4, rng)  # degraded draw 2 -> HALF_OPEN probe -> success
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1

    def test_failed_probe_reopens(self):
        primary = AlwaysFailing()
        breaker = self.make(recovery_calls=2)
        source = ResilientSource(
            primary, fallback=Gaussian(0.0, 1.0), max_retries=0, breaker=breaker
        )
        rng = np.random.default_rng(0)
        source.sample_n(4, rng)
        source.sample_n(4, rng)
        assert breaker.state == OPEN
        source.sample_n(4, rng)
        probe_calls = primary.calls
        out = source.sample_n(4, rng)  # HALF_OPEN probe fails -> degraded
        assert primary.calls == probe_calls + 1
        assert breaker.state == OPEN
        assert len(out) == 4

    def test_breaker_is_call_count_based_and_reproducible(self):
        def run():
            breaker = self.make(recovery_calls=2)
            source = ResilientSource(
                Flaky(fail_calls={1, 2, 4}),
                fallback=Gaussian(0.0, 1.0),
                max_retries=0,
                breaker=breaker,
            )
            rng = np.random.default_rng(9)
            batches = [source.sample_n(4, rng) for _ in range(8)]
            return (
                breaker.state,
                breaker.trips,
                breaker.recoveries,
                source.fallback_draws,
                np.concatenate(batches),
            )

        a, b = run(), run()
        assert a[:4] == b[:4]
        assert np.array_equal(a[4], b[4])

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            ResilientSource(Gaussian(0, 1), max_retries=-1)


class TestIntegration:
    def test_metrics_counters(self):
        sink = RuntimeMetrics()
        with evaluation_config(metrics=sink):
            breaker = CircuitBreaker(window=4, min_calls=2, recovery_calls=2)
            source = ResilientSource(
                AlwaysFailing(),
                fallback=Gaussian(0.0, 1.0),
                max_retries=1,
                breaker=breaker,
            )
            rng = np.random.default_rng(0)
            for _ in range(4):
                source.sample_n(4, rng)
        stats = sink.snapshot()["sources"]
        assert stats["failures"] > 0
        assert stats["retries"] > 0
        assert stats["fallbacks"] > 0
        assert stats["breaker_trips"] == 1

    def test_bulkhead_trips_are_not_source_trips(self):
        from repro.service.degradation import BulkheadRegistry

        sink = RuntimeMetrics()
        with evaluation_config(metrics=sink):
            bulkhead = BulkheadRegistry(
                breaker_factory=lambda: CircuitBreaker(
                    window=4, min_calls=2, recovery_calls=1
                )
            ).get("group")
            for outcome in (False, False, None, True):
                assert bulkhead.try_enter() is None
                bulkhead.exit(outcome)
        assert bulkhead.breaker.trips == 1
        assert bulkhead.breaker.recoveries == 1
        stats = sink.snapshot()["sources"]
        assert stats["breaker_trips"] == 0
        assert stats["breaker_recoveries"] == 0

    def test_distribution_resilient_convenience(self):
        source = Gaussian(5.0, 1.0).resilient(max_retries=1)
        assert isinstance(source, ResilientSource)
        out = source.sample_n(50, np.random.default_rng(1))
        assert np.mean(out) == pytest.approx(5.0, abs=0.6)

    def test_callable_primary_is_coerced(self):
        source = ResilientSource(lambda rng: rng.normal())
        out = source.sample_n(10, np.random.default_rng(0))
        assert len(out) == 10

    def test_usable_as_uncertain_leaf(self):
        from repro import Uncertain

        primary = Flaky(fail_calls={1})
        value = Uncertain(ResilientSource(primary, max_retries=1)) + 1.0
        samples = value.samples(32, rng=2)
        assert len(samples) == 32
        assert primary.calls >= 2


class TestGpsDemonstration:
    def test_dropout_prone_sensor_degrades_to_last_fix(self):
        from repro.gps.geo import GeoCoordinate
        from repro.gps.sensor import GpsDropout, GpsSensor

        home = GeoCoordinate(47.6, -122.3)
        sensor = GpsSensor(4.0, rng=np.random.default_rng(1))
        good_fix = sensor.measure(home, 0.0)
        sensor.dropout_probability = 0.999  # signal essentially gone
        loc = sensor.resilient_location(home, 1.0, max_retries=1)
        points = loc.samples(64, rng=7)
        assert len(points) == 64
        # Degraded samples centre on the last good fix, not on nothing.
        lat = np.mean([p.latitude for p in points])
        assert lat == pytest.approx(good_fix.coordinate.latitude, abs=1e-3)
        assert loc.node.dist.fallback_draws >= 1

        # With no fix ever seen the fallback has nothing to serve.
        fresh = GpsSensor(4.0, rng=np.random.default_rng(2),
                          dropout_probability=0.999)
        barren = fresh.resilient_location(home, 0.0, max_retries=1)
        with pytest.raises(GpsDropout, match="no previous fix"):
            barren.samples(8, rng=0)

    def test_zero_dropout_sensor_stream_is_unchanged(self):
        from repro.gps.geo import GeoCoordinate
        from repro.gps.sensor import GpsSensor

        home = GeoCoordinate(47.6, -122.3)
        # dropout_probability=0 must consume no extra randomness, so the
        # fix stream is bit-identical to a sensor without the feature.
        a = GpsSensor(4.0, rng=np.random.default_rng(5))
        b = GpsSensor(4.0, rng=np.random.default_rng(5), dropout_probability=0.0)
        for t in range(5):
            fa, fb = a.measure(home, float(t)), b.measure(home, float(t))
            assert fa.coordinate.latitude == fb.coordinate.latitude
            assert fa.coordinate.longitude == fb.coordinate.longitude
