"""Brownout degradation: the controller, the determinism contract, shedding.

The key property: degradation changes *how many* samples answer a
request, never *which* stream they come from.  A seeded request answered
at level k is bit-identical to solo evaluation of the same request with
``samples=effective`` at level 0.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Uncertain
from repro.dists import Gaussian
from repro.service import (
    BrownoutController,
    QueryRequest,
    Service,
    ServiceOverloaded,
    evaluate_request,
)
from repro.service.degradation import (
    DEFAULT_LEVELS,
    NO_DEGRADATION,
    DegradationDecision,
)
from repro.service.errors import BulkheadRejected


def speed_query() -> Uncertain:
    east = Uncertain(Gaussian(4.0, 1.0))
    north = Uncertain(Gaussian(4.0, 1.0))
    return (east * east + north * north) ** 0.5


def run(coro):
    return asyncio.run(coro)


def controller(**overrides) -> "tuple[BrownoutController, list[float]]":
    """A controller on a fake clock; advance time via the returned cell."""
    t = [0.0]
    defaults = dict(
        high_watermark=0.75,
        low_watermark=0.25,
        escalate_hold_s=1.0,
        recover_hold_s=5.0,
        clock=lambda: t[0],
    )
    defaults.update(overrides)
    return BrownoutController(**defaults), t


class TestBrownoutController:
    def test_escalates_one_level_per_dwell_under_pressure(self):
        ctl, t = controller()
        assert ctl.observe(80, 100) == 1  # first escalation is immediate
        assert ctl.observe(95, 100) == 1  # within the dwell: held
        t[0] = 1.0
        assert ctl.observe(95, 100) == 2
        t[0] = 2.0
        assert ctl.observe(95, 100) == 3
        t[0] = 3.0
        assert ctl.observe(100, 100) == 3  # already at max level
        assert ctl.at_max_level
        assert ctl.snapshot()["escalations"] == 3

    def test_hysteresis_band_holds_the_level(self):
        ctl, t = controller()
        ctl.observe(80, 100)
        assert ctl.level == 1
        for step in range(1, 20):
            t[0] = step * 10.0  # far beyond any hold time
            ctl.observe(50, 100)  # mid-band pressure
        assert ctl.level == 1

    def test_recovers_one_level_per_calm_hold(self):
        ctl, t = controller()
        ctl.observe(80, 100)
        t[0] = 1.0
        ctl.observe(80, 100)
        assert ctl.level == 2
        t[0] = 2.0
        ctl.observe(10, 100)  # calm starts; no instant recovery
        assert ctl.level == 2
        t[0] = 6.9  # 4.9s calm < recover_hold_s
        ctl.observe(10, 100)
        assert ctl.level == 2
        t[0] = 7.1
        assert ctl.observe(10, 100) == 1  # one step after a full hold
        t[0] = 12.2  # calm timer restarted at the recovery (7.1)
        ctl.observe(10, 100)  # second calm hold, second step
        assert ctl.level == 0
        assert ctl.snapshot()["recoveries"] == 2

    def test_pressure_spike_resets_the_calm_timer(self):
        ctl, t = controller()
        ctl.observe(80, 100)
        t[0] = 2.0
        ctl.observe(10, 100)  # calm begins
        t[0] = 4.0
        ctl.observe(50, 100)  # mid-band: calm timer resets
        t[0] = 8.0  # 6s since first calm, but only 4s since reset...
        ctl.observe(10, 100)  # ...and this restarts the timer again
        assert ctl.level == 1
        t[0] = 13.1
        ctl.observe(10, 100)
        assert ctl.level == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="factor 1.0"):
            BrownoutController(levels=(0.5, 0.25))
        with pytest.raises(ValueError, match="strictly decrease"):
            BrownoutController(levels=(1.0, 0.5, 0.5))
        with pytest.raises(ValueError, match="watermarks"):
            BrownoutController(high_watermark=0.2, low_watermark=0.4)
        with pytest.raises(ValueError, match="min_samples"):
            BrownoutController(min_samples=0)

    def test_snapshot_shape(self):
        ctl, _ = controller()
        snap = ctl.snapshot()
        assert snap == {
            "level": 0,
            "max_level": len(DEFAULT_LEVELS) - 1,
            "factor": 1.0,
            "peak_level": 0,
            "escalations": 0,
            "recoveries": 0,
            "transitions": 0,
        }


class TestDegradationDecision:
    def test_effective_is_pure_in_nominal_and_level(self):
        decision = DegradationDecision(level=2, factor=0.25, min_samples=16)
        assert decision.effective(1000) == 250
        assert decision.effective(1000) == 250  # stable across calls
        assert decision.effective(40) == 16  # floored at min_samples

    def test_apply_records_provenance_only_when_degrading(self):
        decision = DegradationDecision(level=1, factor=0.5, min_samples=16)
        effective, record = decision.apply(200)
        assert effective == 100
        assert record.level == 1
        assert record.nominal_samples == 200
        assert record.effective_samples == 100
        # min_samples can swallow the whole reduction: no record then.
        assert decision.apply(16) == (16, None)

    def test_identity_decision_never_degrades(self):
        assert NO_DEGRADATION.apply(64) == (64, None)


class TestBitIdentityUnderBrownout:
    def test_degraded_seeded_request_matches_solo_at_effective_budget(self):
        # The headline determinism claim: answer at level k == solo answer
        # with samples=effective, bit for bit, for every seed.
        value = speed_query()
        decision = DegradationDecision(level=2, factor=0.25, min_samples=16)
        for seed in range(8):
            request = QueryRequest(
                value=value, kind="samples", samples=256, seed=seed
            )
            degraded = evaluate_request(
                request, engine="numpy", degrade=decision
            )
            assert degraded.degraded
            assert degraded.degradation.effective_samples == 64
            solo = evaluate_request(
                QueryRequest(value=value, kind="samples", samples=64, seed=seed),
                engine="numpy",
            )
            assert np.array_equal(degraded.value, solo.value)

    def test_degraded_batch_matches_solo_at_effective_budget(self):
        value = speed_query()
        decision = DegradationDecision(level=1, factor=0.5, min_samples=16)
        seeds = list(range(10))

        async def scenario():
            async with Service(
                engine="numpy",
                window=0.001,
                brownout=BrownoutController(),
            ) as svc:
                svc.brownout._level = 1  # pin the level for the test
                return await asyncio.gather(*[
                    svc.samples(value, 128, seed=s) for s in seeds
                ])

        results = run(scenario())
        for seed, got in zip(seeds, results):
            assert got.degraded and got.degradation.level == 1
            assert got.degradation.effective_samples == decision.effective(128)
            solo = evaluate_request(
                QueryRequest(value=value, kind="samples", samples=64, seed=seed),
                engine="numpy",
            )
            assert np.array_equal(got.value, solo.value)


class TestServiceBrownoutIntegration:
    def test_flood_degrades_before_shedding(self):
        # A tiny queue bound plus an immediate-escalation controller: the
        # flood must produce degraded answers (brownout engaged), and any
        # shed requests carry the structured overload fields.
        value = speed_query()
        ctl = BrownoutController(
            high_watermark=0.1,
            low_watermark=0.05,
            escalate_hold_s=0.0,
            recover_hold_s=60.0,
        )

        async def scenario():
            async with Service(
                engine="numpy",
                window=0.005,
                max_pending=32,
                brownout=ctl,
            ) as svc:
                return await asyncio.gather(*[
                    svc.samples(value, 256, seed=s) for s in range(32)
                ], return_exceptions=True)

        results = run(scenario())
        answered = [r for r in results if not isinstance(r, Exception)]
        assert answered, "flood must not shed everything"
        assert any(r.degraded for r in answered)
        for r in answered:
            if r.degraded:
                assert r.degradation.effective_samples < 256
                assert r.degradation.nominal_samples == 256
        assert ctl.snapshot()["peak_level"] >= 1

    def test_shed_requests_carry_structured_fields(self):
        value = speed_query()

        async def scenario():
            async with Service(
                engine="numpy", window=0.02, max_pending=4
            ) as svc:
                return await asyncio.gather(*[
                    svc.samples(value, 64, seed=s) for s in range(64)
                ], return_exceptions=True)

        results = run(scenario())
        shed = [r for r in results if isinstance(r, ServiceOverloaded)]
        assert shed, "a 16x flood over max_pending=4 must shed"
        for err in shed:
            assert err.pending == err.max_pending == 4
            assert err.retry_after_hint > 0
            assert "request shed" in str(err)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shedding_is_fifo_fair(self, workers):
        # The first max_pending submissions must never be shed: admission
        # is strictly arrival-ordered, so shed requests are exactly a
        # suffix-of-arrival set, never an early submitter starved by a
        # late one.
        value = speed_query()
        max_pending = 8

        async def scenario():
            async with Service(
                engine="numpy",
                window=0.05,  # long window: the flood lands in one batch
                max_pending=max_pending,
                workers=workers,
            ) as svc:
                outcomes = await asyncio.gather(*[
                    svc.samples(value, 32, seed=s) for s in range(48)
                ], return_exceptions=True)
            return outcomes

        outcomes = run(scenario())
        shed_idx = [
            i for i, r in enumerate(outcomes)
            if isinstance(r, ServiceOverloaded)
        ]
        assert shed_idx, "the flood must overrun max_pending"
        assert min(shed_idx) >= max_pending  # early arrivals always admitted
        for i, r in enumerate(outcomes):
            if i not in shed_idx:
                assert not isinstance(r, Exception)  # admitted => answered

    def test_stats_and_health_report_degradation(self):
        value = speed_query()
        ctl = BrownoutController(
            high_watermark=0.1,
            low_watermark=0.05,
            escalate_hold_s=0.0,
            recover_hold_s=60.0,
        )

        async def scenario():
            async with Service(
                engine="numpy",
                window=0.005,
                max_pending=32,
                brownout=ctl,
                bulkheads=True,
            ) as svc:
                await asyncio.gather(*[
                    svc.samples(value, 128, seed=s) for s in range(24)
                ], return_exceptions=True)
                return svc.stats(), svc.health()

        stats, health = run(scenario())
        section = stats["degradation"]
        assert section["degraded_requests"] > 0
        assert section["brownout"]["peak_level"] >= 1
        assert "groups" in section  # per-bulkhead breaker/occupancy states
        # After the drain the queue is empty but the level may still be
        # raised: that is the "degraded" health state.
        assert health["status"] in ("ok", "degraded")
        assert health["http"] == 200
        assert "degradation_level" in health

    def test_each_event_is_counted_exactly_once(self):
        # Every degraded answer, shed and bulkhead refusal the callers see
        # appears once in Service.stats(): no counter misses one, none
        # counts one twice.
        value = speed_query()

        async def scenario():
            async with Service(
                engine="numpy",
                window=0.005,
                max_pending=32,
                workers=2,
                brownout=True,
                bulkheads=True,
            ) as svc:
                outcomes = await asyncio.gather(*[
                    svc.samples(value, 128, seed=s) for s in range(96)
                ], return_exceptions=True)
                return outcomes, svc.stats()

        outcomes, stats = run(scenario())
        section = stats["degradation"]
        overloaded = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        bulkheaded = [o for o in overloaded if isinstance(o, BulkheadRejected)]
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        assert section["degraded_requests"] == sum(r.degraded for r in answered)
        assert section["degraded_requests"] > 0
        assert section["shed"] + section["bulkhead_rejected"] == len(overloaded)
        assert section["bulkhead_rejected"] == len(bulkheaded)
        assert stats["shed"] == section["shed"] > 0
        admitted = len(outcomes) - section["shed"]
        assert stats["requests_total"] == admitted
        assert stats["rejected"] == 0

    def test_brownout_true_builds_a_default_controller(self):
        async def scenario():
            async with Service(engine="numpy", brownout=True) as svc:
                assert isinstance(svc.brownout, BrownoutController)
                assert svc.brownout.level == 0

        run(scenario())
