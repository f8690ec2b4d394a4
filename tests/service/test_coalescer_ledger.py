"""Service × ledger: pooled seedless floods reuse cached sample columns.

The coalescer's seedless pooled path is the service-side analogue of the
analyst session — the same-shape flood arrives again and again.  With
``sample_cache`` on, the second flood must be served from the ledger
(zero engine runs), while seeded requests keep bypassing the ledger so
their batched-equals-solo bit-identity contract stays intact.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Uncertain, runtime
from repro.core.conditionals import evaluation_config
from repro.core.ledger import clear_ledger
from repro.dists import Gaussian
from repro.rng import default_rng
from repro.service import (
    CoalescerStats,
    QueryRequest,
    Service,
    evaluate_batch,
    evaluate_request,
)
from tests.ledger_checks import assert_ledger_consistent


def speed_value() -> Uncertain:
    return Uncertain(Gaussian(4.0, 1.0)) * 1.5 + 3.0


def _seedless_batch(value, n_requests=4, samples=500):
    return [
        QueryRequest(value=value, kind="expected_value", samples=samples)
        for _ in range(n_requests)
    ]


@pytest.fixture(autouse=True)
def _fresh_ledger():
    clear_ledger()
    yield
    assert_ledger_consistent()
    clear_ledger()


class TestPooledLedger:
    def test_second_flood_served_from_ledger(self):
        value = speed_value()
        with evaluation_config(sample_cache=True):
            first = CoalescerStats()
            out1 = evaluate_batch(
                _seedless_batch(value), engine="numpy",
                pool_rng=default_rng(9), stats=first,
            )
            second = CoalescerStats()
            out2 = evaluate_batch(
                _seedless_batch(value), engine="numpy",
                pool_rng=default_rng(9), stats=second,
            )
        assert all(not isinstance(o, Exception) for o in out1 + out2)
        # First flood filled the ledger (one engine run); the second is
        # answered entirely from it.
        assert second.engine_runs == 0
        assert second.ledger_served == 2000
        assert second.samples_drawn == 0
        # Same pooled stream start, same rows: identical answers.
        assert [o.value for o in out1] == [o.value for o in out2]
        assert runtime.stats()["ledger"]["entries"] == 1

    def test_seeded_requests_keep_solo_bit_identity(self):
        value = speed_value()
        reqs = [
            QueryRequest(value=value, kind="samples", samples=64, seed=s)
            for s in (1, 2, 3)
        ]
        with evaluation_config(sample_cache=True):
            stats = CoalescerStats()
            batched = evaluate_batch(reqs, engine="numpy", stats=stats)
            solo = [evaluate_request(r, engine="numpy") for r in reqs]
        assert stats.ledger_served == 0  # seeded streams bypass the ledger
        for b, s in zip(batched, solo):
            assert np.array_equal(b.value, s.value)

    def test_ledger_off_keeps_fresh_runs(self):
        value = speed_value()
        stats = CoalescerStats()
        evaluate_batch(
            _seedless_batch(value), engine="numpy",
            pool_rng=default_rng(9), stats=stats,
        )
        assert stats.ledger_served == 0
        assert stats.engine_runs == 1
        assert runtime.stats()["ledger"]["entries"] == 0

    def test_budget_charged_once_for_repeated_floods(self):
        value = speed_value()
        with evaluation_config(sample_cache=True) as cfg:
            for _ in range(3):
                out = evaluate_batch(
                    _seedless_batch(value), engine="numpy",
                    pool_rng=default_rng(9),
                )
                assert all(not isinstance(o, Exception) for o in out)
            # 4 requests x 500 samples, paid exactly once.
            assert cfg.accounting.samples_executed == 2000

    def test_service_reports_ledger_served(self):
        value = speed_value()

        async def scenario():
            async with Service(engine="numpy", pool_seed=9) as svc:
                for _ in range(2):
                    await asyncio.gather(*(
                        svc.expected_value(value, samples=500)
                        for _ in range(4)
                    ))
                return svc.stats(), svc.render_metrics()

        with evaluation_config(sample_cache=True):
            stats, text = asyncio.run(scenario())
        assert stats["ledger_served"] > 0
        assert (
            f"repro_service_ledger_served_total {stats['ledger_served']}"
            in text.splitlines()
        )
