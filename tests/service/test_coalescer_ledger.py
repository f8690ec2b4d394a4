"""Service × ledger: the coalescer draws as with the ledger off.

A seedless pooled draw runs on the pool's generator, so the ledger never
serves it: every flood is one fresh engine run, admitted in full, and
its answers equal the ledger-off ones.  Seeded requests run their own
streams through ``evaluate_request``, the batched-equals-solo
bit-identity contract.
"""

from __future__ import annotations

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
    evaluate_batch,
    evaluate_request,
)


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
    clear_ledger()


class TestPooledLedger:
    @staticmethod
    def _floods(sample_cache) -> tuple:
        """Two floods on one pool generator; their answers and stats."""
        value = speed_value()
        pool = default_rng(9)
        answers, stats = [], []
        with evaluation_config(sample_cache=sample_cache) as cfg:
            for _ in range(2):
                stats.append(CoalescerStats())
                out = evaluate_batch(_seedless_batch(value), engine="numpy",
                                     pool_rng=pool, stats=stats[-1])
                assert all(not isinstance(o, Exception) for o in out)
                answers.append([o.value for o in out])
            executed = cfg.accounting.samples_executed
        return answers, stats, executed

    def test_every_flood_is_one_fresh_engine_run(self):
        on, stats, _ = self._floods(True)
        off, _, _ = self._floods(False)
        assert on == off
        assert on[0] != on[1]  # the pool's generator advanced
        assert [s.engine_runs for s in stats] == [1, 1]
        assert runtime.stats()["ledger"]["entries"] == 0

    def test_every_flood_is_charged_in_full(self):
        _, stats, executed = self._floods(True)
        assert [s.samples_drawn for s in stats] == [2000, 2000]
        assert executed == 4000
        assert runtime.stats()["ledger"]["entries"] == 0

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
        assert runtime.stats()["ledger"]["entries"] == 0
        for b, s in zip(batched, solo):
            assert np.array_equal(b.value, s.value)

    def test_ledger_off_keeps_fresh_runs(self):
        value = speed_value()
        stats = CoalescerStats()
        evaluate_batch(
            _seedless_batch(value), engine="numpy",
            pool_rng=default_rng(9), stats=stats,
        )
        assert stats.engine_runs == 1
        assert runtime.stats()["ledger"]["entries"] == 0
