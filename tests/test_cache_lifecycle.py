"""Cache-lifecycle audit: ``evaluate.clear_caches()`` leaves no residue.

Three process-global caches accumulate state across evaluations — the
per-root compiled-plan cache, the structural plan LRU (whose shape entries
hold the fused kernels), and the cross-query sample ledger.  One call must
clear them all, and clearing must not leak entries *between* caches (a
plan surviving in one cache must not resurrect stale entries in another).
"""

import numpy as np
import pytest

from repro import evaluate
from repro.core.conditionals import evaluation_config
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform
from repro.runtime import stats

# A shape's first fused draw builds its kernel, so one draw fills every cache.
pytestmark = pytest.mark.usefixtures("hot_kernels")


def _populate():
    """Touch every cache: compile, structurally share, fuse, and ledger."""
    u = Uncertain(Gaussian(5.0, 2.0)) * 1.5 + 3.0
    v = Uncertain(Gaussian(0.0, 1.0)) + Uncertain(Uniform(0.0, 1.0))
    with evaluation_config(engine="fused", sample_cache=True):
        u.samples(100, rng=1)
        v.samples(100, rng=2)
    return u, v


class TestClearCaches:
    def test_every_cache_is_emptied(self):
        u, _ = _populate()
        before = stats()
        assert before["plans"]["cached"] > 0
        assert before["ledger"]["entries"] > 0
        assert before["structural"]["kernels"] > 0

        evaluate.clear_caches()

        after = stats()
        assert after["plans"]["cached"] == 0
        assert after["structural"]["entries"] == 0
        assert after["structural"]["kernels"] == 0
        assert after["ledger"]["entries"] == 0
        assert after["ledger"]["bytes"] == 0

    def test_no_cross_cache_leak_after_clear(self):
        u, v = _populate()
        evaluate.clear_caches()
        # Fresh evaluation after the purge rebuilds everything from
        # scratch and stays bit-identical — no cache held a stale entry
        # another cache could resurrect.
        with evaluation_config(engine="fused", sample_cache=True):
            a = u.samples(100, rng=1)
        evaluate.clear_caches()
        with evaluation_config(engine="fused", sample_cache=True):
            b = u.samples(100, rng=1)
        assert np.array_equal(a, b)
        evaluate.clear_caches()

    def test_clear_caches_is_idempotent(self):
        evaluate.clear_caches()
        evaluate.clear_caches()
        assert stats()["plans"]["cached"] == 0
        assert stats()["ledger"]["entries"] == 0

    def test_exported_from_facade(self):
        assert "clear_caches" in evaluate.__all__
