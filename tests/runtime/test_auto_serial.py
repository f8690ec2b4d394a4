"""ParallelEngine on single-CPU hosts.

``workers=None`` resolves from ``os.cpu_count()``; when that is 1 there
is nothing to parallelise across, so every batch takes the in-process
path (same chunk-seeded stream) and no pool is built.
"""

import warnings
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.rng import default_rng
from repro.runtime import parallel as parallel_mod
from repro.runtime.parallel import ParallelEngine
from tests.runtime.test_parallel_engine import InProcessPool


@pytest.fixture
def single_cpu(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)


@pytest.fixture
def plan():
    u = Uncertain(Gaussian(5.0, 2.0)) * 1.5
    return compile_plan(u.node)


def _run(engine, plan, n=10_000, seed=3):
    root = engine.run(plan, n, default_rng(seed))[plan.root_slot]
    return np.asarray(root)


class TestAutoSerial:
    def test_degrades_without_building_a_pool(self, single_cpu, plan):
        engine = ParallelEngine(chunk_size=2048)
        assert engine.workers == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the in-process path is silent
            _run(engine, plan)
        assert engine._executor is None  # never paid pool construction

    def test_stream_matches_explicit_workers(self, single_cpu, plan):
        auto = ParallelEngine(chunk_size=2048)
        explicit = ParallelEngine(workers=1, chunk_size=2048)
        assert np.array_equal(_run(auto, plan), _run(explicit, plan))

    def test_multi_cpu_default_keeps_the_pool_path(self, monkeypatch, plan):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", lambda **_: InProcessPool(None)
        )
        monkeypatch.setattr(parallel_mod, "_worker_plans", OrderedDict())
        engine = ParallelEngine(chunk_size=2048)
        assert engine.workers == 8
        pooled = _run(engine, plan)
        assert isinstance(engine._executor, InProcessPool)
        serial = ParallelEngine(workers=1, chunk_size=2048)
        assert np.array_equal(pooled, _run(serial, plan))
