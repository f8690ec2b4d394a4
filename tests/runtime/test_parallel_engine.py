"""Determinism and failure-handling suite for the parallel sampling runtime.

The contract under test (docs/runtime.md):

- ``ParallelEngine(workers=k).run(plan, n, seed)`` is bit-identical for
  every ``k`` — chunk boundaries and chunk seeds depend only on
  ``(n, chunk_size, seed)``, never on the worker count;
- the stream is reproducible serially by running ``NumpyEngine`` chunk by
  chunk over the same layout and spawned seeds;
- a crashed worker poisons the pool, unfinished chunks are retried once on
  a fresh pool, and a second crash surfaces as ``SamplingError``;
- the ambient ``EvaluationConfig``'s sample budget and deadline apply to
  draws on this engine and raise their dedicated errors.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import (
    DeadlineExceeded,
    SampleBudgetExceeded,
    SamplingError,
    Uncertain,
    evaluation_config,
)
from repro.core.engines import NumpyEngine, get_engine
from repro.dists import Gaussian
from repro.dists.base import Distribution
from repro.runtime import parallel as parallel_module
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.parallel import (
    MIN_CHUNK,
    ParallelEngine,
    chunk_layout,
    spawn_chunk_seeds,
)


def diamond() -> Uncertain:
    """The fig08 dependence diamond ``(y + x) + x`` over Gaussian leaves."""
    x = Uncertain(Gaussian(0.0, 1.0), label="X")
    y = Uncertain(Gaussian(0.0, 1.0), label="Y")
    return (y + x) + x


def chunked_numpy_reference(plan, n, seed, chunk_size=None) -> np.ndarray:
    """Serial reproduction of the parallel stream: NumpyEngine chunk by chunk."""
    chunks = chunk_layout(n, chunk_size)
    seeds = spawn_chunk_seeds(np.random.default_rng(seed), len(chunks))
    inner = NumpyEngine()
    return np.concatenate(
        [
            inner.run(plan, size, np.random.default_rng(child))[plan.root_slot]
            for size, child in zip(chunks, seeds)
        ]
    )


# ---------------------------------------------------------------------------
# Crash injection.  The distribution must be picklable (it ships to workers
# inside the plan payload), so it lives at module level and its crash switch
# is a sentinel file: "once" mode deletes the sentinel before dying, so the
# retry on a fresh pool succeeds; "always" mode leaves it in place.
# ---------------------------------------------------------------------------


class CrashingGaussian(Distribution):
    def __init__(self, sentinel: str, mode: str = "once") -> None:
        self.sentinel = sentinel
        self.mode = mode

    def sample_n(self, n, rng):
        if os.path.exists(self.sentinel):
            if self.mode == "once":
                try:
                    os.unlink(self.sentinel)
                except FileNotFoundError:
                    # A sibling worker raced us to the crash; sample normally.
                    return rng.normal(0.0, 1.0, size=n)
            os._exit(1)  # hard worker death: no exception, no cleanup
        return rng.normal(0.0, 1.0, size=n)


class SleepyGaussian(Distribution):
    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def sample_n(self, n, rng):
        time.sleep(self.delay_s)
        return rng.normal(0.0, 1.0, size=n)


class TestChunkLayout:
    def test_adaptive_sizing_floors_at_min_chunk(self):
        assert chunk_layout(10) == [10]
        assert chunk_layout(MIN_CHUNK) == [MIN_CHUNK]
        assert chunk_layout(MIN_CHUNK + 1) == [MIN_CHUNK, 1]

    def test_layout_is_worker_independent(self):
        # Nothing about the layout may consult worker count: same n, same
        # layout, regardless of how the engine was configured.
        assert chunk_layout(1_000_000) == chunk_layout(1_000_000)
        assert sum(chunk_layout(1_000_000)) == 1_000_000
        assert sum(chunk_layout(123_457, 1000)) == 123_457

    def test_explicit_chunk_size(self):
        assert chunk_layout(10, 4) == [4, 4, 2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chunk_layout(0)
        with pytest.raises(ValueError):
            chunk_layout(10, 0)

    def test_spawned_seeds_are_reproducible(self):
        a = spawn_chunk_seeds(np.random.default_rng(3), 4)
        b = spawn_chunk_seeds(np.random.default_rng(3), 4)
        assert [s.generate_state(2).tolist() for s in a] == [
            s.generate_state(2).tolist() for s in b
        ]


class TestDeterminism:
    N = 20_000
    CHUNK = 1_024  # small chunks so modest n still exercises the pool

    @pytest.fixture(scope="class")
    def plan(self):
        return diamond().plan

    def run_with_workers(self, plan, k):
        engine = ParallelEngine(workers=k, chunk_size=self.CHUNK)
        try:
            values = engine.run(plan, self.N, np.random.default_rng(42))
            return values[plan.root_slot]
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("k", [2, 4])
    def test_bit_identical_across_worker_counts(self, plan, k):
        serial = self.run_with_workers(plan, 1)
        parallel = self.run_with_workers(plan, k)
        assert np.array_equal(serial, parallel)

    def test_matches_chunked_numpy_reference(self, plan):
        parallel = self.run_with_workers(plan, 2)
        reference = chunked_numpy_reference(plan, self.N, 42, self.CHUNK)
        assert np.array_equal(parallel, reference)

    def test_distribution_is_correct(self, plan):
        # (y + x) + x has variance 1 + 4 = 5.
        values = self.run_with_workers(plan, 2)
        assert len(values) == self.N
        assert np.var(values) == pytest.approx(5.0, rel=0.1)
        assert np.mean(values) == pytest.approx(0.0, abs=0.1)

    def test_repeat_runs_advance_the_stream(self, plan):
        # Two batches through one generator must not repeat samples.
        engine = ParallelEngine(workers=2, chunk_size=self.CHUNK)
        try:
            rng = np.random.default_rng(7)
            first = engine.run(plan, self.N, rng)[plan.root_slot]
            second = engine.run(plan, self.N, rng)[plan.root_slot]
            assert not np.array_equal(first, second)
        finally:
            engine.shutdown()

    def test_chunks_run_on_the_fused_engine(self):
        # A fresh shape's third chunk builds its kernel, and the kernel
        # chunks still give the NumPy engine's rows.
        from repro.evaluate import clear_caches

        clear_caches()
        plan = diamond().plan
        engine = ParallelEngine(workers=1, chunk_size=512)
        sink = RuntimeMetrics()
        with evaluation_config(metrics=sink):
            root = engine.run(plan, 2_048, np.random.default_rng(6))[plan.root_slot]
        assert sink.snapshot()["fused"]["kernels_built"] == 1
        assert np.array_equal(root, chunked_numpy_reference(plan, 2_048, 6, 512))

    def test_small_batches_stay_in_process(self, plan):
        # An SPRT-sized batch is one sub-MIN_CHUNK chunk: never shipped.
        engine = ParallelEngine(workers=2)
        try:
            values = engine.run(plan, 10, np.random.default_rng(0))
            assert len(values[plan.root_slot]) == 10
            assert engine._executor is None  # pool never built
        finally:
            engine.shutdown()


class TestUnpicklablePlans:
    def test_lambda_plan_warns_and_falls_back(self):
        from repro.dists import FunctionDistribution

        base = Uncertain(
            FunctionDistribution(
                lambda rng: rng.normal(),
                fn_n=lambda n, rng: rng.normal(0.0, 1.0, size=n),
            )
        )
        value = base + 1.0
        engine = ParallelEngine(workers=2, chunk_size=256)
        try:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                out = engine.run(value.plan, 2_000, np.random.default_rng(5))
            root = out[value.plan.root_slot]
            # The fallback keeps the sharded stream definition.
            reference = chunked_numpy_reference(value.plan, 2_000, 5, 256)
            assert np.array_equal(root, reference)
        finally:
            engine.shutdown()


class TestCrashRecovery:
    def test_crashed_chunks_are_retried_on_a_fresh_pool(self, tmp_path):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        value = Uncertain(CrashingGaussian(str(sentinel), mode="once")) + 0.0
        engine = ParallelEngine(workers=2, chunk_size=512, mp_context="fork")
        try:
            out = engine.run(value.plan, 4_096, np.random.default_rng(11))
            root = out[value.plan.root_slot]
            assert len(root) == 4_096
            assert not sentinel.exists()
            # Retried chunks reuse their original seeds, so the recovered
            # batch still equals the serial reference.
            assert np.array_equal(
                root, chunked_numpy_reference(value.plan, 4_096, 11, 512)
            )
        finally:
            engine.shutdown()

    def test_persistent_crash_raises_sampling_error(self, tmp_path):
        sentinel = tmp_path / "crash-always"
        sentinel.touch()
        value = Uncertain(CrashingGaussian(str(sentinel), mode="always")) + 0.0
        engine = ParallelEngine(workers=2, chunk_size=512, mp_context="fork")
        try:
            with pytest.raises(SamplingError, match="crashed the worker pool"):
                engine.run(value.plan, 4_096, np.random.default_rng(11))
        finally:
            engine.shutdown()
            sentinel.unlink(missing_ok=True)


class InProcessPool:
    """Executor stand-in that runs chunks in this process.

    ``submit`` raises ``BrokenProcessPool`` on its ``break_on``-th call
    and on every call after it, as a real pool does once a worker died
    between two submissions; no process is ever killed.
    """

    def __init__(self, break_on: int | None) -> None:
        self.break_on = break_on
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        if self.break_on is not None and self.calls >= self.break_on:
            raise BrokenProcessPool("a worker died before this submission")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


class TestSubmitTimeBreakage:
    """A pool that breaks while chunks are still being submitted."""

    N, CHUNK, SEED = 4_096, 512, 11

    @pytest.fixture
    def pools(self, monkeypatch):
        """Each pool the engine builds breaks on the submission given by
        the next entry of the returned list (``None``: healthy)."""
        schedule: list = []
        built: list = []

        def factory(**_):
            built.append(InProcessPool(schedule.pop(0) if schedule else None))
            return built[-1]

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", factory)
        # The chunks run here, so keep their worker-side plan cache out of
        # the pools that later tests fork from this process.
        monkeypatch.setattr(parallel_module, "_worker_plans", OrderedDict())
        return schedule, built

    def draw(self, engine, value):
        out = engine.run(value.plan, self.N, np.random.default_rng(self.SEED))
        return out[value.plan.root_slot]

    def reference(self, value):
        return chunked_numpy_reference(value.plan, self.N, self.SEED, self.CHUNK)

    def test_unsubmitted_chunks_are_retried_on_a_fresh_pool(self, pools):
        schedule, built = pools
        schedule.append(2)
        value = diamond()
        engine = ParallelEngine(workers=2, chunk_size=self.CHUNK)
        sink = RuntimeMetrics()
        with evaluation_config(metrics=sink):
            root = self.draw(engine, value)
        assert np.array_equal(root, self.reference(value))
        assert len(built) == 2 and engine._executor is built[1]
        parallel = sink.snapshot()["parallel"]
        assert parallel["worker_crashes"] == 1
        assert parallel["retries"] == self.N // self.CHUNK - 1

    def test_persistent_breakage_raises_then_the_engine_recovers(self, pools):
        schedule, built = pools
        schedule.extend([2, 2])
        value = diamond()
        engine = ParallelEngine(workers=2, chunk_size=self.CHUNK)
        with pytest.raises(SamplingError, match="crashed the worker pool 2 times"):
            self.draw(engine, value)
        # The broken pool was discarded, so the next draw builds a healthy one.
        assert engine._executor is None
        assert np.array_equal(self.draw(engine, value), self.reference(value))
        assert len(built) == 3

    def test_persistent_breakage_is_rescued_serially(self, pools):
        schedule, _ = pools
        schedule.extend([2, 2])
        value = diamond()
        engine = ParallelEngine(workers=2, chunk_size=self.CHUNK, serial_fallback=True)
        with pytest.warns(RuntimeWarning, match="serially in-process"):
            root = self.draw(engine, value)
        assert np.array_equal(root, self.reference(value))
        assert np.array_equal(self.draw(engine, value), self.reference(value))


class TestBudgetsAndDeadlines:
    def test_engine_sample_budget(self):
        value = diamond()
        engine = ParallelEngine(workers=1)
        try:
            with evaluation_config(sample_budget=1_000) as cfg:
                value.samples(800, rng=0, engine=engine)
                with pytest.raises(SampleBudgetExceeded):
                    value.samples(300, rng=0, engine=engine)
                assert cfg.accounting.samples_executed == 800
        finally:
            engine.shutdown()

    def test_engine_deadline(self):
        # Every chunk sleeps past the deadline: the parent stops waiting
        # on the pending chunks and discards the pool.
        value = Uncertain(SleepyGaussian(0.5)) + 0.0
        engine = ParallelEngine(workers=2, chunk_size=512, mp_context="fork")
        try:
            with evaluation_config(deadline=0.2):
                with pytest.raises(DeadlineExceeded, match="mid-draw") as err:
                    value.samples(4_096, rng=0, engine=engine)
            progress = err.value.__cause__.progress
            assert progress["chunks"] == 8
            assert progress["chunks_done"] < progress["chunks"]
            assert engine._executor is None
        finally:
            engine.shutdown()

    def test_config_sample_budget_applies_to_every_draw_path(self):
        value = diamond()
        with evaluation_config(sample_budget=1_000):
            value.samples(900)
            with pytest.raises(SampleBudgetExceeded):
                value.samples(200)

    def test_config_deadline_bounds_the_block(self):
        value = diamond()
        with evaluation_config(deadline=1e-6):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                value.samples(10)


class TestPlanPayloadProtocol:
    """Structural-hash-keyed worker caches (docs/runtime.md).

    Every chunk carries its pickled plan and the plan's key; a worker
    unpickles a key once and serves later chunks of it, and of any
    isomorphic plan, from its cache.
    """

    @pytest.fixture
    def worker_plans(self, monkeypatch):
        # The chunks run here, so keep their worker-side plan cache out of
        # the pools that later tests fork from this process.
        cache = OrderedDict()
        monkeypatch.setattr(parallel_module, "_worker_plans", cache)
        return cache

    def test_payload_key_is_the_structural_hash(self):
        engine = ParallelEngine(workers=2)
        try:
            plan = diamond().plan
            key, data = engine._payload_for(plan)
            assert key == plan.structural_hash
            assert isinstance(data, bytes)
        finally:
            engine.shutdown()

    def test_opaque_plan_gets_a_throwaway_key(self):
        engine = ParallelEngine(workers=2)
        try:
            value = diamond().map(np.sqrt, vectorized=True).map(
                np.abs, vectorized=True
            )
            opaque = Uncertain(
                Gaussian(0.0, 1.0)
            ).map(lambda v: v, vectorized=True)
            with pytest.warns(RuntimeWarning, match="not picklable"):
                key, data = engine._payload_for(opaque.plan)
            assert key.startswith("plan-")
            assert data is None
            assert value.plan.structural_hash is not None
        finally:
            engine.shutdown()

    def test_run_chunk_fills_an_empty_cache(self, worker_plans):
        plan = diamond().plan
        key, data = ParallelEngine(workers=2)._payload_for(plan)
        (seed,) = spawn_chunk_seeds(np.random.default_rng(4), 1)
        rows = parallel_module._run_chunk(key, data, 512, seed)
        assert np.array_equal(rows, chunked_numpy_reference(plan, 512, 4))
        assert list(worker_plans) == [key]

    def test_isomorphic_plans_share_one_plan(self, worker_plans):
        p1, p2 = diamond().plan, diamond().plan
        engine = ParallelEngine(workers=2)
        (k1, d1), (k2, d2) = engine._payload_for(p1), engine._payload_for(p2)
        assert p1 is not p2 and k1 == k2
        parallel_module._run_chunk(k1, d1, 512, 0)
        cached = worker_plans[k1]
        parallel_module._run_chunk(k2, d2, 512, 0)
        assert len(worker_plans) == 1 and worker_plans[k2] is cached


class TestEngineSelection:
    def test_parallel_engine_is_registered(self):
        engine = get_engine("parallel")
        assert isinstance(engine, ParallelEngine)

    def test_config_engine_routes_samples_through_the_pool_model(self):
        value = diamond()
        with evaluation_config(engine="parallel", rng=np.random.default_rng(21)):
            via_config = value.samples(MIN_CHUNK + 10)
        reference = chunked_numpy_reference(value.plan, MIN_CHUNK + 10, 21)
        assert np.array_equal(via_config, reference)

    def test_per_call_engine_override(self):
        value = diamond()
        out = value.samples(MIN_CHUNK + 10, rng=33, engine="parallel")
        assert np.array_equal(
            out, chunked_numpy_reference(value.plan, MIN_CHUNK + 10, 33)
        )
