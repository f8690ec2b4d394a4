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

    A plan ships to the pool once per structural shape; subsequent
    batches — including batches of *different* plan objects with the
    same shape — send only the key.  A worker that misses its cache
    raises ``PlanPayloadMissing`` and the parent re-sends transparently.
    """

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

    def test_run_chunk_raises_on_worker_cache_miss(self):
        from repro.runtime import parallel as par

        par._worker_plans.pop("no-such-key", None)
        with pytest.raises(par.PlanPayloadMissing):
            par._run_chunk("no-such-key", None, 8, 0, "numpy")

    def test_payload_ships_once_then_descriptors_only(self):
        from repro.runtime.metrics import RuntimeMetrics

        metrics = RuntimeMetrics()
        plan = diamond().plan
        engine = ParallelEngine(workers=2, chunk_size=512)
        try:
            with evaluation_config(metrics=metrics):
                first = engine.run(plan, 2_048, np.random.default_rng(1))
                assert plan.structural_hash in engine._shipped
                second = engine.run(plan, 2_048, np.random.default_rng(1))
            assert np.array_equal(
                first[plan.root_slot], second[plan.root_slot]
            )
            snap = metrics.snapshot()["parallel"]
            assert snap["payload_skips"] >= 4  # every chunk of run two
        finally:
            engine.shutdown()

    def test_isomorphic_plans_share_one_shipment(self):
        from repro.runtime.metrics import RuntimeMetrics

        metrics = RuntimeMetrics()
        p1 = diamond().plan
        p2 = diamond().plan
        assert p1 is not p2
        assert p1.structural_hash == p2.structural_hash
        engine = ParallelEngine(workers=2, chunk_size=512)
        try:
            with evaluation_config(metrics=metrics):
                a = engine.run(p1, 2_048, np.random.default_rng(9))
                b = engine.run(p2, 2_048, np.random.default_rng(9))
            assert np.array_equal(a[p1.root_slot], b[p2.root_slot])
            assert len(engine._shipped) == 1
            assert metrics.snapshot()["parallel"]["payload_skips"] >= 4
        finally:
            engine.shutdown()

    def test_cache_miss_is_resent_transparently(self):
        from repro.runtime.metrics import RuntimeMetrics

        metrics = RuntimeMetrics()
        plan = diamond().plan
        engine = ParallelEngine(workers=2, chunk_size=512)
        try:
            # Pretend the shape already shipped: the first dispatch sends
            # bare descriptors, every fresh worker misses, and the engine
            # must recover by re-sending the payload — same stream.
            engine._shipped.add(plan.structural_hash)
            with evaluation_config(metrics=metrics):
                out = engine.run(plan, 2_048, np.random.default_rng(13))
            assert np.array_equal(
                out[plan.root_slot],
                chunked_numpy_reference(plan, 2_048, 13, 512),
            )
            assert metrics.snapshot()["parallel"]["payload_misses"] >= 1
        finally:
            engine.shutdown()

    def test_shutdown_forgets_shipped_shapes(self):
        plan = diamond().plan
        engine = ParallelEngine(workers=2, chunk_size=512)
        try:
            engine.run(plan, 2_048, np.random.default_rng(3))
            assert engine._shipped
        finally:
            engine.shutdown()
        assert not engine._shipped


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
