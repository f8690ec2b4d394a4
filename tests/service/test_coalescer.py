"""The batching coalescer: grouping, determinism, pooling, fault isolation.

The load-bearing claim is bit-identity: a seeded request answered from a
coalesced batch — any batch, any grouping, even after a chaos-injected
bulk-evaluation failure — returns exactly the bytes solo evaluation
returns.  These tests exercise the synchronous core directly, without an
event loop.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Uncertain
from repro.core.conditionals import EvaluationConfig
from repro.core.ledger import LEDGER, clear_ledger
from repro.dists import Gaussian, Uniform
from repro.resilience.chaos import ChaosDistribution, ChaosEngine, InjectedFault
from repro.runtime.cancellation import CancellationToken, EvaluationCancelled
from repro.service import (
    CoalescerStats,
    QueryRequest,
    evaluate_batch,
    evaluate_request,
)
from tests.kernel_path import kernel_ran


def speed_query(mean: float = 4.0) -> Uncertain:
    """The GPS-walking standard form: a same-shape speeding-test operand."""
    east = Uncertain(Gaussian(mean, 1.0))
    north = Uncertain(Gaussian(mean, 1.0))
    return (east * east + north * north) ** 0.5


class TestGrouping:
    def test_same_shape_requests_share_a_group(self):
        reqs = [
            QueryRequest(value=speed_query(), kind="samples", samples=16, seed=i)
            for i in range(6)
        ]
        stats = CoalescerStats()
        evaluate_batch(reqs, engine="numpy", stats=stats)
        assert stats.groups == 1
        assert stats.coalesced_requests == 6

    def test_different_parameters_split_groups(self):
        # Structural hashing is parameter-inclusive: a different Gaussian
        # mean is a different program, never merged.
        reqs = [
            QueryRequest(value=speed_query(4.0), kind="samples", samples=8, seed=1),
            QueryRequest(value=speed_query(5.0), kind="samples", samples=8, seed=2),
        ]
        stats = CoalescerStats()
        evaluate_batch(reqs, engine="numpy", stats=stats)
        assert stats.groups == 2

    def test_opaque_plans_group_by_identity(self):
        opaque = Uncertain(Uniform(0.0, 1.0)).map(lambda v: v)
        assert opaque.plan.structural_hash is None
        reqs = [
            QueryRequest(value=opaque, kind="samples", samples=8, seed=i)
            for i in range(3)
        ]
        stats = CoalescerStats()
        outcomes = evaluate_batch(reqs, engine="numpy", stats=stats)
        assert stats.groups == 1  # same value object: still batchable
        assert all(not isinstance(o, BaseException) for o in outcomes)


class TestSeededDeterminism:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("samples", {"samples": 64}),
            ("expected_value", {"samples": 512}),
            ("percentiles", {"samples": 512, "divisions": 10}),
            ("confidence_interval", {"samples": 512, "level": 0.9}),
            ("sample", {}),
        ],
    )
    def test_batched_equals_solo(self, kind, kwargs):
        value = speed_query()
        solo = [
            evaluate_request(
                QueryRequest(value=value, kind=kind, seed=seed, **kwargs),
                engine="numpy",
            )
            for seed in range(5)
        ]
        batch = evaluate_batch(
            [
                QueryRequest(value=value, kind=kind, seed=seed, **kwargs)
                for seed in range(5)
            ],
            engine="numpy",
        )
        for s, b in zip(solo, batch):
            assert np.array_equal(
                np.asarray(s.value, dtype=float),
                np.asarray(b.value, dtype=float),
            )

    def test_pr_batched_equals_solo(self):
        cond = speed_query() > 4.0
        req = lambda seed: QueryRequest(
            value=cond, kind="pr", samples=2_000, threshold=0.5, seed=seed
        )
        solo = [evaluate_request(req(s), engine="numpy") for s in range(4)]
        batch = evaluate_batch([req(s) for s in range(4)], engine="numpy")
        for s, b in zip(solo, batch):
            assert s.value == b.value
            assert s.extra["evidence"] == b.extra["evidence"]

    def test_batch_composition_is_irrelevant(self):
        # The same request answered from two differently composed batches
        # gets the same bytes: the stream belongs to the request.
        value = speed_query()
        probe = QueryRequest(value=value, kind="samples", samples=32, seed=99)
        small = evaluate_batch([probe], engine="numpy")[0]
        noise = [
            QueryRequest(value=value, kind="samples", samples=32, seed=i)
            for i in range(7)
        ]
        large = evaluate_batch(noise + [probe], engine="numpy")[-1]
        assert np.array_equal(small.value, large.value)

    def test_fused_engine_batched_equals_fused_solo(self, hot_kernels):
        # Fused batched answers are bit-identical to fused solo answers.
        value = speed_query()
        reqs = [
            QueryRequest(value=value, kind="samples", samples=64, seed=s)
            for s in range(4)
        ]
        with kernel_ran():
            solo = [evaluate_request(r, engine="fused") for r in reqs]
            batch = evaluate_batch(reqs, engine="fused")
        for s, b in zip(solo, batch):
            assert np.array_equal(s.value, b.value)

    def test_fused_engine_equals_numpy(self, hot_kernels):
        # ``** 0.5`` included: the kernel materialises the exponent as the
        # engine does, so numpy's scalar sqrt shortcut cannot round it
        # differently.
        value = speed_query()
        req = QueryRequest(value=value, kind="samples", samples=4096, seed=3)
        a = evaluate_request(req, engine="numpy")
        with kernel_ran():
            b = evaluate_request(req, engine="fused")
        assert np.array_equal(a.value, b.value)


class TestPooledRequests:
    def test_seedless_requests_share_one_engine_run(self):
        value = speed_query()
        reqs = [
            QueryRequest(value=value, kind="expected_value", samples=256)
            for _ in range(8)
        ]
        stats = CoalescerStats()
        outcomes = evaluate_batch(
            reqs, engine="numpy", pool_rng=0, stats=stats
        )
        assert stats.engine_runs == 1          # ONE draw answered all 8
        assert stats.pooled_requests == 8
        assert stats.samples_drawn == 8 * 256
        estimates = [o.value for o in outcomes]
        # Distinct slices: the answers are iid estimates, not copies.
        assert len(set(estimates)) == 8
        for est in estimates:
            # E[sqrt(E^2 + N^2)] with E, N ~ N(4, 1) is ~5.75.
            assert est == pytest.approx(5.75, abs=0.5)

    def test_pool_rng_reproducible(self):
        value = speed_query()
        reqs = lambda: [
            QueryRequest(value=value, kind="samples", samples=16)
            for _ in range(3)
        ]
        a = evaluate_batch(reqs(), engine="numpy", pool_rng=7)
        b = evaluate_batch(reqs(), engine="numpy", pool_rng=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.value, y.value)

    def test_mixed_seeded_and_pooled(self):
        value = speed_query()
        seeded = QueryRequest(value=value, kind="samples", samples=16, seed=5)
        pooled = QueryRequest(value=value, kind="samples", samples=16)
        outcomes = evaluate_batch([seeded, pooled], engine="numpy", pool_rng=0)
        solo = evaluate_request(seeded, engine="numpy")
        assert np.array_equal(outcomes[0].value, solo.value)
        assert not np.array_equal(outcomes[1].value, solo.value)


class TestFaultIsolation:
    def test_chaos_fault_falls_back_per_request_bit_identically(self):
        # A bulk evaluation killed mid-group must not corrupt answers:
        # the fallback re-derives every stream from the request seeds.
        value = speed_query()
        reqs = [
            QueryRequest(value=value, kind="samples", samples=32, seed=i)
            for i in range(6)
        ]
        solo = [evaluate_request(r, engine="numpy") for r in reqs]
        chaos = ChaosEngine(inner="numpy", seed=13, error_rate=0.4)
        stats = CoalescerStats()
        outcomes = evaluate_batch(
            reqs, engine=chaos, retries=8, stats=stats
        )
        assert stats.group_fallbacks >= 1  # the chaos actually bit
        for s, o in zip(solo, outcomes):
            assert not isinstance(o, BaseException)
            assert np.array_equal(s.value, o.value)

    def test_unrecoverable_request_fails_alone(self):
        good = QueryRequest(
            value=speed_query(), kind="samples", samples=8, seed=1
        )
        boom = Uncertain(Uniform(0.0, 1.0)).map(
            lambda v: (_ for _ in ()).throw(RuntimeError("bad model"))
        )
        bad = QueryRequest(value=boom, kind="sample", seed=2)
        outcomes = evaluate_batch([good, bad], engine="numpy", retries=0)
        assert not isinstance(outcomes[0], BaseException)
        assert isinstance(outcomes[1], BaseException)

    def test_chaos_with_zero_retries_surfaces_injected_fault(self):
        value = speed_query()
        req = QueryRequest(value=value, kind="samples", samples=8, seed=1)
        chaos = ChaosEngine(inner="numpy", seed=1, error_rate=1.0)
        outcomes = evaluate_batch([req], engine=chaos, retries=0)
        assert isinstance(outcomes[0], InjectedFault)


class TestAdmission:
    def test_sample_budget_rejects_with_library_error(self):
        config = EvaluationConfig(sample_budget=100)
        reqs = [
            QueryRequest(
                value=speed_query(), kind="samples", samples=80, seed=i
            )
            for i in range(2)
        ]
        outcomes = evaluate_batch(reqs, engine="numpy", config=config)
        kinds = sorted(type(o).__name__ for o in outcomes)
        assert "QueryResult" in str(kinds) or not isinstance(
            outcomes[0], BaseException
        )
        assert isinstance(outcomes[1], repro.SampleBudgetExceeded)

    def test_expired_deadline_rejects(self):
        config = EvaluationConfig(deadline=0.0)
        req = QueryRequest(value=speed_query(), kind="sample", seed=0)
        outcomes = evaluate_batch([req], engine="numpy", config=config)
        assert isinstance(outcomes[0], repro.DeadlineExceeded)

    @pytest.mark.parametrize("seed", [0, None])
    def test_deadline_stops_a_draw_without_a_request_token(self, seed):
        # The config's deadline expires while the draw sleeps; the next
        # engine step stops it, as it stops a solo draw.
        import time

        def slow(values):
            time.sleep(0.2)
            return values

        value = Uncertain(Gaussian(0.0, 1.0)).map(slow, vectorized=True) + 1.0
        config = EvaluationConfig(deadline=0.1)
        req = QueryRequest(value=value, kind="samples", samples=8, seed=seed)
        outcomes = evaluate_batch([req], engine="numpy", config=config)
        assert isinstance(outcomes[0], repro.DeadlineExceeded)
        assert "mid-draw" in str(outcomes[0])

    @pytest.mark.parametrize("sample_cache", [False, True],
                             ids=["ledger-off", "ledger-on"])
    def test_pooled_draw_stops_at_its_members_deadlines(self, sample_cache):
        # The pooled token (the members' latest deadline) is installed
        # around every engine run of the pooled draw, a ledger fill too.
        slow = Uncertain(ChaosDistribution(
            Gaussian(0.0, 1.0), seed=0, latency_s=0.25, latency_rate=1.0,
        ))
        value = slow + slow * 2.0
        value.plan
        reqs = [QueryRequest(value=value, kind="expected_value", samples=64)
                for _ in range(2)]
        tokens = {i: CancellationToken.with_timeout(0.05) for i in range(2)}
        config = EvaluationConfig(sample_cache=sample_cache)
        clear_ledger()
        outcomes = evaluate_batch(reqs, engine="numpy", config=config,
                                  tokens=tokens)
        assert all(isinstance(o, EvaluationCancelled) for o in outcomes)
        assert LEDGER.state()["entries"] == 0


class TestRequestValidation:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            QueryRequest(value=speed_query(), kind="median")

    def test_value_type_validation(self):
        with pytest.raises(TypeError):
            QueryRequest(value=3.0)

    def test_parameter_validation(self):
        value = speed_query()
        with pytest.raises(ValueError):
            QueryRequest(value=value, samples=0)
        with pytest.raises(ValueError):
            QueryRequest(value=value, threshold=1.5)
        with pytest.raises(ValueError):
            QueryRequest(value=value, level=1.0)
        with pytest.raises(ValueError):
            QueryRequest(value=value, divisions=0)

    def test_seedless_request_has_no_stream(self):
        with pytest.raises(ValueError):
            QueryRequest(value=speed_query()).rng()
