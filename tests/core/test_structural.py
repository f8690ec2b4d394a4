"""Property tests for structural plan hashing (stage 2 of the compiler).

Contract: two plans get the same structural key iff their programs are
interchangeable — same op kinds, arities, distribution parameters, and
topology — and plans containing anything whose sampling behaviour the
hash cannot capture (lambdas, closures, stateful sources) are opaque.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import optimizer, structural
from repro.core.conditionals import evaluation_config
from repro.core.plan import compile_plan
from repro.core.structural import (
    STRUCTURAL_CACHE,
    StructuralCache,
    canonical_value,
    clear_structural_cache,
    fingerprint_digest,
    plan_fingerprint,
)
from repro.core.uncertain import Uncertain
from repro.dists.exponential import Exponential
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform
from repro.evaluate import clear_caches
from repro.resilience.chaos import ChaosDistribution
from repro.runtime import reset_stats, stats
from tests.kernel_path import kernel_ran_if_fused


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structural_cache()
    yield
    clear_structural_cache()


def gps_speed(mu=1.5):
    a = Uncertain(Gaussian(mu, 0.3))
    b = Uncertain(Gaussian(mu + 1.0, 0.4))
    d = b - a
    return (d * d) / Uncertain(Uniform(0.5, 2.0)) + 1.0


class TestHashEquality:
    def test_isomorphic_plans_hash_equal(self):
        p1 = compile_plan(gps_speed().node)
        p2 = compile_plan(gps_speed().node)
        assert p1.root is not p2.root
        assert p1.structural_hash is not None
        assert p1.structural_hash == p2.structural_hash

    def test_hash_is_stable_across_recompiles(self):
        u = gps_speed()
        first = compile_plan(u.node).structural_hash
        assert compile_plan(u.node).structural_hash == first

    def test_differing_dist_params_differ(self):
        p1 = compile_plan(gps_speed(mu=1.5).node)
        p2 = compile_plan(gps_speed(mu=2.5).node)
        assert p1.structural_hash != p2.structural_hash

    def test_differing_dist_family_differs(self):
        g = Uncertain(Gaussian(1.0, 1.0)) + 1.0
        e = Uncertain(Exponential(1.0)) + 1.0
        assert (
            compile_plan(g.node).structural_hash
            != compile_plan(e.node).structural_hash
        )

    def test_differing_topology_differs(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        shared = compile_plan((x + x).node)
        y1, y2 = Uncertain(Gaussian(0.0, 1.0)), Uncertain(Gaussian(0.0, 1.0))
        independent = compile_plan((y1 + y2).node)
        assert shared.structural_hash != independent.structural_hash

    def test_differing_op_differs(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        assert (
            compile_plan((x + 1.0).node).structural_hash
            != compile_plan((x - 1.0).node).structural_hash
        )

    def test_point_mass_value_is_structural(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        assert (
            compile_plan((x + 2.0).node).structural_hash
            != compile_plan((x + 3.0).node).structural_hash
        )


class TestOpacity:
    def test_lambda_apply_is_opaque(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x.map(lambda v: v * 2, vectorized=True)
        assert compile_plan(y.node).structural_hash is None

    def test_ufunc_apply_is_hashable(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = (x * x).map(np.sqrt, vectorized=True)
        assert compile_plan(y.node).structural_hash is not None

    def test_opaque_plans_do_not_pollute_the_cache(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        compile_plan(x.map(lambda v: v, vectorized=True).node)
        assert stats()["structural"]["entries"] == 0


class TestCollisionHandling:
    def test_hit_requires_full_fingerprint_equality(self):
        cache = StructuralCache()
        p1 = compile_plan(gps_speed(mu=1.5).node)
        entry1, hit1 = cache.entry_for(p1)
        assert not hit1
        # Another plan with an equal fingerprint hits the same entry: the
        # cache is keyed by the fingerprint itself.
        p2 = compile_plan(gps_speed(mu=1.5).node)
        entry2, hit2 = cache.entry_for(p2)
        assert hit2
        assert entry2 is entry1

    def test_true_digest_collision_gets_salted_key(self, monkeypatch):
        # Simulate a BLAKE2b collision: every shape digests to "d".  The
        # second shape must get a salted key rather than alias the first.
        monkeypatch.setattr(structural, "fingerprint_digest", lambda fp: "d")
        cache = StructuralCache()
        first, _ = cache.entry_for(compile_plan(gps_speed(mu=1.5).node))
        second, _ = cache.entry_for(compile_plan(gps_speed(mu=2.5).node))
        assert (first.key, second.key) == ("d", "d#1")
        # Each shape still hits its own key.
        again1, hit1 = cache.entry_for(compile_plan(gps_speed(mu=1.5).node))
        again2, hit2 = cache.entry_for(compile_plan(gps_speed(mu=2.5).node))
        assert (again1.key, hit1) == ("d", True)
        assert (again2.key, hit2) == ("d#1", True)
        assert cache.state()["collisions"] == 1

    def test_reuse_requires_identical_fingerprints(self):
        p1 = compile_plan(gps_speed(mu=1.5).node)
        p2 = compile_plan(gps_speed(mu=2.0).node)
        assert plan_fingerprint(p1) != plan_fingerprint(p2)
        assert p1.structural_hash != p2.structural_hash


class TestCacheBounds:
    def test_lru_eviction_respects_limit(self):
        cache = StructuralCache(limit=4)
        for i in range(10):
            plan = compile_plan((Uncertain(Gaussian(float(i), 1.0)) + float(i)).node)
            cache.entry_for(plan)
        assert cache.state()["entries"] <= 4

    def test_global_stats_shape(self):
        compile_plan(gps_speed().node)
        state = stats()["structural"]
        assert set(state) == {
            "entries", "limit", "collisions", "kernels", "kernels_verified",
        }
        assert (state["entries"], state["limit"]) == (1, STRUCTURAL_CACHE.limit)

    def test_lookups_are_counted_once(self):
        # compile_plan counts each lookup in plans.structural_*; the cache
        # reports what it holds, not a second hit/miss count.
        reset_stats()
        compile_plan(gps_speed().node)
        compile_plan(gps_speed().node).optimized()
        plans = stats()["plans"]
        assert (plans["structural_hits"], plans["structural_misses"]) == (1, 1)
        assert not {"hits", "misses"} & set(stats()["structural"])
        assert not hasattr(STRUCTURAL_CACHE, "hits")


class TestTokenSharing:
    """The cache holds each distinct token of its live fingerprints once,
    counted by its occurrences in them."""

    @staticmethod
    def shapes(count):
        # Shapes that share leaves and constants, each holding its leaf
        # token twice.
        return [
            Uncertain(Gaussian(float(i % 3), 1.0))
            + Uncertain(Gaussian(float(i % 3), 1.0)) * float(i % 4)
            for i in range(count)
        ]

    @staticmethod
    def assert_table_is_live_tokens(cache):
        live = Counter(token for fp in cache._entries for token in fp)
        assert set(cache._tokens) == set(live)
        assert len(cache._token_refs) == len(cache._tokens)
        for token, count in live.items():
            assert cache._token_refs[id(cache._tokens[token])] == count
        assert all(
            cache._tokens[token] is token
            for fp in cache._entries for token in fp
        )

    def test_shapes_sharing_a_leaf_hold_one_token(self):
        plans = [
            compile_plan((Uncertain(Gaussian(0.0, 1.0)) + 1.0).node),
            compile_plan((Uncertain(Gaussian(0.0, 1.0)) * 2.0).node),
        ]
        assert plans[0].structural_hash != plans[1].structural_hash
        first, second = (
            [t for t in p.shape.fingerprint if t[0] == "leaf"] for p in plans
        )
        assert len(first) == len(second) == 1
        assert first[0] is second[0]

    def test_table_tracks_live_entries_under_eviction(self):
        cache = StructuralCache(limit=4)
        for value in self.shapes(10):
            cache.entry_for(compile_plan(value.node))
            self.assert_table_is_live_tokens(cache)
        assert cache.state()["entries"] == 4
        occurrences = sum(len(fp) for fp in cache._entries)
        assert len(cache._tokens) < occurrences
        cache.clear()
        assert cache._tokens == {} and cache._token_refs == {}

    def test_keys_are_digests_of_fresh_fingerprints(self):
        cache = StructuralCache(limit=4)
        for value in self.shapes(10):
            entry, hit = cache.entry_for(compile_plan(value.node))
            assert not hit
        for value in self.shapes(10)[-4:]:
            fresh = plan_fingerprint(compile_plan(value.node))
            entry, hit = cache.register(fresh)
            assert hit and entry.fingerprint == fresh
            assert entry.key == fingerprint_digest(fresh)

    def test_clear_caches_empties_the_table(self):
        for value in self.shapes(3):
            compile_plan(value.node)
        assert STRUCTURAL_CACHE._tokens
        clear_caches()
        assert STRUCTURAL_CACHE._tokens == {}
        assert STRUCTURAL_CACHE._token_refs == {}


class TestCanonicalValues:
    def test_scalars_and_arrays_round_trip(self):
        assert canonical_value(1.5) == canonical_value(1.5)
        assert canonical_value(np.float64(1.5)) == canonical_value(np.float64(1.5))
        assert canonical_value(True) != canonical_value(1)
        a = canonical_value(np.arange(3))
        b = canonical_value(np.arange(3))
        assert a == b
        assert canonical_value(np.arange(3)) != canonical_value(np.arange(4))

    def test_scalar_tokens_keep_their_type(self):
        tokens = [
            canonical_value(v)
            for v in (2.0, np.float64(2.0), np.float32(2.0), 3, np.int32(3),
                      True, np.bool_(True))
        ]
        assert len(set(tokens)) == len(tokens)

    def test_python_and_numpy_scalar_operands_get_different_keys(self):
        # CSE merges point masses per type and NEP 50 promotes a Python
        # scalar weakly, so both verdicts differ between these shapes.
        x = Uncertain(Gaussian(0.0, 1.0))
        assert (
            compile_plan((x * 2.0).node).structural_hash
            != compile_plan((x * np.float32(2.0)).node).structural_hash
        )


def counting_optimizer(monkeypatch):
    """Count ``optimize_plan`` calls (looked up per call by ``optimized``)."""
    calls = []
    original = optimizer.optimize_plan

    def wrapper(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(optimizer, "optimize_plan", wrapper)
    return calls


def chaos_speed(seed=3):
    leaf = ChaosDistribution(Gaussian(1.5, 0.3), seed=seed)
    return Uncertain(leaf) * 2.0 + Uncertain(Uniform(0.5, 2.0)), leaf


class TestSharedOptimizerVerdict:
    def test_isomorphic_graph_runs_no_pass(self, monkeypatch):
        calls = counting_optimizer(monkeypatch)
        first = compile_plan(gps_speed().node).optimized()
        assert len(calls) == 1
        second = compile_plan(gps_speed().node)
        assert second.optimized() is second
        assert len(calls) == 1
        assert second.provenance == first.provenance
        assert second.shape is first.shape

    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_shared_verdict_keeps_bit_identity(
        self, engine, monkeypatch, hot_kernels
    ):
        calls = counting_optimizer(monkeypatch)
        gps_speed().samples(16, np.random.default_rng(0))
        value = gps_speed()
        with kernel_ran_if_fused(engine), evaluation_config(engine=engine):
            got = value.samples(64, np.random.default_rng(7))
        assert len(calls) == 1
        with evaluation_config(engine="interpreter"):
            expected = value.samples(64, np.random.default_rng(7))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_graphs_keep_their_own_stateful_leaves(self, engine, hot_kernels):
        (u1, leaf1), (u2, leaf2) = chaos_speed(), chaos_speed()
        p1, p2 = compile_plan(u1.node), compile_plan(u2.node)
        assert p1.shape is not None and p2.shape is p1.shape
        with evaluation_config(engine=engine):
            u1.samples(8, np.random.default_rng(1))
            # The fused engine's first plan of a shape also runs the probe.
            first_calls = leaf1.calls
            assert first_calls >= 1 and leaf2.calls == 0
            u2.samples(8, np.random.default_rng(1))
        assert (leaf1.calls, leaf2.calls) == (first_calls, 1)

    def test_clear_caches_drops_the_verdict(self, monkeypatch):
        calls = counting_optimizer(monkeypatch)
        compile_plan(gps_speed().node).optimized()
        clear_caches()
        compile_plan(gps_speed().node).optimized()
        assert len(calls) == 2

    def test_eviction_drops_the_verdict(self, monkeypatch):
        calls = counting_optimizer(monkeypatch)
        monkeypatch.setattr(STRUCTURAL_CACHE, "limit", 1)
        compile_plan(gps_speed(mu=1.5).node).optimized()
        compile_plan(gps_speed(mu=2.5).node)  # evicts the first shape
        compile_plan(gps_speed(mu=1.5).node).optimized()
        assert len(calls) == 2

    def test_rewritten_shape_is_optimized_once(self, monkeypatch):
        calls = counting_optimizer(monkeypatch)

        def duplicated():
            x = Uncertain(Gaussian(0.0, 1.0))
            return (x + 1.0) * (x + 1.0)

        plans = [compile_plan(duplicated().node) for _ in range(3)]
        assert plans[0].shape is not None and plans[1].shape is plans[0].shape
        bound = [plan.optimized() for plan in plans]
        assert len(calls) == 1
        assert len({id(b) for b in bound}) == 3
        for plan, opt in zip(plans, bound):
            assert opt is not plan
            assert opt.shape is bound[0].shape
        first = {id(s.node) for p in (plans[0], bound[0]) for s in p.steps}
        assert not first & {id(s.node) for s in bound[2].steps}
