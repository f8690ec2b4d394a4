"""Binding rewritten plan shapes to their slot programs.

The first graph of a shape runs the optimizer passes and the rewrite
certifier once; every later isomorphic graph binds its own nodes to the
shape's recorded :class:`~repro.core.plan.SlotProgram`.  The load-bearing
property is **bound ≡ lowered**: the bound plan of a graph is the plan
``optimize_plan`` would produce for that graph from scratch, slot for
slot, and it draws bit-identically to the reference interpreter.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from benchmarks.e2e.inputs import fig08_root
from repro.analysis.demos import CERTIFY_CORPUS
from repro.core import optimizer
from repro.core.conditionals import evaluation_config
from repro.core.graph import PointMassNode
from repro.core.optimizer import is_stochastic
from repro.core.plan import compile_plan
from repro.core.sampling import SampleContext
from repro.core.structural import STRUCTURAL_CACHE, clear_structural_cache
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform
from repro.evaluate import clear_caches
from repro.resilience.chaos import ChaosDistribution
from repro.runtime import stats
from tests.analysis.test_certify import _random_fusable
from tests.kernel_path import kernel_ran


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structural_cache()
    yield
    clear_structural_cache()


def counting(monkeypatch):
    """Count ``optimize_plan`` and ``certify_rewrite`` calls."""
    from repro.analysis import certify

    calls = {"optimize": 0, "certify": 0}
    optimize, certify_rewrite = optimizer.optimize_plan, certify.certify_rewrite

    def counted_optimize(plan):
        calls["optimize"] += 1
        return optimize(plan)

    def counted_certify(original, optimized):
        calls["certify"] += 1
        return certify_rewrite(original, optimized)

    monkeypatch.setattr(optimizer, "optimize_plan", counted_optimize)
    monkeypatch.setattr(certify, "certify_rewrite", counted_certify)
    return calls


def duplicated():
    x = Uncertain(Gaussian(0.0, 1.0))
    return (x + 1.0) * (x + 1.0)


def folded_chain():
    return Uncertain(Gaussian(0.5, 2.0)) * (Uncertain.pointmass(1.0) + 2.0)


def fig08():
    return Uncertain.from_node(fig08_root())


def _replaying(state):
    """A builder of the random plan drawn from ``random`` state ``state``."""

    def build():
        rng = random.Random()
        rng.setstate(state)
        return _random_fusable(rng)

    return build


def builders():
    """Every case: the certify corpus, 40 random plans, hand-written ones."""
    cases = dict(CERTIFY_CORPUS)
    rng = random.Random(2014)
    for i in range(40):
        cases[f"random-{i}"] = _replaying(rng.getstate())
        _random_fusable(rng)
    cases["duplicated"] = duplicated
    cases["folded-chain"] = folded_chain
    cases["fig08"] = fig08
    return cases


#: Hand-written plans the passes rewrite: each must run a fused kernel.
HAND_WRITTEN = ("duplicated", "folded-chain", "fig08")


def _constant(value):
    return (type(value), repr(value))


def slots(plan):
    """Per slot: node kind, parent slots, and the slots of the node's own
    parents (a node must be wired to the nodes its step reads)."""
    return [
        (s.kind, s.parent_slots,
         tuple(plan.slot_of.get(p) for p in s.node.parents))
        for s in plan.steps
    ]


def assert_same_program(bound, lowered, raw, name):
    """``bound`` and ``lowered`` (both over ``raw``'s graph) agree."""
    assert slots(bound) == slots(lowered), name
    for s in bound.steps:
        assert s.parent_slots == tuple(
            bound.slot_of[p] for p in s.node.parents
        ), name
    assert bound.root_slot == lowered.root_slot, name
    assert [
        _constant(s.node.value) for s in bound.steps
        if type(s.node) is PointMassNode
    ] == [
        _constant(s.node.value) for s in lowered.steps
        if type(s.node) is PointMassNode
    ], name
    leaves = [s.node for s in raw.steps if is_stochastic(s.node)]
    for plan in (bound, lowered):
        got = [s.node for s in plan.steps if is_stochastic(s.node)]
        assert len(got) == len(leaves), name
        assert all(a is b for a, b in zip(got, leaves)), name


def draws(value, engine, n, seed):
    with evaluation_config(engine=engine):
        return value.samples(n, np.random.default_rng(seed))


class TestBoundEqualsLowered:
    def test_bound_plans_match_a_fresh_lowering(self, monkeypatch, hot_kernels):
        lower = optimizer.optimize_plan  # uncounted: the from-scratch lowering
        calls = counting(monkeypatch)
        rewritten, kernels = [], []
        for name, build in builders().items():
            first, second = build(), build()
            raw1 = compile_plan(first.node)
            opt1 = raw1.optimized()
            raw2 = compile_plan(second.node)
            assert raw2.shape is raw1.shape, name
            before = dict(calls)
            bound = raw2.optimized()
            if raw2.shape is not None:
                assert calls == before, name
            lowered, records = lower(raw2)
            assert (bound is raw2) == (lowered is raw2), name
            assert [r.name for r in bound.provenance] == [
                r.name for r in records
            ], name
            if bound is raw2:
                continue
            rewritten.append(name)
            assert_same_program(bound, lowered, raw2, name)
            assert bound.shape is opt1.shape, name
            first_nodes = {id(s.node) for p in (raw1, opt1) for s in p.steps}
            assert not first_nodes & {id(s.node) for s in bound.steps}, name
            # The first graph builds the shape's kernel; the second graph's
            # bound plan rebinds it to its own nodes.
            draws(first, "fused", 8, 0)
            kernel = bound.shape is not None and bound.shape.kernel
            if kernel and kernel.verified:
                # The first fused draw rebinds the kernel; later ones reuse it.
                with kernel_ran():
                    draws(second, "fused", 1, 0)
                kernels.append(name)
            for seed in (3, 11):
                for n in (1, 64):
                    expected = draws(second, "interpreter", n, seed)
                    for engine in ("numpy", "fused"):
                        np.testing.assert_array_equal(
                            draws(second, engine, n, seed), expected,
                            err_msg=f"{name} on {engine}",
                        )
        assert len(rewritten) >= 5, rewritten
        assert set(HAND_WRITTEN) <= set(rewritten), rewritten
        assert set(HAND_WRITTEN) <= set(kernels), kernels


def chaos_duplicated(seed=3):
    leaf = ChaosDistribution(Gaussian(1.5, 0.3), seed=seed)
    x = Uncertain(leaf)
    return (x + 1.0) * (x + 1.0) + Uncertain(Uniform(0.5, 2.0)), leaf


def live(entry) -> bool:
    return any(e is entry for e in STRUCTURAL_CACHE._entries.values())


class TestIsolationAndLifetime:
    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_graphs_keep_their_own_stateful_leaves(
        self, engine, monkeypatch, hot_kernels
    ):
        calls = counting(monkeypatch)
        (u1, leaf1), (u2, leaf2) = chaos_duplicated(), chaos_duplicated()
        p1, p2 = compile_plan(u1.node), compile_plan(u2.node)
        assert p1.shape is not None and p2.shape is p1.shape
        assert p1.optimized() is not p1 and p2.optimized() is not p2
        assert calls == {"optimize": 1, "certify": 1}
        with evaluation_config(engine=engine):
            u1.samples(8, np.random.default_rng(1))
            # The fused engine's first plan of a shape also runs the probe.
            first_calls = leaf1.calls
            assert first_calls >= 1 and leaf2.calls == 0
            u2.samples(8, np.random.default_rng(1))
        assert (leaf1.calls, leaf2.calls) == (first_calls, 1)

    def test_the_record_does_not_keep_the_first_graph_alive(self):
        value = duplicated()
        plan = compile_plan(value.node)
        shape = plan.shape
        assert plan.optimized() is not plan
        value.samples(8, np.random.default_rng(0))
        ref = weakref.ref(value.node)
        del value, plan
        gc.collect()
        assert ref() is None
        assert shape.optimized.slots is not None
        # A later graph still binds to the surviving record.
        later = compile_plan(duplicated().node)
        assert later.shape is shape and later.optimized() is not later

    def test_memo_draws_on_a_bound_graph_match_the_interpreter(self):
        compile_plan(duplicated().node).optimized()
        x = Uncertain(Gaussian(0.0, 1.0))
        value = (x + 1.0) * (x + 1.0)
        assert compile_plan(value.node).optimized() is not value.plan
        got = []
        for engine in ("numpy", "interpreter"):
            context = SampleContext(16, rng=7, engine=engine)
            got.append((context.value_of(x.node), context.value_of(value.node)))
        for a, b in zip(*got):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got[0][1], (got[0][0] + 1.0) ** 2)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_bound_plans_hold_live_entries_under_eviction(
        self, limit, monkeypatch
    ):
        monkeypatch.setattr(STRUCTURAL_CACHE, "limit", limit)
        for i in range(6):
            value = duplicated() if i % 2 else folded_chain()
            bound = compile_plan(value.node).optimized()
            assert bound.shape is not None and live(bound.shape)
            assert stats()["structural"]["entries"] <= limit
            np.testing.assert_array_equal(
                value.samples(4, np.random.default_rng(i)),
                draws(value, "interpreter", 4, i),
            )

    def test_an_evicted_optimized_shape_is_re_registered(self, monkeypatch):
        calls = counting(monkeypatch)
        monkeypatch.setattr(STRUCTURAL_CACHE, "limit", 2)
        first = compile_plan(duplicated().node).optimized()
        second = compile_plan(duplicated().node)  # the raw shape is newest
        compile_plan(folded_chain().node)  # evicts the optimized shape
        assert not live(first.shape)
        bound = second.optimized()
        assert calls["optimize"] == 1
        assert live(bound.shape) and bound.shape is not first.shape
        assert bound.shape.key == first.shape.key

    def test_clear_caches_drops_the_record(self, monkeypatch):
        calls = counting(monkeypatch)
        compile_plan(duplicated().node).optimized()
        compile_plan(duplicated().node).optimized()
        assert calls["optimize"] == 1
        clear_caches()
        compile_plan(duplicated().node).optimized()
        assert calls == {"optimize": 2, "certify": 2}
