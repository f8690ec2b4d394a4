"""Tests for the optimizer pipeline (stage 1 of the plan compiler).

The load-bearing property is the bit-identity contract: every accepted
rewrite must leave the RNG stream untouched, so an optimized plan sampled
on any engine equals the unoptimized plan sampled on the reference
interpreter, seed for seed.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.certify import certification_records
from repro.core.conditionals import evaluation_config
from repro.core.engines import InterpreterEngine, NumpyEngine
from repro.core.graph import PointMassNode
from repro.core.optimizer import (
    eliminate_common_subexpressions,
    is_stochastic,
    optimize_plan,
)
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform


def records_by_name(plan):
    return {r.name: r for r in plan.provenance}


class TestResolveLevel:
    """The ``optimize`` knob is a switch read for truthiness.

    Each value once named an optimizer level (``expected``); every value
    that named level 1 or above now turns the whole pipeline on, and the
    answers are the same at every value.
    """

    @pytest.mark.parametrize(
        "value,expected",
        [(True, 2), (False, 0), (0, 0), (None, 0), (1, 1), (2, 2), (7, 2)],
    )
    def test_mapping(self, value, expected):
        y = Uncertain(Gaussian(0.0, 1.0)) + (Uncertain.pointmass(1.0) + 2.0)
        with evaluation_config(optimize=value):
            got = y.samples(8, rng=np.random.default_rng(3))
        # The draw bound the plan to its optimized program iff the knob
        # is on.
        assert (compile_plan(y.node)._optimized is not None) == bool(expected)
        with evaluation_config(optimize=False):
            reference = y.samples(8, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, reference)


class TestConstantFolding:
    def test_folds_point_mass_chain(self):
        const = Uncertain.pointmass(3600.0) / Uncertain.pointmass(1609.344)
        y = Uncertain(Gaussian(1.5, 0.3)) * const
        plan = compile_plan(y.node)
        opt = plan.optimized()
        assert len(opt.steps) == len(plan.steps) - 2
        record = records_by_name(opt)["constant-fold"]
        assert record.rewrites
        folded = [
            s.node for s in opt.steps if type(s.node) is PointMassNode
        ]
        assert len(folded) == 1
        assert folded[0].value == pytest.approx(3600.0 / 1609.344)

    def test_folded_value_preserves_dtype(self):
        const = Uncertain.pointmass(2) + Uncertain.pointmass(3)
        y = Uncertain(Gaussian(0.0, 1.0)) + const
        opt = compile_plan(y.node).optimized()
        pm = next(s.node for s in opt.steps if type(s.node) is PointMassNode)
        reference = (np.full(1, 2) + np.full(1, 3))[0]
        assert pm.value == reference
        assert np.asarray(pm.value).dtype == reference.dtype

    def test_apply_is_a_fold_barrier(self):
        const = Uncertain.pointmass(4.0).map(np.sqrt, vectorized=True) + 1.0
        y = Uncertain(Gaussian(0.0, 1.0)) + const
        plan = compile_plan(y.node)
        opt = plan.optimized()
        # Nothing folded: the constant chain passes through an ApplyNode.
        assert len(opt.steps) == len(plan.steps)
        record = records_by_name(opt)["constant-fold"]
        assert record.rejected
        assert "impure" in record.rejected[0]

    def test_bit_identity_after_folding(self):
        const = (Uncertain.pointmass(2.0) * 3.0) + 1.0
        y = (Uncertain(Gaussian(0.0, 1.0)) + const) * Uncertain(Uniform(0, 1))
        plan = compile_plan(y.node)
        opt = plan.optimized()
        assert len(opt.steps) < len(plan.steps)
        for seed in (0, 1, 12345):
            a = NumpyEngine().run(plan, 64, np.random.default_rng(seed))[
                plan.root_slot
            ]
            b = NumpyEngine().run(opt, 64, np.random.default_rng(seed))[
                opt.root_slot
            ]
            c = InterpreterEngine().run(plan, 64, np.random.default_rng(seed))[
                plan.root_slot
            ]
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


class TestCSE:
    def test_merges_duplicate_deterministic_nodes(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        # (x + 1) built twice from the same leaf: structurally identical
        # deterministic nodes over the same input.
        a = x + 1.0
        b = x + 1.0
        y = a * b
        plan = compile_plan(y.node)
        opt = plan.optimized()
        assert len(opt.steps) < len(plan.steps)
        record = records_by_name(opt)["cse"]
        assert record.rewrites

    def test_cse_changes_nothing_statistically_vs_manual_sharing(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        dup = (x + 1.0) * (x + 1.0)
        shared_term = x + 1.0
        shared = shared_term * shared_term
        p_dup = compile_plan(dup.node).optimized()
        p_shared = compile_plan(shared.node)
        assert len(p_dup.steps) == len(p_shared.steps)
        for seed in (3, 99):
            a = NumpyEngine().run(p_dup, 32, np.random.default_rng(seed))[
                p_dup.root_slot
            ]
            b = NumpyEngine().run(p_shared, 32, np.random.default_rng(seed))[
                p_shared.root_slot
            ]
            np.testing.assert_array_equal(a, b)

    def test_never_merges_stochastic_leaves(self):
        # Two independent Gaussians with identical parameters must stay
        # independent: x1 - x2 has variance 2, not 0.
        x1 = Uncertain(Gaussian(0.0, 1.0))
        x2 = Uncertain(Gaussian(0.0, 1.0))
        y = x1 - x2
        opt = compile_plan(y.node).optimized()
        assert len(opt.leaf_slots) == 2
        out = NumpyEngine().run(opt, 50_000, np.random.default_rng(5))[
            opt.root_slot
        ]
        assert float(np.var(out)) == pytest.approx(2.0, rel=0.05)

    def test_direct_pass_api(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = (x + 1.0) * (x + 1.0)
        root, record = eliminate_common_subexpressions(y.node)
        assert record.name == "cse"
        assert record.nodes_after < record.nodes_before

    def test_is_stochastic(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        assert is_stochastic(x.node)
        assert not is_stochastic(Uncertain.pointmass(1.0).node)
        assert not is_stochastic((x + 1.0).node)


class TestPipeline:
    def test_noop_returns_same_plan_object(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x + x
        plan = compile_plan(y.node)
        opt, records = optimize_plan(plan)
        assert opt is plan
        assert [r.name for r in records] == [
            "constant-fold", "cse", "dead-slot-elim",
        ]

    def test_level_zero_is_identity(self):
        # ``optimize=0`` samples the raw plan: no optimized plan is made.
        y = Uncertain(Gaussian(0.0, 1.0)) + (
            Uncertain.pointmass(1.0) + 2.0
        )
        plan = compile_plan(y.node)
        with evaluation_config(optimize=0):
            y.samples(4, rng=np.random.default_rng(1))
        assert plan._optimized is None
        assert plan.optimized() is not plan

    def test_optimized_is_cached_per_level(self):
        y = Uncertain(Gaussian(0.0, 1.0)) + (
            Uncertain.pointmass(1.0) + 2.0
        )
        plan = compile_plan(y.node)
        assert plan.optimized() is plan.optimized()

    def test_provenance_records_slot_delta(self):
        y = Uncertain(Gaussian(0.0, 1.0)) + (
            Uncertain.pointmass(1.0) + 2.0
        )
        opt = compile_plan(y.node).optimized()
        dse = records_by_name(opt)["dead-slot-elim"]
        assert dse.nodes_before > dse.nodes_after
        assert opt.is_optimized

    def test_leaf_order_is_preserved(self):
        parts = [Uncertain(Gaussian(float(i), 1.0)) for i in range(5)]
        y = parts[0] + (parts[1] * (Uncertain.pointmass(2.0) + 1.0))
        for p in parts[2:]:
            y = y - p
        plan = compile_plan(y.node)
        opt = plan.optimized()
        original = [s.node for s in plan.steps if is_stochastic(s.node)]
        optimized = [s.node for s in opt.steps if is_stochastic(s.node)]
        assert original == optimized

    def test_rewrite_provenance_carries_stream_certificate(self):
        y = Uncertain(Gaussian(0.0, 1.0)) + (
            Uncertain.pointmass(1.0) + 2.0
        )
        opt = compile_plan(y.node).optimized()
        record = records_by_name(opt)["stream-certify"]
        assert record.certified
        assert record.subject == "optimizer-rewrite"
        # The PassRecord consumers must keep working alongside it.
        assert records_by_name(opt)["dead-slot-elim"].nodes_after > 0
        assert certification_records(opt) == (record,)

    def test_config_optimize_knob_controls_sampling(self):
        const = Uncertain.pointmass(2.0) * 3.0
        y = Uncertain(Gaussian(0.0, 1.0)) + const
        # Identical streams with the optimizer on, off, and ``1`` (on).
        draws = {}
        for knob in (True, False, 1):
            with evaluation_config(optimize=knob):
                draws[knob] = y.samples(16, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(draws[True], draws[False])
        np.testing.assert_array_equal(draws[True], draws[1])

    def test_optimize_one_means_on(self):
        # ``optimize=1`` is on: the whole pipeline, CSE included, bound
        # to the same slot program as ``True`` and with the same answers.
        def duplicated():
            x = Uncertain(Gaussian(0.0, 1.0))
            return (x + 1.0) * (x + 1.0)

        draws, bound = {}, {}
        for knob in (True, 1):
            value = duplicated()
            with evaluation_config(optimize=knob):
                draws[knob] = value.samples(16, rng=np.random.default_rng(5))
            bound[knob] = value.plan._optimized
        np.testing.assert_array_equal(draws[True], draws[1])
        assert bound[1] is not None and bound[True] is not None
        assert bound[1].provenance is bound[True].provenance
        assert records_by_name(bound[1])["cse"].rewrites
        assert bound[1].structural_hash == bound[True].structural_hash

    def test_memoised_context_draws_stay_unoptimized(self):
        from repro.core.sampling import SampleContext

        const = Uncertain.pointmass(2.0) * 3.0
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x + const
        ctx = SampleContext(n=8, rng=np.random.default_rng(2))
        y_vals = y.sample_with(ctx)
        x_vals = x.sample_with(ctx)
        # The shared leaf is consistent between the two roots, which
        # requires the memo keys (user nodes) to survive — i.e. the
        # unoptimized plan.
        np.testing.assert_array_equal(y_vals, x_vals + 6.0)


class TestPickleRoundTrip:
    def test_optimized_plan_survives_pickling(self):
        const = Uncertain.pointmass(3600.0) / Uncertain.pointmass(1609.344)
        y = Uncertain(Gaussian(1.5, 0.3)) * const
        opt = compile_plan(y.node).optimized()
        clone = pickle.loads(pickle.dumps(opt))
        assert clone.is_optimized and opt.is_optimized
        assert clone.structural_hash == opt.structural_hash
        assert len(clone.steps) == len(opt.steps)
        a = NumpyEngine().run(opt, 16, np.random.default_rng(4))[opt.root_slot]
        b = NumpyEngine().run(clone, 16, np.random.default_rng(4))[
            clone.root_slot
        ]
        np.testing.assert_array_equal(a, b)

    def test_raw_plan_pickles_at_level_zero(self):
        y = Uncertain(Gaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(y.node)
        clone = pickle.loads(pickle.dumps(plan))
        assert not clone.is_optimized
        assert clone.structural_hash == plan.structural_hash
