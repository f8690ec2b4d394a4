"""Tests for ancestral sampling and joint-sample memoisation."""

import operator

import numpy as np
import pytest

from repro.core.engines import get_engine
from repro.core.graph import BinaryOpNode, LeafNode, PointMassNode
from repro.core.plan import compile_plan
from repro.core.sampling import Draw, SampleContext, SamplingError
from repro.dists import Gaussian
from repro.dists.sampling_function import FunctionDistribution


def sample_batch(node, n, rng):
    # The v2.0 replacement for the removed module-level helper: compile
    # the node's plan and run it on the default engine.
    return get_engine("numpy").sample(compile_plan(node), n, rng)


class TestSampleContext:
    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            SampleContext(0)

    def test_memoisation_within_context(self, rng):
        leaf = LeafNode(Gaussian(0.0, 1.0))
        ctx = SampleContext(100, rng)
        first = ctx.value_of(leaf)
        second = ctx.value_of(leaf)
        assert first is second

    def test_contains(self, rng):
        leaf = LeafNode(Gaussian(0.0, 1.0))
        ctx = SampleContext(10, rng)
        assert leaf not in ctx
        ctx.value_of(leaf)
        assert leaf in ctx

    def test_shared_leaf_consistent_across_roots(self, rng):
        # x - x must be exactly zero even when the two roots are sampled
        # through the same context separately.
        x = LeafNode(Gaussian(0.0, 1.0))
        double = BinaryOpNode(operator.add, x, x, "+")
        ctx = SampleContext(50, rng)
        xs = ctx.value_of(x)
        doubles = ctx.value_of(double)
        assert np.allclose(doubles, 2 * xs)

    def test_fresh_context_resamples(self, fixed_rng):
        leaf = LeafNode(Gaussian(0.0, 1.0))
        a = SampleContext(10, fixed_rng).value_of(leaf)
        b = SampleContext(10, fixed_rng).value_of(leaf)
        assert not np.allclose(a, b)


class TestSampleBatch:
    def test_shape(self, rng):
        leaf = LeafNode(Gaussian(0.0, 1.0))
        assert sample_batch(leaf, 17, rng).shape == (17,)

    def test_single_draw_scalar(self, rng):
        assert isinstance(float(sample_batch(PointMassNode(3.0), 1, rng)[0]), float)

    def test_diamond_sharing_statistics(self, fixed_rng):
        # Var[x + x] = 4 Var[x]; a wrong (resampling) implementation
        # yields 2 Var[x].
        x = LeafNode(Gaussian(0.0, 1.0))
        y = BinaryOpNode(operator.add, x, x, "+")
        samples = sample_batch(y, 50_000, fixed_rng)
        assert np.var(samples) == pytest.approx(4.0, rel=0.05)

    def test_independent_leaves_are_independent(self, fixed_rng):
        a = LeafNode(Gaussian(0.0, 1.0))
        b = LeafNode(Gaussian(0.0, 1.0))
        total = BinaryOpNode(operator.add, a, b, "+")
        samples = sample_batch(total, 50_000, fixed_rng)
        assert np.var(samples) == pytest.approx(2.0, rel=0.05)

    def test_bad_vectorised_leaf_shape_raises(self, rng):
        bad = LeafNode(
            FunctionDistribution(lambda r: 0.0, fn_n=lambda n, r: np.zeros(n + 1))
        )
        with pytest.raises(ValueError):
            sample_batch(bad, 5, rng)

    def test_misbehaving_node_raises_sampling_error(self, rng):
        from repro.core.graph import Node

        class BadNode(Node):
            def __init__(self):
                super().__init__((), "bad")

            def evaluate_batch(self, parent_values, n, rng):
                return np.zeros(n + 3)  # wrong leading dimension

        with pytest.raises(SamplingError, match="expected leading dimension"):
            sample_batch(BadNode(), 5, rng)

    def test_multidim_leaf_allowed(self, rng):
        # Leading dimension must be the batch; trailing dims may carry
        # structure (e.g. the planar GPS offsets).
        leaf = LeafNode(
            FunctionDistribution(
                lambda r: r.normal(size=2), fn_n=lambda n, r: r.normal(size=(n, 2))
            )
        )
        assert sample_batch(leaf, 8, rng).shape == (8, 2)


class TestSequentialDraw:
    def test_draws_requested_count(self, rng):
        cond = BinaryOpNode(
            operator.gt, LeafNode(Gaussian(1.0, 1.0)), PointMassNode(0.0), ">"
        )
        draw = Draw(compile_plan(cond), rng).run
        out = draw(25)
        assert out.shape == (25,) and out.dtype == bool

    def test_fresh_batches_differ(self, fixed_rng):
        cond = BinaryOpNode(
            operator.gt, LeafNode(Gaussian(0.0, 1.0)), PointMassNode(0.0), ">"
        )
        draw = Draw(compile_plan(cond), fixed_rng).run
        a, b = draw(100), draw(100)
        assert not np.array_equal(a, b)
