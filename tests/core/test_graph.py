"""Tests for the Bayesian-network node graph."""

import operator

import numpy as np

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
    depth,
    is_stochastic,
    iter_nodes,
    leaf_nodes,
    node_count,
    to_networkx,
)
from repro.dists import Gaussian


def _leaf(mu=0.0, sigma=1.0):
    return LeafNode(Gaussian(mu, sigma))


class TestConstruction:
    def test_leaf_has_no_parents(self):
        assert _leaf().parents == ()

    def test_binary_records_parents_in_order(self):
        a, b = _leaf(), _leaf()
        node = BinaryOpNode(operator.add, a, b, "+")
        assert node.parents == (a, b)

    def test_unary_parent(self):
        a = _leaf()
        node = UnaryOpNode(operator.neg, a, "neg")
        assert node.parents == (a,)

    def test_apply_parents(self):
        a, b, c = _leaf(), _leaf(), _leaf()
        node = ApplyNode(lambda x, y, z: x + y + z, (a, b, c))
        assert node.parents == (a, b, c)

    def test_uids_unique(self):
        nodes = [_leaf() for _ in range(10)]
        assert len({n.uid for n in nodes}) == 10

    def test_labels(self):
        assert _leaf().label == "Gaussian"
        assert PointMassNode(3).label == "pointmass(3)"
        assert BinaryOpNode(operator.add, _leaf(), _leaf(), "+").label == "+"


class TestEvaluation:
    def test_leaf_batch(self, rng):
        values = _leaf(2.0, 0.0).evaluate_batch([], 5, rng)
        assert np.all(values == 2.0)

    def test_pointmass_numeric(self, rng):
        assert np.all(PointMassNode(7).evaluate_batch([], 4, rng) == 7)

    def test_pointmass_object(self, rng):
        marker = object()
        out = PointMassNode(marker).evaluate_batch([], 3, rng)
        assert out.dtype == object and all(v is marker for v in out)

    def test_binary_elementwise(self, rng):
        node = BinaryOpNode(operator.mul, _leaf(), _leaf(), "*")
        out = node.evaluate_batch([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 2, rng)
        assert np.allclose(out, [3.0, 8.0])

    def test_unary_elementwise(self, rng):
        node = UnaryOpNode(operator.neg, _leaf(), "neg")
        assert np.allclose(node.evaluate_batch([np.array([1.0, -2.0])], 2, rng), [-1.0, 2.0])

    def test_apply_scalar_mapping(self, rng):
        node = ApplyNode(lambda x, y: x - y, (_leaf(), _leaf()))
        out = node.evaluate_batch(
            [np.array([5.0, 7.0]), np.array([1.0, 2.0])], 2, rng
        )
        assert np.allclose(out, [4.0, 5.0])

    def test_apply_vectorized(self, rng):
        node = ApplyNode(np.add, (_leaf(), _leaf()), vectorized=True)
        out = node.evaluate_batch([np.ones(3), np.ones(3)], 3, rng)
        assert np.allclose(out, 2.0)

    def test_apply_object_results(self, rng):
        node = ApplyNode(lambda x: (x,), (_leaf(),))
        out = node.evaluate_batch([np.array([1.0, 2.0])], 2, rng)
        assert out.dtype == object and out[0] == (1.0,)

    def test_apply_bool_results(self, rng):
        node = ApplyNode(lambda x: x > 0, (_leaf(),))
        out = node.evaluate_batch([np.array([1.0, -1.0])], 2, rng)
        assert out[0] and not out[1]

    def test_apply_preserves_integer_dtype(self, rng):
        # Regression: the scalar path used to allocate dtype=float, silently
        # coercing integer-valued functions to float.
        node = ApplyNode(lambda x: int(x) * 2, (_leaf(),))
        out = node.evaluate_batch([np.array([1.4, 2.6, 3.0])], 3, rng)
        assert np.issubdtype(out.dtype, np.integer)
        assert list(out) == [2, 4, 6]

    def test_apply_mixed_int_float_widens(self, rng):
        node = ApplyNode(lambda x: int(x) if x < 2 else float(x), (_leaf(),))
        out = node.evaluate_batch([np.array([1.0, 2.5])], 2, rng)
        assert np.issubdtype(out.dtype, np.floating)
        assert np.allclose(out, [1.0, 2.5])


class TestInspection:
    def _diamond(self):
        # B and C both depend on A; D on B and C.
        a = _leaf()
        b = UnaryOpNode(operator.neg, a, "neg")
        c = UnaryOpNode(abs, a, "abs")
        d = BinaryOpNode(operator.add, b, c, "+")
        return a, b, c, d

    def test_iter_nodes_unique(self):
        a, b, c, d = self._diamond()
        nodes = list(iter_nodes(d))
        assert len(nodes) == 4
        assert len({id(n) for n in nodes}) == 4

    def test_iter_nodes_postorder(self):
        a, b, c, d = self._diamond()
        order = [id(n) for n in iter_nodes(d)]
        assert order.index(id(a)) < order.index(id(b))
        assert order.index(id(b)) < order.index(id(d))
        assert order.index(id(c)) < order.index(id(d))

    def test_node_count_with_sharing(self):
        a, b, c, d = self._diamond()
        assert node_count(d) == 4

    def test_is_stochastic(self):
        a, b, _, _ = self._diamond()
        assert is_stochastic(a)
        assert not is_stochastic(PointMassNode(1.0))
        assert not is_stochastic(b)

    def test_leaf_nodes(self):
        a, _, _, d = self._diamond()
        assert leaf_nodes(d) == [a]

    def test_depth(self):
        a, b, c, d = self._diamond()
        assert depth(a) == 0
        assert depth(d) == 2

    def test_long_chain_depth_without_recursion(self):
        node = _leaf()
        for _ in range(5_000):
            node = UnaryOpNode(operator.neg, node, "neg")
        assert depth(node) == 5_000

    def test_to_networkx(self):
        a, b, c, d = self._diamond()
        g = to_networkx(d)
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        assert g.nodes[a.uid]["leaf"] is True
        assert g.nodes[d.uid]["leaf"] is False
        import networkx as nx

        assert nx.is_directed_acyclic_graph(g)
