"""Bayesian-network nodes built by Uncertain<T>'s lifted operators.

The paper represents every computation over uncertain data as a directed
acyclic graph whose leaves are known distributions and whose inner nodes are
base-type operations (Section 3.3, Figure 7).  Two design points matter:

1. **Node identity is random-variable identity.**  When the same
   ``Uncertain`` value appears twice in an expression, both uses reference
   the *same* node object, so a joint sample assigns it one value.  This is
   the paper's SSA-like dependence analysis (Figure 8): ``(Y + X) + X`` must
   share ``X``, not resample it.

2. **Construction is lazy.**  Building a node never draws samples; sampling
   happens only at conditionals, ``expected_value``, or explicit ``sample``
   calls (Section 4.2's "much like a JIT" strategy).

Nodes are immutable after construction, so the graph is acyclic by
construction: a node can only reference previously constructed nodes.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from repro.dists.base import Distribution

_node_ids = itertools.count()


_STATE_NAMES: dict[type, tuple[str, ...]] = {}


def _state_names(kind: type) -> tuple[str, ...]:
    """The slots that make up a node's state (all but its cached plan)."""
    names = _STATE_NAMES.get(kind)
    if names is None:
        names = _STATE_NAMES[kind] = tuple(dict.fromkeys(
            name
            for klass in kind.__mro__
            for name in getattr(klass, "__slots__", ())
            if name not in ("_compiled_plan", "__weakref__")
        ))
    return names


class Node:
    """Abstract node of the computation graph.

    Subclasses implement :meth:`evaluate_batch`, mapping a batch of parent
    sample-arrays to a batch of this node's samples.  ``parents`` is the
    tuple of graph predecessors (the variables this one conditionally
    depends on).
    """

    # ``_compiled_plan`` caches this node's lowered evaluation plan
    # (repro.core.plan) directly on the graph, so plan lifetime equals
    # graph lifetime; ``__weakref__`` lets the plan registry track roots
    # without keeping them alive.
    __slots__ = ("parents", "label", "uid", "_compiled_plan", "__weakref__")

    def __init__(self, parents: Sequence["Node"], label: str) -> None:
        self.parents: tuple[Node, ...] = tuple(parents)
        self.label = label
        self.uid = next(_node_ids)
        self._compiled_plan = None

    def evaluate_batch(
        self, parent_values: list[np.ndarray], n: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError

    def with_parents(self, parents: tuple["Node", ...]) -> "Node":
        """A copy of this node rewired to ``parents`` (no cached plan).

        The optimizer's rewrites and the binding of a shape's slot
        program re-parent nodes this way; the original is never mutated.
        """
        clone = object.__new__(type(self))
        for name in _state_names(type(self)):
            setattr(clone, name, getattr(self, name))
        clone.parents = parents
        clone._compiled_plan = None
        return clone

    # Nodes pickle without their cached plan: the plan is a per-process
    # lowering artifact (it holds bound methods and a weakly registered
    # root), and receivers — ParallelEngine workers — recompile in one
    # pass.  Pickle's memo preserves shared-subexpression identity, so a
    # diamond DAG stays a diamond on the other side.
    def __getstate__(self):
        return {name: getattr(self, name) for name in _state_names(type(self))}

    def __setstate__(self, state):
        self._compiled_plan = None
        for name, value in state.items():
            setattr(self, name, value)

    # Nodes hash/compare by identity; they are graph vertices, not values.
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} #{self.uid} {self.label!r}>"


class LeafNode(Node):
    """A known distribution provided by an expert developer (shaded nodes)."""

    __slots__ = ("dist",)

    def __init__(self, dist: Distribution, label: str | None = None) -> None:
        super().__init__((), label or type(dist).__name__)
        self.dist = dist

    def evaluate_batch(self, parent_values, n, rng):
        return self.dist.sample_n(n, rng)


class PointMassNode(Node):
    """A constant lifted to a degenerate distribution (Table 1's Pointmass)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        super().__init__((), f"pointmass({value!r})")
        self.value = value

    def evaluate_batch(self, parent_values, n, rng):
        if isinstance(
            self.value, (int, float, np.integer, np.floating, bool, np.bool_)
        ):
            return np.full(n, self.value)
        out = np.empty(n, dtype=object)
        out[:] = [self.value] * n
        return out


class BinaryOpNode(Node):
    """An inner node applying a binary base-type operator elementwise.

    ``op`` must accept numpy arrays (all the ``operator`` module functions
    do, including on object-dtype arrays whose elements define the dunder).
    """

    __slots__ = ("op",)

    def __init__(self, op: Callable[[Any, Any], Any], left: Node, right: Node, symbol: str) -> None:
        super().__init__((left, right), symbol)
        self.op = op

    def evaluate_batch(self, parent_values, n, rng):
        left, right = parent_values
        return self.op(left, right)


class UnaryOpNode(Node):
    """An inner node applying a unary base-type operator elementwise."""

    __slots__ = ("op",)

    def __init__(self, op: Callable[[Any], Any], operand: Node, symbol: str) -> None:
        super().__init__((operand,), symbol)
        self.op = op

    def evaluate_batch(self, parent_values, n, rng):
        (operand,) = parent_values
        return self.op(operand)


class ApplyNode(Node):
    """An inner node applying an arbitrary lifted function.

    With ``vectorized=True`` the function is called once on the parent
    sample arrays; otherwise it is mapped over individual joint samples,
    which supports functions of arbitrary Python objects (for example,
    great-circle distance between two ``GeoCoordinate`` samples).
    """

    __slots__ = ("fn", "vectorized")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Sequence[Node],
        vectorized: bool = False,
        label: str | None = None,
    ) -> None:
        super().__init__(tuple(args), label or getattr(fn, "__name__", "apply"))
        self.fn = fn
        self.vectorized = vectorized

    def evaluate_batch(self, parent_values, n, rng):
        if self.vectorized:
            return np.asarray(self.fn(*parent_values))
        results = [self.fn(*(vals[i] for vals in parent_values)) for i in range(n)]
        if isinstance(
            results[0], (int, float, np.integer, np.floating, bool, np.bool_)
        ):
            # Let numpy infer the result dtype: integer-valued functions keep
            # an integer dtype instead of being silently coerced to float
            # (mixed int/float batches still widen to float as before).
            return np.asarray(results)
        out = np.empty(n, dtype=object)
        out[:] = results
        return out


class BindNode(Node):
    """Monadic bind: per joint sample, ``fn`` maps the operand's value to a
    *new* uncertain value, from which exactly one sample is drawn.

    This is ``Uncertain.flat_map`` (the exemplar's ``flatMap``): the
    returned value may be an ``Uncertain``, a ``Distribution``, or a plain
    value (treated as a point mass).  Each row of the batch drives one
    independent inner draw from the shared generator, so dependence on the
    operand is preserved row-by-row while inner randomness stays fresh.

    Bind is inherently opaque to the structural layer (``fn`` is arbitrary
    Python), so plans containing a ``BindNode`` never enter the structural
    cache or the fused backend — they execute through the generic
    ``evaluate_batch`` path of every engine.
    """

    __slots__ = ("fn",)

    def __init__(
        self,
        fn: Callable[[Any], Any],
        operand: Node,
        label: str | None = None,
    ) -> None:
        super().__init__(
            (operand,), label or f"bind({getattr(fn, '__name__', 'fn')})"
        )
        self.fn = fn

    @staticmethod
    def _draw_one(result: Any, rng: np.random.Generator) -> Any:
        # Imported lazily: uncertain.py imports this module.
        from repro.core.uncertain import Uncertain

        if isinstance(result, Uncertain):
            plan = result.plan
            # Draw through the compiled plan but below the budget/metrics
            # facade: the inner draw is *part of* the enclosing joint
            # sample, not a separate evaluation.
            from repro.core.engines import get_engine

            return get_engine("numpy").run(plan, 1, rng)[plan.root_slot][0]
        if isinstance(result, Distribution):
            return result.sample_n(1, rng)[0]
        return result

    def evaluate_batch(self, parent_values, n, rng):
        (operand,) = parent_values
        results = [self._draw_one(self.fn(operand[i]), rng) for i in range(n)]
        if results and isinstance(
            results[0], (int, float, np.integer, np.floating, bool, np.bool_)
        ):
            return np.asarray(results)
        out = np.empty(n, dtype=object)
        out[:] = results
        return out


# ---------------------------------------------------------------------------
# Graph inspection utilities (used by tests, docs and the dependence bench).
# ---------------------------------------------------------------------------


def iter_nodes(root: Node):
    """Yield every node reachable from ``root`` exactly once (post-order)."""
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))


def node_count(root: Node) -> int:
    """Number of distinct random variables in the network."""
    return sum(1 for _ in iter_nodes(root))


def leaf_nodes(root: Node) -> list[Node]:
    """All distinct leaves (known distributions and point masses)."""
    return [n for n in iter_nodes(root) if not n.parents]


def depth(root: Node) -> int:
    """Longest path from a leaf to ``root`` (leaves have depth 0)."""
    depths: dict[int, int] = {}
    for node in iter_nodes(root):
        if not node.parents:
            depths[id(node)] = 0
        else:
            depths[id(node)] = 1 + max(depths[id(p)] for p in node.parents)
    return depths[id(root)]


def to_networkx(root: Node):
    """Export the Bayesian network as a ``networkx.DiGraph``.

    Edges point from parents (dependencies) to children (dependents),
    matching the paper's figures.  Node attributes carry labels and whether
    the node is a leaf ("shaded" in the figures).
    """
    import networkx as nx

    graph = nx.DiGraph()
    for node in iter_nodes(root):
        graph.add_node(
            node.uid, label=node.label, leaf=not node.parents, kind=type(node).__name__
        )
        for parent in node.parents:
            graph.add_edge(parent.uid, node.uid)
    return graph
