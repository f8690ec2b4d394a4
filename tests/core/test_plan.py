"""Tests for plan compilation and the pluggable execution engines.

The contract under test: compiling a Bayesian network into a flat
:class:`EvaluationPlan` and running it on any engine preserves the paper's
dependence semantics exactly — shared subexpressions stay shared, and the
compiled engine consumes the RNG stream in the same order as the reference
interpreter, so samples are bit-identical seed for seed.
"""

import operator

import numpy as np
import pytest

from repro.core.engines import (
    EngineError,
    InterpreterEngine,
    NumpyEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.core.conditionals import evaluation_config
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
    node_count,
)
from repro.core.joint import ComponentNode
from repro.core.plan import (
    clear_plan_cache,
    compile_plan,
    invalidate_plan,
)
from repro.core.sampling import SampleContext
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian, Uniform
from repro.dists.sampling_function import FunctionDistribution
from repro.rng import default_rng
from repro.runtime import RuntimeMetrics, stats

ENGINES = ["numpy", "interpreter"]


def every_node_kind_graph():
    """One graph exercising every node kind the runtime ships.

    LeafNode, PointMassNode, BinaryOpNode, UnaryOpNode, ApplyNode
    (vectorized and per-sample), and ComponentNode, with a shared
    subexpression thrown in.
    """
    vec_leaf = LeafNode(
        FunctionDistribution(
            lambda r: r.normal(size=2), fn_n=lambda n, r: r.normal(size=(n, 2))
        ),
        label="vec",
    )
    east = ComponentNode(vec_leaf, 0)
    north = ComponentNode(vec_leaf, 1)
    x = LeafNode(Gaussian(0.0, 1.0))
    u = LeafNode(Uniform(0.5, 2.0))
    shared = BinaryOpNode(operator.add, x, u, "+")
    doubled = BinaryOpNode(operator.add, shared, shared, "+")  # shared subexpr
    negated = UnaryOpNode(operator.neg, doubled, "neg")
    offset = BinaryOpNode(operator.add, negated, PointMassNode(3.5), "+")
    vec_mag = ApplyNode(
        lambda e, n_: np.hypot(e, n_), (east, north), vectorized=True, label="hypot"
    )
    slow = ApplyNode(lambda a, b: float(a) + float(b), (offset, vec_mag))
    return BinaryOpNode(operator.mul, slow, shared, "*")


class TestPlanCompilation:
    def test_plan_is_cached_per_root(self):
        root = every_node_kind_graph()
        assert compile_plan(root) is compile_plan(root)

    def test_invalidate_plan(self):
        root = every_node_kind_graph()
        plan = compile_plan(root)
        assert invalidate_plan(root)
        assert not invalidate_plan(root)  # already gone
        assert compile_plan(root) is not plan

    def test_cache_entry_dies_with_graph(self):
        clear_plan_cache()
        root = every_node_kind_graph()
        compile_plan(root)
        assert stats()["plans"]["cached"] == 1
        del root
        import gc

        gc.collect()
        assert stats()["plans"]["cached"] == 0

    def test_slots_are_topologically_ordered(self):
        plan = compile_plan(every_node_kind_graph())
        for step in plan.steps:
            assert step.slot == plan.steps.index(step)
            assert all(p < step.slot for p in step.parent_slots)
        assert plan.root_slot == len(plan.steps) - 1

    def test_shared_subexpressions_share_one_slot(self):
        x = LeafNode(Gaussian(0.0, 1.0))
        doubled = BinaryOpNode(operator.add, x, x, "+")
        plan = compile_plan(doubled)
        assert len(plan) == 2  # x once, + once
        (step,) = [s for s in plan.steps if s.parent_slots]
        assert step.parent_slots == (plan.slot_of[x],) * 2

    def test_plan_covers_every_node_once(self):
        root = every_node_kind_graph()
        plan = compile_plan(root)
        assert len(plan) == node_count(root)
        kinds = plan.op_histogram()
        for kind in (
            "LeafNode",
            "PointMassNode",
            "BinaryOpNode",
            "UnaryOpNode",
            "ApplyNode",
            "ComponentNode",
        ):
            assert kinds.get(kind, 0) >= 1

    def test_compile_telemetry(self):
        metrics = RuntimeMetrics()
        root = every_node_kind_graph()
        with evaluation_config(metrics=metrics):
            compile_plan(root)
            compile_plan(root)
        plans = metrics.snapshot()["plans"]
        assert plans["compiled"] == 1
        assert plans["cache_hits"] == 1


class TestEngineEquivalence:
    """The compiled engine must be indistinguishable from the interpreter."""

    def test_identical_streams_across_every_node_kind(self):
        root = every_node_kind_graph()
        plan = compile_plan(root)
        for seed in (0, 7, 20140301):
            a = NumpyEngine().sample(plan, 64, default_rng(seed))
            b = InterpreterEngine().sample(plan, 64, default_rng(seed))
            assert np.array_equal(a, b), f"engines diverged at seed {seed}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_x_minus_x_is_exactly_zero(self, engine, rng):
        x = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(engine=engine):
            samples = (x - x).samples(2_000, rng)
        assert np.all(samples == 0.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_var_of_x_plus_x_is_4x(self, engine, fixed_rng):
        x = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(engine=engine):
            samples = (x + x).samples(50_000, fixed_rng)
        assert np.var(samples) == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_independent_leaves_stay_independent(self, engine, fixed_rng):
        a = Uncertain(Gaussian(0.0, 1.0))
        b = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(engine=engine):
            samples = (a + b).samples(50_000, fixed_rng)
        assert np.var(samples) == pytest.approx(2.0, rel=0.05)

    def test_sequential_batches_match_seed_for_seed(self):
        # The SPRT-shaped workload: many small sequential batches must
        # produce the same concatenated stream on both engines.
        root = every_node_kind_graph()
        plan = compile_plan(root)
        rng_a, rng_b = default_rng(99), default_rng(99)
        numpy_eng, interp_eng = get_engine("numpy"), get_engine("interpreter")
        stream_a = np.concatenate(
            [numpy_eng.sample(plan, 10, rng_a) for _ in range(30)]
        )
        stream_b = np.concatenate(
            [interp_eng.sample(plan, 10, rng_b) for _ in range(30)]
        )
        assert np.array_equal(stream_a, stream_b)

    def test_shared_context_consistent_on_both_engines(self):
        x = LeafNode(Gaussian(0.0, 1.0))
        doubled = BinaryOpNode(operator.add, x, x, "+")
        for engine in ENGINES:
            ctx = SampleContext(50, default_rng(3), engine=engine)
            xs = ctx.value_of(x)
            assert np.allclose(ctx.value_of(doubled), 2 * xs)


class TestEngineSelection:
    def test_registry_lists_builtin_engines(self):
        assert {"numpy", "interpreter"} <= set(available_engines())

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError, match="unknown execution engine"):
            get_engine("gpu-cluster")

    def test_config_engine_selection(self, rng):
        x = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(engine="interpreter"):
            assert (x > -10).pr(0.5, rng=rng)

    def test_engine_instance_accepted(self, rng):
        x = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(engine=InterpreterEngine()):
            x.samples(10, rng)

    def test_custom_engine_registration(self):
        class TracingEngine(NumpyEngine):
            name = "tracing-test"

        register_engine(TracingEngine())
        assert get_engine("tracing-test").name == "tracing-test"


class TestTelemetry:
    def test_engine_records_batches_and_samples(self, rng):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x + x
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics, engine="numpy"):
            y.samples(10, rng)
            y.samples(10, rng)
        snapshot = metrics.snapshot()
        assert snapshot["plans"]["compiled"] == 1
        assert snapshot["engines"]["numpy"]["batches"] == 2
        assert snapshot["engines"]["numpy"]["samples"] == 20
        metrics.reset()
        assert metrics.snapshot()["engines"] == {}


class TestUncertainPlanCarrying:
    def test_plan_property_is_cached(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x * 2 + 1
        assert y.plan is y.plan
        assert y.plan.root is y.node

    def test_conditional_reuses_the_carried_plan(self, rng):
        x = Uncertain(Gaussian(5.0, 1.0))
        cond = x > 0
        plan = cond.plan
        assert cond.pr(0.5, rng=rng)  # draws many batches through `plan`
        assert cond.plan is plan


class TestMemoSemantics:
    def test_memo_preseeds_and_receives_values(self):
        x = LeafNode(Gaussian(0.0, 1.0))
        y = BinaryOpNode(operator.add, x, PointMassNode(1.0), "+")
        plan = compile_plan(y)
        fixed = np.zeros(5)
        memo = {x: fixed}
        out = get_engine("numpy").sample(plan, 5, default_rng(0), memo=memo)
        assert np.array_equal(out, np.ones(5))
        assert y in memo  # newly evaluated nodes are written back

    def test_hidden_subtree_consumes_no_rng(self):
        # If an inner node is already memoised, the leaves beneath it must
        # not be sampled (they would consume RNG the lazy interpreter never
        # consumed).
        x = LeafNode(Gaussian(0.0, 1.0))
        inner = UnaryOpNode(operator.neg, x, "neg")
        probe = LeafNode(Gaussian(0.0, 1.0))
        root = BinaryOpNode(operator.add, inner, probe, "+")
        plan = compile_plan(root)
        rng = default_rng(11)
        reference = default_rng(11)
        memo = {inner: np.zeros(4)}
        out = get_engine("numpy").sample(plan, 4, rng, memo=memo)
        # Only `probe` should have drawn from the stream.
        expected = probe.dist.sample_n(4, reference)
        assert np.array_equal(out, expected)
        assert x not in memo

    def test_engine_draw_matches_context_draw(self):
        root = every_node_kind_graph()
        a = get_engine("numpy").sample(compile_plan(root), 32, default_rng(5))
        b = SampleContext(32, default_rng(5)).value_of(root)
        assert np.array_equal(a, b)
