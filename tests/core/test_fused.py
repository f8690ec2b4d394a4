"""Tests for the fused-kernel backend (stage 3 of the plan compiler).

The acceptance property: for any plan the fused engine either produces a
bit-identical stream to the reference engines (verified kernel) or falls
back to the inner numpy engine — never a silently different stream.
"""

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.engines import InterpreterEngine, NumpyEngine, get_engine
from repro.core.fused import (
    FusedFallbackWarning,
    FusedProgram,
    clear_kernel_cache,
    fused_program,
    kernel_cache_stats,
)
from repro.core.joint import correlated_gaussians
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists.exponential import Exponential
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform
from repro.runtime.metrics import RuntimeMetrics


@pytest.fixture(autouse=True)
def _fresh_kernels():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def fig08_plan():
    """The paper's Figure 8 dependence example: b = (y + x) + x."""
    x = Uncertain(Gaussian(0.0, 1.0))
    y = Uncertain(Gaussian(0.0, 2.0))
    return compile_plan(((y + x) + x).node)


def gps_speed():
    """A fig08-shaped GPS speed expression over mixed distributions."""
    x1 = Uncertain(Gaussian(10.0, 3.0))
    y1 = Uncertain(Gaussian(20.0, 3.0))
    x2 = Uncertain(Gaussian(14.0, 3.0))
    y2 = Uncertain(Gaussian(24.0, 3.0))
    dt = Uncertain(Uniform(0.9, 1.1))
    drift = Uncertain(Exponential(4.0))
    dx = x2 - x1
    dy = y2 - y1
    dist = (dx * dx + dy * dy).map(np.sqrt, vectorized=True) + drift
    return dist / dt


def run_all_engines(plan, n, seed):
    opt = plan.optimized(2)
    out_f = get_engine("fused").run(opt, n, np.random.default_rng(seed))[
        opt.root_slot
    ]
    out_n = NumpyEngine().run(opt, n, np.random.default_rng(seed))[
        opt.root_slot
    ]
    out_i = InterpreterEngine().run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]
    return out_f, out_n, out_i


class TestEquivalence:
    def test_fig08_bit_identical_across_backends(self):
        plan = fig08_plan()
        for seed in (0, 12345, 2026):
            out_f, out_n, out_i = run_all_engines(plan, 257, seed)
            np.testing.assert_array_equal(out_f, out_n)
            np.testing.assert_array_equal(out_f, out_i)
            assert out_f.dtype == out_n.dtype

    def test_mixed_distributions_and_ufunc_apply(self):
        plan = compile_plan(gps_speed().node)
        for seed in (7, 99):
            out_f, out_n, out_i = run_all_engines(plan, 64, seed)
            np.testing.assert_array_equal(out_f, out_n)
            np.testing.assert_array_equal(out_f, out_i)

    def test_comparison_roots_produce_bool_batches(self):
        y = gps_speed() > 4.0
        plan = compile_plan(y.node)
        out_f, out_n, out_i = run_all_engines(plan, 100, 3)
        assert out_f.dtype == np.bool_
        np.testing.assert_array_equal(out_f, out_n)
        np.testing.assert_array_equal(out_f, out_i)

    def test_joint_components_share_one_draw(self):
        a, b = correlated_gaussians(
            [0.0, 0.0], np.array([[1.0, 0.8], [0.8, 1.0]])
        )
        plan = compile_plan((a + b).node)
        out_f, out_n, out_i = run_all_engines(plan, 50, 17)
        np.testing.assert_array_equal(out_f, out_n)
        np.testing.assert_array_equal(out_f, out_i)

    def test_division_by_zero_propagates_ieee(self):
        zero = Uncertain(Gaussian(0.0, 0.0))  # degenerate: always 0
        y = Uncertain(Gaussian(1.0, 1.0)) / zero
        plan = compile_plan(y.node)
        out_f, out_n, _ = run_all_engines(plan, 16, 5)
        np.testing.assert_array_equal(out_f, out_n)
        assert np.all(np.isinf(out_f) | np.isnan(out_f))

    def test_sequential_batches_advance_the_stream_identically(self):
        # The SPRT draws many small batches through one generator; the
        # fused engine must consume the stream exactly like numpy does.
        plan = compile_plan(gps_speed().node).optimized(2)
        rng_f = np.random.default_rng(21)
        rng_n = np.random.default_rng(21)
        eng = get_engine("fused")
        ref = NumpyEngine()
        for n in (10, 10, 7, 33, 10):
            np.testing.assert_array_equal(
                eng.run(plan, n, rng_f)[plan.root_slot],
                ref.run(plan, n, rng_n)[plan.root_slot],
            )

    def test_sample_facade_with_fused_engine_config(self):
        y = gps_speed()
        with evaluation_config(engine="fused"):
            got = y.samples(40, rng=np.random.default_rng(8))
        want = NumpyEngine().run(
            y.plan.optimized(2), 40, np.random.default_rng(8)
        )[y.plan.optimized(2).root_slot]
        np.testing.assert_array_equal(got, want)


class TestFallbacks:
    def test_opaque_plan_falls_back_to_inner(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x.map(lambda v: v * 2.0, vectorized=True)
        plan = compile_plan(y.node)
        eng = get_engine("fused")
        out = eng.run(plan, 12, np.random.default_rng(1))[plan.root_slot]
        ref = NumpyEngine().run(plan, 12, np.random.default_rng(1))[
            plan.root_slot
        ]
        np.testing.assert_array_equal(out, ref)
        assert fused_program(plan) is None

    def test_lying_bulk_draw_spec_is_rejected_not_trusted(self):
        class LyingGaussian(Gaussian):
            def bulk_draw_spec(self):
                # Claims an affine reduction that does NOT reproduce
                # sample_n: verification must catch the divergence.
                return ("standard_normal", self.mu + 100.0, self.sigma)

        y = Uncertain(LyingGaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(y.node)
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            with pytest.warns(FusedFallbackWarning, match="rejected") as rec:
                out = get_engine("fused").run(
                    plan, 20, np.random.default_rng(2)
                )[plan.root_slot]
        ref = NumpyEngine().run(plan, 20, np.random.default_rng(2))[
            plan.root_slot
        ]
        np.testing.assert_array_equal(out, ref)
        assert metrics.snapshot()["fused"]["kernels_rejected"] == 1
        # LyingGaussian is a subclass, so the static certifier defers to
        # the probe rather than trusting the claimed family — and the
        # rejection message must say why the probe ran (UNC401 context).
        message = str(rec[0].message)
        assert "UNC401" in message
        assert "not a trusted" in message
        # The rejection is sticky for the shape: no retry, still correct.
        out2 = get_engine("fused").run(plan, 20, np.random.default_rng(2))[
            plan.root_slot
        ]
        np.testing.assert_array_equal(out2, ref)

    def test_memo_path_delegates_to_inner(self):
        from repro.core.sampling import SampleContext

        x = Uncertain(Gaussian(0.0, 1.0))
        y = x + 1.0
        ctx = SampleContext(n=6, rng=np.random.default_rng(9))
        with evaluation_config(engine="fused"):
            y_vals = y.sample_with(ctx)
            x_vals = x.sample_with(ctx)
        np.testing.assert_array_equal(y_vals, x_vals + 1.0)
        # A memo-carrying run fills every slot, which a kernel cannot.
        plan = compile_plan(y.node)
        memo: dict = {}
        values = get_engine("fused").run(
            plan, 5, np.random.default_rng(0), memo=memo
        )
        assert all(v is not None for v in values)
        assert set(memo) == {step.node for step in plan.steps}


class TestKernelCache:
    def test_isomorphic_plans_share_one_kernel(self):
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            p1 = compile_plan(gps_speed().node).optimized(2)
            p2 = compile_plan(gps_speed().node).optimized(2)
            eng = get_engine("fused")
            out1 = eng.run(p1, 44, np.random.default_rng(6))[p1.root_slot]
            out2 = eng.run(p2, 44, np.random.default_rng(6))[p2.root_slot]
        np.testing.assert_array_equal(out1, out2)
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_built"] == 1
        assert snap["kernel_hits"] == 1
        # Every distribution here has a trusted bulk family, so the kernel
        # certifies statically and the probe run is skipped entirely.
        assert snap["kernels_certified"] == 1
        assert snap["kernels_probed"] == 0
        assert kernel_cache_stats()["size"] == 1
        assert kernel_cache_stats()["verified"] == 1
        assert kernel_cache_stats()["certified"] == 1

    def test_kernel_reused_across_batches_without_rebuild(self):
        metrics = RuntimeMetrics()
        plan = compile_plan(gps_speed().node).optimized(2)
        eng = get_engine("fused")
        with evaluation_config(metrics=metrics):
            rng = np.random.default_rng(0)
            for _ in range(5):
                eng.run(plan, 10, rng)
        assert metrics.snapshot()["fused"]["kernels_built"] == 1


class TestIntrospection:
    def test_program_renders_coalesced_draws_and_chains(self):
        plan = compile_plan(gps_speed().node).optimized(2)
        get_engine("fused").run(plan, 8, np.random.default_rng(0))
        prog = fused_program(plan)
        assert isinstance(prog, FusedProgram)
        hist = prog.op_histogram()
        assert hist["standard_normal"] == 4  # one coalesced 4-leaf draw
        assert hist["-"] == 2 and hist["+"] >= 2 and hist["/"] == 1
        assert "rng.standard_normal(4 * n)" in prog.source

    def test_fused_step_repr_lists_constituent_ops(self):
        plan = compile_plan(gps_speed().node).optimized(2)
        prog = fused_program(plan)
        reprs = [repr(s) for s in prog.steps]
        assert any("standard_normal ×4" in r for r in reprs)
        assert any("FusedStep" in r for r in reprs)
        described = prog.describe()
        assert "generated source" in described

    def test_plain_plan_steps_unaffected(self):
        plan = compile_plan((Uncertain(Gaussian(0, 1)) + 1.0).node)
        assert "PlanStep" in repr(plan.steps[0])
        assert plan.op_histogram()  # per-kind histogram still works
