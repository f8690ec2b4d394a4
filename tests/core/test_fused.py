"""Tests for the fused-kernel backend of the plan compiler.

The acceptance property: for any plan the fused engine either produces a
bit-identical stream to the reference engines (verified kernel) or falls
back to the inner numpy engine — never a silently different stream.

Every class but ``TestTieredKernels`` builds kernels on a shape's first
run (the ``hot_kernels`` fixture), so its comparisons exercise a kernel;
``TestTieredKernels`` checks the real threshold.
"""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import certify
from repro.analysis.demos import _corpus_gps_window
from repro.core import fused
from repro.core.conditionals import evaluation_config
from repro.core.engines import InterpreterEngine, NumpyEngine, get_engine
from repro.core.expectation import expected_value_adaptive
from repro.core.fused import (
    FusedFallbackWarning,
    FusedProgram,
    fused_program,
)
from repro.core.joint import correlated_gaussians
from repro.core.plan import compile_plan
from repro.core.structural import (
    STRUCTURAL_CACHE,
    clear_structural_cache,
)
from repro.core.uncertain import Uncertain
from repro.dists.exponential import Exponential
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform
from repro.evaluate import clear_caches
from repro.runtime import stats
from repro.runtime.metrics import RuntimeMetrics
from tests.kernel_path import kernel_ran


@pytest.fixture(autouse=True)
def _fresh_kernels():
    clear_structural_cache()
    yield
    clear_structural_cache()


def structural_state() -> dict:
    return stats()["structural"]


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


class LyingGaussian(Gaussian):
    def bulk_draw_spec(self):
        # Claims an affine reduction that does NOT reproduce sample_n: a
        # subclass's claim is never trusted, so its leaf is delegated.
        return ("standard_normal", self.mu + 100.0, self.sigma)


def run_all_engines(plan, n, seed):
    out_f = get_engine("fused").run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]
    out_n = NumpyEngine().run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]
    out_i = InterpreterEngine().run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]
    return out_f, out_n, out_i


@pytest.mark.usefixtures("hot_kernels")
class TestEquivalence:
    def test_fig08_bit_identical_across_backends(self):
        plan = fig08_plan()
        with kernel_ran():
            for seed in (0, 12345, 2026):
                out_f, out_n, out_i = run_all_engines(plan, 257, seed)
                np.testing.assert_array_equal(out_f, out_n)
                np.testing.assert_array_equal(out_f, out_i)
                assert out_f.dtype == out_n.dtype

    def test_mixed_distributions_and_ufunc_apply(self):
        plan = compile_plan(gps_speed().node)
        with kernel_ran():
            for seed in (7, 99):
                out_f, out_n, out_i = run_all_engines(plan, 64, seed)
                np.testing.assert_array_equal(out_f, out_n)
                np.testing.assert_array_equal(out_f, out_i)

    def test_comparison_roots_produce_bool_batches(self):
        y = gps_speed() > 4.0
        plan = compile_plan(y.node)
        with kernel_ran():
            out_f, out_n, out_i = run_all_engines(plan, 100, 3)
        assert out_f.dtype == np.bool_
        np.testing.assert_array_equal(out_f, out_n)
        np.testing.assert_array_equal(out_f, out_i)

    def test_joint_components_share_one_draw(self):
        a, b = correlated_gaussians(
            [0.0, 0.0], np.array([[1.0, 0.8], [0.8, 1.0]])
        )
        plan = compile_plan((a + b).node)
        with kernel_ran():
            out_f, out_n, out_i = run_all_engines(plan, 50, 17)
        np.testing.assert_array_equal(out_f, out_n)
        np.testing.assert_array_equal(out_f, out_i)

    def test_division_by_zero_propagates_ieee(self):
        zero = Uncertain(Gaussian(0.0, 0.0))  # degenerate: always 0
        y = Uncertain(Gaussian(1.0, 1.0)) / zero
        plan = compile_plan(y.node)
        with kernel_ran():
            out_f, out_n, _ = run_all_engines(plan, 16, 5)
        np.testing.assert_array_equal(out_f, out_n)
        assert np.all(np.isinf(out_f) | np.isnan(out_f))

    @pytest.mark.parametrize("exponent", [0.5, 2.0, -1.0, 2, 3.0])
    def test_scalar_exponent_matches_the_engines_array_exponent(
        self, exponent
    ):
        # numpy computes ``a ** 0.5`` as sqrt(a), ``a ** 2.0`` as a*a and
        # ``a ** -1.0`` as 1/a, which round differently from the general
        # power loop the engine runs against its materialised exponent.
        # The kernel must materialise the exponent too.
        x = Uncertain(Gaussian(4.0, 3.0))
        plan = compile_plan(((x * x + 1.0) ** exponent).node)
        with kernel_ran():
            out_f, out_n, out_i = run_all_engines(plan, 20_000, 4)
        np.testing.assert_array_equal(out_f, out_n)
        np.testing.assert_array_equal(out_f, out_i)

    def test_sequential_batches_advance_the_stream_identically(self):
        # The SPRT draws many small batches through one generator; the
        # fused engine must consume the stream exactly like numpy does.
        plan = compile_plan(gps_speed().node)
        rng_f = np.random.default_rng(21)
        rng_n = np.random.default_rng(21)
        eng = get_engine("fused")
        ref = NumpyEngine()
        with kernel_ran():
            for n in (10, 10, 7, 33, 10):
                np.testing.assert_array_equal(
                    eng.run(plan, n, rng_f)[plan.root_slot],
                    ref.run(plan, n, rng_n)[plan.root_slot],
                )

    def test_sample_facade_with_fused_engine_config(self):
        y = gps_speed()
        with kernel_ran(), evaluation_config(engine="fused"):
            got = y.samples(40, rng=np.random.default_rng(8))
        want = NumpyEngine().run(
            y.plan, 40, np.random.default_rng(8)
        )[y.plan.root_slot]
        np.testing.assert_array_equal(got, want)


@pytest.mark.usefixtures("hot_kernels")
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
        y = Uncertain(LyingGaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(y.node)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FusedFallbackWarning)
            with kernel_ran() as metrics:
                out = get_engine("fused").run(
                    plan, 20, np.random.default_rng(2)
                )[plan.root_slot]
        ref = NumpyEngine().run(plan, 20, np.random.default_rng(2))[
            plan.root_slot
        ]
        np.testing.assert_array_equal(out, ref)
        snap = metrics.snapshot()["fused"]
        assert (snap["kernels_built"], snap["kernels_rejected"]) == (1, 0)
        # The claimed family is never drawn: the leaf runs its own sample_n.
        source = fused_program(plan).source
        assert "standard_normal" not in source
        assert "_S0((), n, rng)" in source

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


@pytest.mark.usefixtures("hot_kernels")
class TestKernelCache:
    def test_isomorphic_plans_share_one_kernel(self):
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            p1 = compile_plan(gps_speed().node)
            p2 = compile_plan(gps_speed().node)
            eng = get_engine("fused")
            out1 = eng.run(p1, 44, np.random.default_rng(6))[p1.root_slot]
            out2 = eng.run(p2, 44, np.random.default_rng(6))[p2.root_slot]
        np.testing.assert_array_equal(out1, out2)
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_built"] == 1
        assert snap["kernel_hits"] == 1
        state = structural_state()
        assert state["kernels"] == 1
        assert state["kernels_verified"] == 1

    def test_kernel_reused_across_batches_without_rebuild(self):
        metrics = RuntimeMetrics()
        plan = compile_plan(gps_speed().node)
        eng = get_engine("fused")
        with evaluation_config(metrics=metrics):
            rng = np.random.default_rng(0)
            for _ in range(5):
                eng.run(plan, 10, rng)
        assert metrics.snapshot()["fused"]["kernels_built"] == 1


@pytest.mark.usefixtures("hot_kernels")
class TestIntrospection:
    def test_program_renders_coalesced_draws_and_chains(self):
        plan = compile_plan(gps_speed().node)
        get_engine("fused").run(plan, 8, np.random.default_rng(0))
        prog = fused_program(plan)
        assert isinstance(prog, FusedProgram)
        hist = prog.op_histogram()
        # Two coalesced 2-leaf draws: each pair is read before the next
        # is drawn, so a block never outlives its readers.
        assert hist["standard_normal"] == 4
        assert hist["-"] == 2 and hist["+"] >= 2 and hist["/"] == 1
        assert prog.source.count("rng.standard_normal(2 * n)") == 2

    def test_fused_step_repr_lists_constituent_ops(self):
        plan = compile_plan(gps_speed().node)
        prog = fused_program(plan)
        reprs = [repr(s) for s in prog.steps]
        assert any("standard_normal ×2" in r for r in reprs)
        assert any("FusedStep" in r for r in reprs)
        described = prog.describe()
        assert "generated source" in described

    def test_plain_plan_steps_unaffected(self):
        plan = compile_plan((Uncertain(Gaussian(0, 1)) + 1.0).node)
        assert "PlanStep" in repr(plan.steps[0])
        assert plan.op_histogram()  # per-kind histogram still works


def speed_plan():
    """A fresh graph of the gps_speed shape."""
    return compile_plan(gps_speed().node)


def run_fused(plan, n=16, seed=0):
    return get_engine("fused").run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]


def run_numpy(plan, n=16, seed=0):
    return NumpyEngine().run(plan, n, np.random.default_rng(seed))[
        plan.root_slot
    ]


class TestTieredKernels:
    """The real threshold: a shape's kernel is built on its
    ``_HOT_RUNS``-th run, and its earlier runs are the NumPy engine's."""

    def test_threshold_is_a_tier(self):
        assert fused._HOT_RUNS > 1

    def test_cold_runs_build_nothing_and_match_numpy(self, monkeypatch):
        calls = []
        real = certify.certify_kernel
        monkeypatch.setattr(
            certify,
            "certify_kernel",
            lambda spec, plan: calls.append(plan) or real(spec, plan),
        )
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            for seed in range(fused._HOT_RUNS - 1):
                plan = speed_plan()
                got, want = run_fused(plan, 64, seed), run_numpy(plan, 64, seed)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
        assert calls == []
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_built"] == snap["kernel_hits"] == 0
        assert structural_state()["kernels"] == 0
        assert plan._fused is None
        run_fused(speed_plan())  # the hot run certifies
        assert len(calls) == 1

    def test_runs_are_counted_per_shape_across_graphs(self):
        for seed in range(fused._HOT_RUNS - 1):
            run_fused(speed_plan(), seed=seed)
            run_fused(fig08_plan(), seed=seed)
        speed, fig08 = speed_plan(), fig08_plan()
        assert speed.shape is not fig08.shape
        assert speed.shape.runs == fig08.shape.runs == fused._HOT_RUNS - 1
        assert structural_state()["kernels"] == 0

    def test_kth_run_builds_and_later_graphs_hit(self):
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            for seed in range(fused._HOT_RUNS):
                assert metrics.snapshot()["fused"]["kernels_built"] == 0
                plan = speed_plan()
                run_fused(plan, seed=seed)
            assert metrics.snapshot()["fused"]["kernels_built"] == 1
            later = speed_plan()
            got = run_fused(later, seed=9)
        snap = metrics.snapshot()["fused"]
        assert (snap["kernels_built"], snap["kernel_hits"]) == (1, 1)
        assert later.shape.kernel is plan.shape.kernel
        assert structural_state()["kernels_verified"] == 1
        np.testing.assert_array_equal(got, run_numpy(later, seed=9))

    def test_sprt_crossing_the_switch_matches_numpy(self):
        # Pr[x > 0.1] is about 0.46, close enough to 0.5 that the SPRT
        # draws many 10-row batches: the first run NumPy, later a kernel.
        def question():
            return Uncertain(Gaussian(0.0, 1.0)) > 0.1

        with evaluation_config(engine="numpy"):
            want = question().test(0.5, rng=3)
        metrics = RuntimeMetrics()
        with evaluation_config(engine="fused", metrics=metrics):
            got = question().test(0.5, rng=3)
        assert metrics.snapshot()["fused"]["kernels_built"] == 1
        assert got.samples_used > 10 * fused._HOT_RUNS
        assert got == want

    def test_adaptive_expectation_crossing_the_switch_matches_numpy(self):
        with evaluation_config(engine="numpy"):
            want = expected_value_adaptive(gps_speed(), tolerance=0.2, rng=4)
        metrics = RuntimeMetrics()
        with evaluation_config(engine="fused", metrics=metrics):
            got = expected_value_adaptive(gps_speed(), tolerance=0.2, rng=4)
        assert metrics.snapshot()["fused"]["kernels_built"] == 1
        assert got[1] > 100 * fused._HOT_RUNS
        assert got == want

    def make_hot(self):
        for seed in range(fused._HOT_RUNS):
            plan = speed_plan()
            run_fused(plan, seed=seed)
        assert plan.shape.kernel.verified
        return plan

    def test_eviction_drops_the_kernel_with_its_entry(self, monkeypatch):
        hot = self.make_hot()
        monkeypatch.setattr(STRUCTURAL_CACHE, "limit", 1)
        fig08_plan()  # a new shape evicts the hot one
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            fresh = speed_plan()
            run_fused(fresh)
        assert fresh.shape is not hot.shape
        assert fresh.shape.kernel is None
        assert metrics.snapshot()["fused"]["kernels_built"] == 0

    def test_clear_caches_drops_the_kernel(self):
        self.make_hot()
        assert structural_state()["kernels"] == 1
        clear_caches()
        assert structural_state()["kernels"] == 0
        fresh = speed_plan()
        assert fresh.shape.kernel is None and fresh.shape.runs == 0

    def test_rejected_verdict_stays_on_the_entry(self, monkeypatch):
        def broken_generator(plan):
            raise RuntimeError("generator bug")

        monkeypatch.setattr(fused, "_generate", broken_generator)
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics), warnings.catch_warnings(
            record=True
        ) as caught:
            warnings.simplefilter("always", FusedFallbackWarning)
            for seed in range(fused._HOT_RUNS + 2):
                plan = speed_plan()
                got = run_fused(plan, 20, seed)
                np.testing.assert_array_equal(got, run_numpy(plan, 20, seed))
        assert len(caught) == 1
        assert "generation failed" in str(caught[0].message)
        snap = metrics.snapshot()["fused"]
        assert (snap["kernels_rejected"], snap["kernels_built"]) == (1, 0)
        state = structural_state()
        assert (state["kernels"], state["kernels_verified"]) == (1, 0)
        assert not plan.shape.kernel.verified

    def test_fused_program_builds_on_demand(self):
        plan = speed_plan()
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            assert isinstance(fused_program(plan), FusedProgram)
            run_fused(speed_plan())
        assert plan.shape.runs == 0
        snap = metrics.snapshot()["fused"]
        assert (snap["kernels_built"], snap["kernel_hits"]) == (1, 1)

    def test_concurrent_cold_and_hot_runs_match_numpy(self):
        # The run count is unlocked: a lost update delays a build and two
        # threads may both build, but every answer must still be NumPy's.
        failures = []

        def worker(index):
            try:
                for i in range(12):
                    plan = speed_plan() if i % 2 else fig08_plan()
                    seed = 100 * index + i
                    got, want = run_fused(plan, 32, seed), run_numpy(plan, 32, seed)
                    if not np.array_equal(got, want):
                        failures.append((index, i))
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert structural_state()["kernels_verified"] == 2


#: Leaf makers with non-identity affine parameters, one per bulk family.
_RUN_LEAVES = {
    "gaussian": lambda i: Gaussian(1.5 + i, 0.5 + 0.25 * i),
    "uniform": lambda i: Uniform(-2.0 + i, 3.0 + 2.0 * i),
    "exponential": lambda i: Exponential(0.75 + i),
}


@pytest.mark.usefixtures("hot_kernels")
class TestInPlaceDraws:
    """Coalesced and single-leaf draws are scaled and shifted in place on
    the generator's fresh array: the same values as the NumPy engine, and
    no second block."""

    @pytest.mark.parametrize("family", sorted(_RUN_LEAVES))
    @pytest.mark.parametrize("leaves", [1, 3])
    def test_in_place_emission_is_bit_identical(self, family, leaves):
        make = _RUN_LEAVES[family]
        xs = [Uncertain(make(i)) for i in range(leaves)]
        value = xs[0] if leaves == 1 else (xs[0] * 3.0 - xs[1]) / xs[2]
        plan = compile_plan(value.node)
        with kernel_ran():
            for seed in (0, 7, 12345):
                for n in (1, 7, 2000):
                    got = run_fused(plan, n, seed)
                    want = run_numpy(plan, n, seed)
                    assert got.dtype == want.dtype == np.float64
                    np.testing.assert_array_equal(got, want)
        source = fused_program(plan).source
        assert "v0 *= _scale0" in source or "_d0 *= _scale0" in source
        assert "_loc0 + _scale0 *" not in source

    def test_coalesced_kernel_peak_stays_near_one_block(self):
        plan = compile_plan(_corpus_gps_window().node)
        eng = get_engine("fused")
        eng.run(plan, 8, np.random.default_rng(0))  # build and admit
        ops = [op for step in fused_program(plan).steps for op in step.ops]
        # The 18 fixes are drawn as four blocks, each read before the
        # next is drawn: the middle fixes and the end fixes of each
        # coordinate's window.
        runs = [op for op in ops if op.startswith("standard_normal")]
        assert runs == ["standard_normal ×7", "standard_normal ×2"] * 2
        n = 20_000
        row = n * 8
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            eng.run(plan, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 7-leaf block, the two single draws and a few temporaries
        # (the 18-leaf block alone was 18 rows).
        assert peak < 14 * row
