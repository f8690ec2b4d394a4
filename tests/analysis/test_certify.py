"""Stream-safety certifier tests: the zero-false-accept contract.

The certifier is the only gate a fused kernel passes before it runs, so
its one non-negotiable property is that **every certified kernel is
bit-identical to the numpy engine**.  The differential harness here runs
every generated kernel across the CLI corpus plus randomized plans
against ``NumpyEngine.run`` and asserts zero divergences — and that the
generator, which consults the certifier's own rules, emits only
certified kernels.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.certify import (
    TRUSTED_BULK_FAMILIES,
    CertificationRecord,
    certification_records,
    certify_kernel,
    certify_rewrite,
    certify_value,
    plan_draw_sequence,
)
from repro.analysis.demos import CERTIFY_CORPUS
from repro.core import fused as fused_mod
from repro.core.engines import NumpyEngine, get_engine
from repro.core.fused import fused_program
from repro.core.plan import compile_plan
from repro.core.structural import clear_structural_cache
from repro.core.uncertain import Uncertain
from repro.dists import Exponential, Gaussian, Uniform
from tests.kernel_path import kernel_ran


@pytest.fixture(autouse=True)
def _fresh_kernels():
    clear_structural_cache()
    yield
    clear_structural_cache()


def _kernel_matches_numpy(value: Uncertain) -> tuple[str, bool]:
    """Generate + certify the kernel for ``value`` and run it against
    ``NumpyEngine.run`` for two seeds and two batch sizes.

    Returns ``(status, identical)``: values, dtype and shape all equal.
    """
    opt = compile_plan(value.node).optimized()
    if opt.structural_hash is None:
        return "opaque", True
    spec = fused_mod._generate(opt)
    status = certify_kernel(spec, opt).status
    S, F, G, K, R = fused_mod._binding_args(spec, opt)
    kernel = spec.factory(np, fused_mod._chk, S, F, G, K, R)
    for seed in (12345, 67890):
        for n in (3, 17):
            want = np.asarray(NumpyEngine().run(
                opt, n, np.random.default_rng(seed))[opt.root_slot])
            got = np.asarray(kernel(n, np.random.default_rng(seed)))
            if (got.dtype != want.dtype or got.shape != want.shape
                    or not np.array_equal(got, want,
                                          equal_nan=want.dtype.kind in "fc")):
                return status, False
    return status, True


def _random_fusable(rng: random.Random) -> Uncertain:
    """Random plans over trusted families, scalar mixes, and ufunc maps."""
    leaves = []
    for _ in range(rng.randint(2, 5)):
        kind = rng.choice(["gauss", "uniform", "expo", "point"])
        if kind == "gauss":
            leaves.append(Uncertain(Gaussian(rng.uniform(-1, 1), 1.0)))
        elif kind == "uniform":
            leaves.append(Uncertain(Uniform(0.5, 2.0)))
        elif kind == "expo":
            leaves.append(Uncertain(Exponential(1.0)))
        else:
            leaves.append(Uncertain.pointmass(rng.choice([2, 2.5, -3.0])))
    exprs = list(leaves)
    for _ in range(rng.randint(3, 8)):
        op = rng.choice(["+", "-", "*", "/", "scalar", "cmp", "sqrt"])
        a = rng.choice(exprs)
        b = rng.choice(exprs)
        if op == "scalar":
            exprs.append(a + rng.choice([1, 1.5, -2.0, True]))
        elif op == "cmp":
            exprs.append(a > b)
        elif op == "sqrt":
            exprs.append((a * a).map(np.sqrt, vectorized=True))
        else:
            exprs.append({"+": a + b, "-": a - b,
                          "*": a * b, "/": a / b}[op])
    return exprs[-1]


class TestDifferentialHarness:
    def test_zero_false_accepts_and_useful_coverage(self):
        """The acceptance gate: every kernel certifies and equals numpy."""
        targets = [fn() for fn in CERTIFY_CORPUS.values()]
        rng = random.Random(2014)
        targets += [_random_fusable(rng) for _ in range(40)]
        for value in targets:
            status, identical = _kernel_matches_numpy(value)
            assert identical, (
                f"generated kernel diverged from the numpy engine for "
                f"{value!r} (certifier status {status!r})"
            )
            assert status == "certified", (
                f"generated kernel for {value!r} is {status!r}, not certified"
            )


class TestCertifyKernel:
    def test_trusted_families_certify(self):
        value = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 1))
        plan = compile_plan(value.node).optimized()
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert record.status == "certified"
        assert record.subject == "fused-kernel"
        assert record.name == "kernel-certify"
        families = sorted(e.family for e in record.draw_sequence)
        assert families == ["random", "standard_normal"]

    def test_untrusted_subclass_defers_to_probe(self):
        # A subclass inherits bulk_draw_spec but may override sample_n:
        # the generator delegates its leaf instead of coalescing it.
        class HomemadeGaussian(Gaussian):
            pass

        value = Uncertain(HomemadeGaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(value.node).optimized()
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert spec.runs == ()
        assert "standard_normal" not in spec.source
        assert record.status == "certified"
        assert [e.family for e in record.draw_sequence] == ["delegated"]

    def test_bool_scalar_defers_to_probe(self):
        # Python bools promote differently inlined vs. materialized under
        # NEP 50: the generator materializes the constant, as the engine
        # does, and the kernel certifies.
        value = Uncertain(Gaussian(0.0, 1.0)) + True
        plan = compile_plan(value.node).optimized()
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert "np.full(n, _K0)" in spec.source
        assert record.status == "certified"

    def test_inlined_bool_scalar_is_rejected(self):
        value = Uncertain(Gaussian(0.0, 1.0)) + True
        plan = compile_plan(value.node).optimized()
        spec = fused_mod._generate(plan)
        # The kernel a generator that ignored the NEP 50 rule would emit.
        spec.steps_meta = tuple(m for m in spec.steps_meta
                                if m[2] != ("const",))
        record = certify_kernel(spec, plan)
        assert record.status == "rejected"
        assert record.rule == "UNC401"
        assert any("python bool constant" in r for r in record.reasons)

    def test_trust_table_is_exact_types_only(self):
        assert ("repro.dists.gaussian", "Gaussian") in TRUSTED_BULK_FAMILIES

        class Impostor(Gaussian):
            pass

        key = (Impostor.__module__, Impostor.__qualname__)
        assert key not in TRUSTED_BULK_FAMILIES


class TestCertifyRewrite:
    def test_preserved_sources_certify(self):
        value = Uncertain(Gaussian(0, 1)) * (
            Uncertain.pointmass(2.0) + Uncertain.pointmass(3.0))
        plan = compile_plan(value.node)
        opt = plan.optimized()
        record = certify_rewrite(plan, opt)
        assert record.certified
        assert record.subject == "optimizer-rewrite"
        assert record.name == "stream-certify"

    def test_optimizer_provenance_carries_certificate(self):
        value = Uncertain(Gaussian(0, 1)) + (
            Uncertain.pointmass(1.0) + Uncertain.pointmass(2.0))
        opt = compile_plan(value.node).optimized()
        records = [r for r in opt.provenance
                   if isinstance(r, CertificationRecord)]
        assert len(records) == 1
        assert records[0].certified
        assert certification_records(opt) == tuple(records)

    def test_reordered_sources_rejected(self):
        a = Uncertain(Gaussian(0.0, 1.0))
        b = Uncertain(Uniform(0.0, 1.0))
        plan = compile_plan((a + b).node)
        swapped = compile_plan((b + a).node)
        record = certify_rewrite(plan, swapped)
        assert record.status == "rejected"
        assert record.rule == "UNC401"

    def test_dropped_source_rejected(self):
        a = Uncertain(Gaussian(0.0, 1.0))
        b = Uncertain(Uniform(0.0, 1.0))
        record = certify_rewrite(
            compile_plan((a + b).node), compile_plan(a.node))
        assert record.status == "rejected"
        assert record.rule == "UNC401"


class TestDrawSequence:
    def test_coalesces_adjacent_same_family(self):
        value = sum(
            [Uncertain(Gaussian(0, 1)) for _ in range(4)],
            Uncertain.pointmass(0.0),
        )
        plan = compile_plan(value.node)
        events = plan_draw_sequence(plan)
        normals = [e for e in events if e.family == "standard_normal"]
        assert len(normals) == 1 and normals[0].count == 4

    def test_untrusted_leaves_marked_delegated(self):
        from repro.dists import Beta

        value = Uncertain(Beta(2.0, 3.0)) + Uncertain(Gaussian(0, 1))
        plan = compile_plan(value.node)
        events = plan_draw_sequence(plan)
        assert any(e.family == "delegated" for e in events)
        assert any(e.family == "standard_normal" for e in events)


class TestCertifyValue:
    def test_report_shape(self):
        report = certify_value(Uncertain(Gaussian(0, 1)) + 1.0)
        assert report["status"] == "certified"
        assert {r["subject"] for r in report["records"]} == {
            "optimizer-rewrite", "fused-kernel"}
        assert all(r["structural_hash"] for r in report["records"])

    def test_opaque_plan_reports_probe(self):
        value = Uncertain(Gaussian(0, 1)).map(lambda v: v * 2.0)
        report = certify_value(value)
        assert report["status"] == "fallback"
        assert any("opaque" in reason
                   for r in report["records"] for reason in r["reasons"])

    def test_record_round_trips_to_dict(self):
        report = certify_value(Uncertain(Uniform(0, 1)) * 2.0)
        for record in report["records"]:
            assert record["name"] in ("stream-certify", "kernel-certify")
            assert record["status"] in ("certified", "fallback", "rejected")
            assert isinstance(record["reasons"], list)


class TestRuntimeIntegration:
    def test_certified_kernel_skips_probe_and_counts(self):
        # The kernel is built, and certified, on the shape's hot run; the
        # cold runs before it certify nothing.
        from repro.core.conditionals import evaluation_config
        from repro.runtime.metrics import RuntimeMetrics

        metrics = RuntimeMetrics()
        for seed in range(fused_mod._HOT_RUNS):
            value = Uncertain(Gaussian(0, 1)) + Uncertain(Exponential(1.0))
            plan = compile_plan(value.node).optimized()
            assert metrics.snapshot()["fused"]["kernels_built"] == 0
            with evaluation_config(metrics=metrics):
                get_engine("fused").run(plan, 8, np.random.default_rng(seed))
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_built"] == 1
        records = certification_records(plan)
        assert any(r.subject == "fused-kernel" and r.certified
                   for r in records)

    def test_untrusted_kernel_still_probes(self, hot_kernels):
        # Nothing is probed: the untrusted leaf is delegated to its own
        # sample_n, and the kernel certifies and matches numpy.
        class HonestCustom(Gaussian):
            pass

        value = Uncertain(HonestCustom(0.0, 1.0)) + 1.0
        plan = compile_plan(value.node).optimized()
        with kernel_ran() as metrics:
            out = get_engine("fused").run(
                plan, 8, np.random.default_rng(0))[plan.root_slot]
        ref = get_engine("numpy").run(
            plan, 8, np.random.default_rng(0))[plan.root_slot]
        np.testing.assert_array_equal(out, ref)
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_built"] == 1
        assert snap["kernels_rejected"] == 0
        assert "standard_normal" not in fused_program(plan).source
