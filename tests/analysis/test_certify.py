"""Stream-safety certifier tests: the zero-false-accept contract.

The certifier replaces the probe run for kernels it can prove
stream-equivalent, so its one non-negotiable property is that **every
statically certified kernel would also have passed the probe**.  The
differential harness here force-runs the dynamic bit-identity check on
every certified kernel across the CLI corpus plus randomized plans and
asserts zero divergences — and separately that coverage is useful
(>= 80% of fusable kernels certify without the probe).
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
from repro.core.engines import get_engine
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


def _certified_kernel_passes_probe(value: Uncertain) -> tuple[str, bool]:
    """Generate + certify the kernel for ``value``; force-run the probe.

    Returns ``(status, probe_ok)`` where ``probe_ok`` is only meaningful
    for certified kernels (the zero-false-accept check).
    """
    plan = compile_plan(value.node)
    opt = plan.optimized(2)
    if opt.structural_hash is None:
        return "opaque", True
    try:
        spec = fused_mod._generate(opt)
    except Exception:
        return "nofuse", True
    record = certify_kernel(spec, opt)
    if record.status != "certified":
        return record.status, True
    S, F, G, K, R = fused_mod._binding_args(spec, opt)
    kernel = spec.factory(np, fused_mod._chk, S, F, G, K, R)
    ok = fused_mod._verify(kernel, opt, get_engine("numpy"))
    return "certified", ok


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
        """The acceptance gate: certified => probe passes, coverage >= 80%."""
        statuses = []
        targets = [fn() for fn in CERTIFY_CORPUS.values()]
        rng = random.Random(2014)
        targets += [_random_fusable(rng) for _ in range(40)]
        for value in targets:
            status, probe_ok = _certified_kernel_passes_probe(value)
            assert probe_ok, (
                f"FALSE ACCEPT: statically certified kernel diverged from "
                f"the numpy engine for {value!r}"
            )
            statuses.append(status)
        fusable = [s for s in statuses if s in ("certified", "probe")]
        assert fusable, "corpus produced no fusable kernels"
        coverage = statuses.count("certified") / len(fusable)
        assert coverage >= 0.80, (
            f"certifier only covers {coverage:.0%} of fusable kernels "
            f"(statuses: {statuses})"
        )


class TestCertifyKernel:
    def test_trusted_families_certify(self):
        value = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 1))
        plan = compile_plan(value.node).optimized(2)
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert record.status == "certified"
        assert record.subject == "fused-kernel"
        assert record.name == "kernel-certify"
        families = sorted(e.family for e in record.draw_sequence)
        assert families == ["random", "standard_normal"]

    def test_untrusted_subclass_defers_to_probe(self):
        class HomemadeGaussian(Gaussian):
            pass

        value = Uncertain(HomemadeGaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(value.node).optimized(2)
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert record.status == "probe"
        assert any("not a trusted" in r for r in record.reasons)

    def test_bool_scalar_defers_to_probe(self):
        # Python bools promote differently inlined vs. materialized under
        # NEP 50; the certifier must not claim this case statically.
        value = Uncertain(Gaussian(0.0, 1.0)) + True
        plan = compile_plan(value.node).optimized(2)
        spec = fused_mod._generate(plan)
        record = certify_kernel(spec, plan)
        assert record.status in ("probe", "certified")
        if record.status == "probe":
            assert any("scalar" in r for r in record.reasons)

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
        opt = plan.optimized(2)
        record = certify_rewrite(plan, opt)
        assert record.certified
        assert record.subject == "optimizer-rewrite"
        assert record.name == "stream-certify"

    def test_optimizer_provenance_carries_certificate(self):
        value = Uncertain(Gaussian(0, 1)) + (
            Uncertain.pointmass(1.0) + Uncertain.pointmass(2.0))
        opt = compile_plan(value.node).optimized(2)
        records = [r for r in opt.provenance
                   if isinstance(r, CertificationRecord)]
        assert len(records) == 1
        assert records[0].certified
        assert opt.certification_records() == tuple(records)

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
        assert report["status"] == "probe"
        assert any("opaque" in reason
                   for r in report["records"] for reason in r["reasons"])

    def test_record_round_trips_to_dict(self):
        report = certify_value(Uncertain(Uniform(0, 1)) * 2.0)
        for record in report["records"]:
            assert record["name"] in ("stream-certify", "kernel-certify")
            assert record["status"] in ("certified", "probe", "rejected")
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
            plan = compile_plan(value.node).optimized(2)
            assert metrics.snapshot()["fused"]["kernels_certified"] == 0
            with evaluation_config(metrics=metrics):
                get_engine("fused").run(plan, 8, np.random.default_rng(seed))
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_certified"] == 1
        assert snap["kernels_probed"] == 0
        records = certification_records(plan)
        assert any(r.subject == "fused-kernel" and r.certified
                   for r in records)

    def test_untrusted_kernel_still_probes(self, hot_kernels):
        class HonestCustom(Gaussian):
            pass

        value = Uncertain(HonestCustom(0.0, 1.0)) + 1.0
        plan = compile_plan(value.node).optimized(2)
        with kernel_ran() as metrics:
            out = get_engine("fused").run(
                plan, 8, np.random.default_rng(0))[plan.root_slot]
        ref = get_engine("numpy").run(
            plan, 8, np.random.default_rng(0))[plan.root_slot]
        np.testing.assert_array_equal(out, ref)
        snap = metrics.snapshot()["fused"]
        assert snap["kernels_probed"] == 1
        assert snap["kernels_certified"] == 0
