"""Microbenchmark: static analysis must stay cheap enough for compile time.

``evaluation_config(plan_analyzer=warn_on_diagnostics)`` runs the abstract interpreter
once per freshly compiled plan, inside the sampling path.  For that to be
a reasonable default to recommend, a full ``analyze_plan`` — interval
*and* affine inference plus all rule checks — over a fig08-style
shared-subexpression network has to complete in well under a millisecond.
The same budget applies to the stream-safety certifier, which runs once
per fresh kernel inside ``_prepare`` and is the kernel's only admission
gate: certifying a rewrite plus a fused kernel must also stay under a
millisecond.  This bench builds such a graph (~60 slots, heavy node
sharing, a mix of arithmetic, comparisons, point masses and a division),
measures both passes, asserts the <1 ms budgets, and records the numbers
in the benchmark JSON.
"""

from __future__ import annotations

import time

from repro.analysis import analyze_plan
from repro.analysis.certify import certify_kernel, certify_rewrite
from repro.analysis.intervals import infer_intervals
from repro.core import fused as fused_mod
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian, Uniform

REPEATS = 200
BUDGET_SECONDS = 1e-3


def _fig08_style_root():
    """A shared-subexpression network in the spirit of Figure 8.

    Chains of ``acc = (acc + x) * y`` reuse the same leaves throughout, so
    nearly every slot is consumed more than once; a constant unit
    conversion and a final evidence comparison make all rule checks do
    real work.
    """
    x = Uncertain(Gaussian(0.0, 1.0), label="X")
    y = Uncertain(Uniform(0.5, 1.5), label="Y")
    acc = x
    for _ in range(12):
        acc = (acc + x) * y
    scale = Uncertain.pointmass(3600.0) / Uncertain.pointmass(1609.344)
    scaled = acc * scale
    safe = scaled / (y + 1.0)  # divisor support [1.5, 2.5]: no finding
    evidence = safe > 4.0
    return evidence.node


def _best_seconds(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_analysis_under_one_millisecond_per_plan(benchmark):
    root = _fig08_style_root()
    plan = compile_plan(root)
    assert len(plan.steps) >= 30, "workload should be a non-trivial network"

    diagnostics = benchmark.pedantic(
        analyze_plan, args=(plan,), rounds=REPEATS, iterations=1
    )
    # The graph is clean except the deliberate constant sub-DAG.
    assert [d.rule for d in diagnostics] == ["UNC105"]

    best_full = _best_seconds(analyze_plan, plan)
    best_intervals = _best_seconds(infer_intervals, plan)
    print(
        f"\nanalysis of {len(plan.steps)}-slot fig08-style plan: "
        f"full pass {best_full * 1e6:.0f} us, "
        f"intervals only {best_intervals * 1e6:.0f} us "
        f"(budget {BUDGET_SECONDS * 1e3:.1f} ms)"
    )
    assert best_full < BUDGET_SECONDS, (
        f"analyze_plan took {best_full * 1e3:.3f} ms, over the "
        f"{BUDGET_SECONDS * 1e3:.1f} ms compile-time budget"
    )


def test_certifier_under_one_millisecond_per_plan(benchmark):
    plan = compile_plan(_fig08_style_root())
    opt = plan.optimized()
    spec = fused_mod._generate(opt)

    def certify_both():
        certify_rewrite(plan, opt)
        return certify_kernel(spec, opt)

    record = benchmark.pedantic(certify_both, rounds=REPEATS, iterations=1)
    assert record.status == "certified"

    best = _best_seconds(certify_both)
    print(
        f"\ncertification of {len(opt.steps)}-slot fig08-style plan: "
        f"rewrite + kernel {best * 1e6:.0f} us "
        f"(budget {BUDGET_SECONDS * 1e3:.1f} ms)"
    )
    assert best < BUDGET_SECONDS, (
        f"certifier took {best * 1e3:.3f} ms, over the "
        f"{BUDGET_SECONDS * 1e3:.1f} ms per-kernel budget"
    )
