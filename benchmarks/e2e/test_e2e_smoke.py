"""Smoke test of the end-to-end benchmark.

Runs every workload for one second, untraced and traced, in a fresh
process each, and checks that every metric named in ``BENCHMARK.json`` is
printed with its unit, that no query failed and no checked answer was
wrong, and that the traced run's per-layer self times add up to its traced
wall time.  Two unit tests cover the window accounting and the self-time
partition.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.report import MIN_WINDOWS, REFERENCE_PROBE_S, timing
from benchmarks.e2e.tracing import self_times
from benchmarks.e2e.workloads import Outcome, Window

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "11", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    printed, result = _run(workload, trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert printed["mismatches"][0] == 0
    if trace:
        assert abs(printed["trace.coverage_ratio"][0] - 1.0) <= 0.1


def test_timing_scales_full_speed_closed_loop_windows():
    fast = Window(0.0, probe=1e-3, traced=False, stop=1.0, latencies=[0.01] * 100)
    slow = Window(1.0, probe=2e-3, traced=False, stop=2.0, latencies=[0.02] * 50)
    traced = Window(2.0, probe=1e-3, traced=True, stop=3.0, latencies=[0.01] * 90)
    windows = [fast] * MIN_WINDOWS + [slow, traced]
    qps, latencies, counted = timing(Outcome(windows, False, 0, 0))
    scale = REFERENCE_PROBE_S / 1e-3  # the slow window is left out
    assert qps == pytest.approx(100 / scale)
    assert latencies == pytest.approx([0.01 * scale] * 100 * MIN_WINDOWS)
    assert counted == pytest.approx(MIN_WINDOWS / (MIN_WINDOWS + 1))
    # An open loop counts the same windows, as measured.
    qps, latencies, counted = timing(Outcome(windows, True, 0, 0))
    assert qps == pytest.approx(100)
    assert latencies == pytest.approx([0.01] * 100 * MIN_WINDOWS)


def _span(name, start, end, thread="main", **attrs):
    return {"name": name, "start": start, "duration": end - start,
            "attrs": {"thread": thread, **attrs}}


def test_self_times_partition_wall_time():
    spans = [
        _span("workload.x", 0.0, 10.0),
        _span("query.E", 1.0, 5.0),
        _span("plan.compile", 2.0, 3.0),
        _span("uncertain.build", 6.0, 7.0),
        # Worker-thread work overlapping the main thread's build span:
        # the main thread's layer span wins the overlap.
        _span("coalescer.evaluate_batch", 6.5, 9.0, thread="worker"),
        _span("engine.fused.sample", 8.0, 8.5, thread="worker"),
        _span("service.submit", 0.5, 9.5, concurrent=True),
    ]
    totals, counts, wall = self_times(spans)
    assert wall == 10.0
    assert totals["plan.compile"] == 1.0
    assert totals["requests.reduce"] == 3.0
    assert totals["uncertain.build"] == 1.0
    assert totals["coalescer"] == 1.5
    assert totals["engines"] == 0.5
    assert totals["harness"] == 3.0
    assert sum(totals.values()) == pytest.approx(wall)
