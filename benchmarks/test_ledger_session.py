"""Analyst-session benchmark: cross-query sample reuse on the fig08 plan.

An analyst working a dashboard re-asks the same questions of the same
model — re-run the walking test after a parameter glance, refresh the
expectation, re-plot the percentile curve.  Ledger-off, every repeat
pays a full engine run over the ~110-node GPS plan; ledger-on, the
first session fills the sample ledger and every later session serves
the identical rows from cache (replay-mode exact-``n`` memo hits for
this multi-leaf plan), bit-identical seed-for-seed.

Writes ``BENCH_ledger.json`` (with host metadata) and asserts the
ledger delivers at least the 2x wall-clock win the repeated-query
workload is entitled to.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._host import stamp_host
from benchmarks.test_plan_compilation import _fig08_root
from repro.core.conditionals import evaluation_config
from repro.core.ledger import clear_ledger
from repro.core.uncertain import Uncertain, UncertainBool
from repro.runtime import stats
from repro.runtime.metrics import RuntimeMetrics

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ledger.json"

SESSIONS = 6
E_SAMPLES = 1_000
TAIL_SAMPLES = 10_000
MIN_SPEEDUP = 2.0


def _queries():
    """The fig08 walking-speed conditional plus its float speed estimate."""
    node = _fig08_root()
    walking = UncertainBool.from_node(node)
    speed = Uncertain.from_node(node.parents[0])
    return walking, speed


def _analyst_session(walking, speed) -> dict:
    """One dashboard refresh: SPRT verdict, mean, interval, curve.

    Every query carries a fixed int seed — the analyst's repeated
    queries are deterministic reruns, the ledger's best case and the
    bit-identity contract's strictest one.
    """
    verdict = walking.test(0.5, rng=101)
    return {
        "decision": str(verdict.decision),
        "samples_used": verdict.samples_used,
        "E": float(speed.expected_value(E_SAMPLES, rng=202)),
        "CI": [float(x) for x in speed.confidence_interval(0.95, samples=TAIL_SAMPLES, rng=303)],
        "pct": speed.percentiles(20, samples=TAIL_SAMPLES, rng=404).tolist(),
    }


def _run_sessions(sample_cache: bool):
    clear_ledger()
    walking, speed = _queries()  # fresh graph: both modes pay compilation
    metrics = RuntimeMetrics()
    sessions = []
    start = time.perf_counter()
    with evaluation_config(engine="numpy", sample_cache=sample_cache, metrics=metrics):
        for _ in range(SESSIONS):
            sessions.append(_analyst_session(walking, speed))
    elapsed = time.perf_counter() - start
    state = stats()["ledger"]
    clear_ledger()
    return sessions, elapsed, metrics.snapshot()["ledger"], state


def test_ledger_analyst_session():
    off_sessions, off_seconds, _, _ = _run_sessions(sample_cache=False)
    on_sessions, on_seconds, on_ledger, on_state = _run_sessions(sample_cache=True)

    # Bit-identity: the ledger changes when samples are drawn, never
    # what they are.  Every session's verdict, mean, interval, and
    # percentile curve must match the fresh-run answers exactly.
    assert on_sessions == off_sessions
    # All sessions within a mode repeat the same seeded queries, so
    # they agree with each other too (sanity on the workload itself).
    assert all(s == off_sessions[0] for s in off_sessions)

    speedup = off_seconds / on_seconds
    result = {
        "workload": {
            "plan": "fig08 GPS walking-speed DAG",
            "sessions": SESSIONS,
            "queries_per_session": ["sprt_test", "expected_value", "confidence_interval", "percentiles"],
            "expectation_samples": E_SAMPLES,
            "tail_samples": TAIL_SAMPLES,
            "engine": "numpy",
        },
        "ledger_off": {"seconds": off_seconds},
        "ledger_on": {
            "seconds": on_seconds,
            "metrics": on_ledger,
            "entries": on_state["entries"],
            "modes": on_state["modes"],
        },
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    stamp_host(result)
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(
        f"analyst session x{SESSIONS}: ledger off {off_seconds:.3f}s, "
        f"on {on_seconds:.3f}s -> {speedup:.2f}x "
        f"(rows reused {on_ledger['rows_reused']}, drawn {on_ledger['rows_drawn']})"
    )

    # The repeated-query workload must be at least 2x faster with the
    # ledger on, and the win must come from actual row reuse.
    assert on_ledger["rows_reused"] > 0
    assert on_ledger["hits"] > 0
    assert speedup >= MIN_SPEEDUP, (
        f"ledger speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor "
        f"({off_seconds:.3f}s -> {on_seconds:.3f}s)"
    )
