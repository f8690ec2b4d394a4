"""Set up, run, check and report one workload (see ``run.py`` for usage)."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from time import perf_counter

import numpy as np

from benchmarks._host import host_metadata
from benchmarks.e2e import oracle, tracing
from benchmarks.e2e.workloads import WORKLOADS, Outcome, host_probe
from repro.core.fused import FusedFallbackWarning
from repro.evaluate import clear_caches
from repro.runtime import reset_stats, stats

SETUP_REPEATS = 5
IMPORT_CHILDREN = 2
SMOKE_SECONDS = 1.0
OUT_DIR = ".e2e_out"
#: A closed-loop window counts when its host probe took at most this
#: multiple of the run's fastest probe ...
PROBE_SLACK = 1.25
#: ... and the fastest-probed windows count in any case, up to this many.
MIN_WINDOWS = 8
#: Set-up and closed-loop time are scaled to a host on which
#: ``host_probe()`` takes this long (about this container's full speed).
REFERENCE_PROBE_S = 0.5e-3


def child_import_s(root) -> float:
    """Seconds a fresh interpreter takes for the imports this run made."""
    code = ("from time import perf_counter as t; s = t(); "
            "import benchmarks.e2e.report; print(t() - s)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
    child = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout)


def at_reference_speed(seconds: float) -> float:
    """``seconds`` of CPU work that just ended, scaled to the reference
    host speed by a host probe taken now."""
    return seconds * REFERENCE_PROBE_S / host_probe()


def run(args, root, imported_s: float) -> int:
    # Generated shapes legitimately divide by zero-crossing operands (IEEE
    # inf/NaN answers) and may fall back from the fused engine; both are
    # part of the workload, not worth a warning per query.
    warnings.simplefilter("ignore", FusedFallbackWarning)
    np.seterr(divide="ignore", invalid="ignore", over="ignore")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    children = 0 if args.smoke else IMPORT_CHILDREN
    imports = [at_reference_speed(imported_s)]
    imports += [at_reference_speed(child_import_s(root)) for _ in range(children)]
    workload = WORKLOADS[args.workload](args.seed, seconds, args.smoke)
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        clear_caches()
        reset_stats()
        start = perf_counter()
        workload.setup()
        setups.append(at_reference_speed(perf_counter() - start))
    setup_s = statistics.median(imports) + statistics.median(setups)
    # Keep full collections off the import-time heap, as long-running
    # services do: rescanning it made gen-2 pauses of 20-40 ms land in a
    # third of gps_flood's seconds and its p99 unrepeatable.
    gc.collect()
    gc.freeze()
    host = host_metadata()
    print(f"# e2e workload={args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# host {json.dumps(host, sort_keys=True)}")

    before = stats()
    if args.trace:
        tracer = tracing.ThreadTracer()
        probe = tracing.ServiceProbe()
        with tracing.instrumented(probe):
            outcome = workload.run(tracer)
    else:
        outcome = workload.run()
    after = stats()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked, mismatches = oracle.check(workload)
    qps, latencies, counted = timing(outcome)
    # Every workload is made of valid programs, so a failed query is a bug.
    correct = (checked > 0 and mismatches == 0 and outcome.failed == 0
               and outcome.attempted > 0)

    info = {
        "latency_samples": (len(latencies), "count"),
        "windows_counted": (counted, "fraction"),
        "error_ratio": (outcome.failed / max(1, outcome.attempted), "fraction"),
        "mismatches": (mismatches, "count"),
        "oracle_checked": (checked, "count"),
        "import_s": (statistics.median(imports), "s"),
    }
    if args.trace:
        metrics, extra, table = per_layer(workload, outcome, tracer, delta(before, after),
                                          after, probe)
        metrics["latency_p99_ms"] = (_ms(latencies, 99), "ms")
        info.update(extra)
        path = write_trace(root, args, host, tracer, table)
        print(f"# trace {path}")
        print("# layer self_s share spans")
        for layer, row in table.items():
            print(f"# {layer} {row['self_s']:.6f} {row['share']:.4f} {row['spans']}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_qps": (qps, "queries/s"),
            "latency_p50_ms": (_ms(latencies, 50), "ms"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        info["latency_p99_ms"] = (_ms(latencies, 99), "ms")
    info.update(outcome.info)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if len(values) else 0.0


def full_speed(windows) -> list:
    """The windows in which the shared host ran at full speed.

    Other tenants slow the host by up to half for seconds at a time; a
    window counts when its host probe took at most ``PROBE_SLACK`` times
    the run's fastest probe, and the ``MIN_WINDOWS`` fastest-probed windows
    count in any case.
    """
    probes = sorted(w.probe for w in windows)
    if not probes:
        return []
    limit = max(PROBE_SLACK * probes[0], probes[min(MIN_WINDOWS, len(probes)) - 1])
    return [w for w in windows if w.probe <= limit]


def timing(outcome: Outcome) -> tuple[float, list, float]:
    """(successful queries per second, their latencies in seconds, share
    of the untraced windows counted) over the untraced windows.

    Only the full-speed windows count.  A closed loop is CPU work on one
    thread, so their time is also scaled to the reference host speed; an
    open loop's latency includes queueing and the service's batching
    window, which do not scale with the host's speed, so it is kept as
    measured.
    """
    untraced = [w for w in outcome.windows if not w.traced]
    windows = full_speed(untraced)
    if outcome.open_loop:
        scales = [1.0] * len(windows)
    else:
        scales = [REFERENCE_PROBE_S / w.probe for w in windows]
    seconds = sum((w.stop - w.start) * k for w, k in zip(windows, scales))
    latencies = [x * k for w, k in zip(windows, scales) for x in w.latencies]
    return _ratio(len(latencies), seconds), latencies, _ratio(len(windows), len(untraced))


def delta(before: dict, after: dict) -> dict:
    """``after - before`` for every numeric leaf of a stats snapshot."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = delta(before.get(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _name(layer: str, suffix: str) -> str:
    """``uncertain.build`` + ``busy_s`` -> ``uncertain.build_busy_s``;
    ``engines`` + ``busy_s`` -> ``engines.busy_s``."""
    return f"{layer}{'_' if '.' in layer else '.'}{suffix}"


def tracing_overhead(windows) -> float:
    """CPU time per query in traced windows over untraced windows, minus one."""
    per_query = {
        traced: _ratio(sum(w.cpu for w in windows if w.traced is traced),
                       sum(w.sent for w in windows if w.traced is traced))
        for traced in (True, False)
    }
    if not (per_query[True] and per_query[False]):
        return 0.0  # a phase too short for both kinds of window
    return per_query[True] / per_query[False] - 1.0


def per_layer(workload, outcome: Outcome, tracer, d: dict, after: dict, probe):
    """(per-layer metrics, printed-only extras, self-time table)."""
    spans = tracer.as_dicts()
    totals, counts, wall = tracing.self_times(spans)
    queries = max(1, outcome.attempted)
    traced = max(1, sum(w.sent for w in outcome.windows if w.traced))
    metrics, extra, table = {}, {}, {}
    for layer, seconds in totals.items():  # LAYERS, plus "other" for unknown spans
        share = _ratio(seconds, wall)
        if layer in tracing.LAYERS:
            metrics[_name(layer, "self_share")] = (share, "fraction")
        extra[_name(layer, "busy_s")] = (seconds, "s")
        table[layer] = {"self_s": seconds, "share": share, "spans": counts.get(layer, 0)}

    plans, fused, tests, ledger = d["plans"], d["fused"], d["tests"], d["ledger"]
    engines = {k: sum(e.get(k, 0) for e in d["engines"].values())
               for k in ("batches", "samples", "seconds")}
    structural = plans["structural_hits"] + plans["structural_misses"]
    lookups = ledger["hits"] + ledger["misses"]
    svc = getattr(workload, "service_stats", {}) or {}
    requests = svc.get("requests_total", 0)
    metrics.update({
        "plan.compiles_per_query": (plans["compiled"] / queries, "count"),
        "structural.hit_ratio": (_ratio(plans["structural_hits"], structural), "fraction"),
        "optimizer.calls_per_query": (counts["optimizer"] / traced, "count"),
        "certify.calls_per_query": (counts["certify"] / traced, "count"),
        "fused.kernels_built_per_query": (fused["kernels_built"] / queries, "count"),
        "fused.kernel_hit_ratio": (
            _ratio(fused["kernel_hits"], fused["kernel_hits"] + fused["kernels_built"]),
            "fraction"),
        "engines.calls_per_query": (engines["batches"] / queries, "count"),
        "engines.rows_per_call": (_ratio(engines["samples"], engines["batches"]), "rows"),
        "engines.rows_per_s": (_ratio(engines["samples"], engines["seconds"]), "rows/s"),
        "ledger.hit_ratio": (_ratio(ledger["hits"], lookups), "fraction"),
        "ledger.rows_reused_ratio": (
            _ratio(ledger["rows_reused"], ledger["rows_reused"] + ledger["rows_drawn"]),
            "fraction"),
        "ledger.suffix_extensions": (ledger["suffix_extensions"], "count"),
        "ledger.evictions": (ledger["evictions"], "count"),
        "ledger.bytes": (after["ledger"]["bytes"], "bytes"),
        "sprt.tests_per_query": (tests["runs"] / queries, "count"),
        "sprt.steps_per_test": (_ratio(tests["sprt_steps"], tests["runs"]), "count"),
        "sprt.inconclusive_ratio": (_ratio(tests["inconclusive"], tests["runs"]), "fraction"),
        "service.batch_size_mean": (_ratio(requests, svc.get("batches", 0)), "requests"),
        "coalescer.groups_per_batch": (
            _ratio(svc.get("groups", 0), svc.get("batches", 0)), "count"),
        "coalescer.engine_runs_per_request": (
            _ratio(svc.get("engine_runs", 0), requests), "count"),
        "coalescer.pooled_ratio": (_ratio(svc.get("pooled_requests", 0), requests), "fraction"),
        "service.max_rate_qps": (outcome.info.pop("max_rate_qps", (0.0, ""))[0], "req/s"),
        "trace.overhead_ratio": (tracing_overhead(outcome.windows), "fraction"),
    })
    extra.update({
        "service.queue_wait_p50_ms": (_ms(probe.queue_waits, 50), "ms"),
        "service.queue_wait_p99_ms": (_ms(probe.queue_waits, 99), "ms"),
        "service.shed": (svc.get("shed", 0), "count"),
        "plan.compiles": (plans["compiled"], "count"),
        "optimizer.calls": (counts["optimizer"], "count"),
        "fused.kernels_built": (fused["kernels_built"], "count"),
        "engines.calls": (engines["batches"], "count"),
        "sprt.tests": (tests["runs"], "count"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.coverage_ratio": (_ratio(sum(totals.values()), wall), "fraction"),
    })
    if hasattr(workload, "parallel_over_numpy") and not workload.smoke:
        extra["engines.parallel_over_numpy"] = (workload.parallel_over_numpy(), "ratio")
        extra["host.cpu_count"] = (host_metadata()["cpu_count"], "count")
    return metrics, extra, table


def write_trace(root, args, host, tracer, table) -> str:
    """Spans (schema ``repro.trace/1``) plus the self-time table."""
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    document = {
        "schema": "repro.trace/1",
        "spans": tracer.as_dicts(),
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "layers": table,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, default=str)
    return str(path.relative_to(root))
