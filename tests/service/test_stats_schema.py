"""Pin the keys of every stats surface: ``repro.runtime.stats()``,
``Service.stats()``, ``/stats`` and the ``repro_service_*`` Prometheus series.

Refactors of the counters behind these surfaces must leave their schema
alone; a dashboard or scraper keys on exactly these names.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import urllib.request

import repro
from repro import Uncertain
from repro.dists import Gaussian
from repro.runtime import RuntimeMetrics
from repro.service import Service, serve_metrics

RUNTIME_SCHEMA = {
    "plans": {"compiled", "cache_hits", "structural_hits", "structural_misses"},
    "fused": {"kernels_built", "kernels_rejected", "kernel_hits"},
    "tests": {
        "runs", "sprt_steps", "samples", "by_kind", "inconclusive",
        "inconclusive_by_policy",
    },
    "expectations": {"runs", "samples", "adaptive_runs"},
    "conditionals": {"runs", "samples"},
    "parallel": {
        "chunks", "retries", "worker_crashes", "serial_fallbacks",
        "serial_rescues",
    },
    "ledger": {
        "hits", "misses", "suffix_extensions", "rows_reused", "rows_drawn",
        "evictions", "stream_entries", "replay_entries", "bypasses",
        "invalidations",
    },
    "health": {"nonfinite_batches", "nonfinite_rows", "resamples", "by_policy"},
    "sources": {
        "retries", "failures", "fallbacks", "breaker_trips",
        "breaker_recoveries",
    },
}

#: State keys ``repro.runtime.stats()`` reads from the caches themselves;
#: a scoped ``RuntimeMetrics`` snapshot holds counters only.
STATE_SCHEMA = {
    "plans": {"cached"},
    "structural": {
        "entries", "limit", "collisions", "kernels", "kernels_verified",
    },
    "ledger": {"entries", "bytes", "max_bytes", "modes"},
}

SERVICE_KEYS = {
    "requests_by_kind", "requests_total", "shed", "rejected", "failures",
    "batches", "groups", "coalesced_requests", "pooled_requests",
    "engine_runs", "samples_drawn", "group_fallbacks", "ledger_served",
    "batch_occupancy",
    "latency_by_kind", "queue_depth", "samples_executed", "degradation",
}

SERVICE_DEGRADATION_KEYS = {
    "status", "brownout", "degraded_requests", "cancelled",
    "bulkhead_rejected", "shed", "groups",
}

SERVICE_SERIES = {
    "repro_service_queue_depth",
    "repro_service_shed_total",
    "repro_service_rejected_total",
    "repro_service_failures_total",
    "repro_service_batches_total",
    "repro_service_groups_total",
    "repro_service_coalesced_requests_total",
    "repro_service_pooled_requests_total",
    "repro_service_engine_runs_total",
    "repro_service_samples_drawn_total",
    "repro_service_group_fallbacks_total",
    "repro_service_ledger_served_total",
    "repro_service_degraded_requests_total",
    "repro_service_cancelled_total",
    "repro_service_bulkhead_rejected_total",
    "repro_service_degradation_level",
    "repro_service_open_breakers",
    "repro_service_requests_total",
    "repro_service_batch_occupancy_bucket",
    "repro_service_batch_occupancy_sum",
    "repro_service_batch_occupancy_count",
    "repro_service_request_latency_seconds_bucket",
    "repro_service_request_latency_seconds_sum",
    "repro_service_request_latency_seconds_count",
}


def _series(text: str, prefix: str) -> set:
    names = set()
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
        if name.startswith(prefix):
            names.add(name)
    return names


def test_runtime_stats_sections_and_keys():
    metrics = RuntimeMetrics()
    with repro.evaluation_config(metrics=metrics, rng=0):
        Uncertain(Gaussian(0.0, 1.0)).samples(8)
    snap = metrics.snapshot()
    assert set(snap) == set(RUNTIME_SCHEMA) | {"engines"}
    for section, keys in RUNTIME_SCHEMA.items():
        assert set(snap[section]) == keys, section
    assert set(snap["engines"]["numpy"]) == {
        "batches", "samples", "seconds", "latency",
    }


def _key_sets(stats: dict) -> dict:
    return {
        section: sorted(stats[section])
        for section in stats if section != "engines"
    }


def test_process_stats_are_counters_plus_cache_state():
    stats = repro.runtime.stats()
    assert set(stats) == set(RUNTIME_SCHEMA) | set(STATE_SCHEMA) | {"engines"}
    for section in set(RUNTIME_SCHEMA) | set(STATE_SCHEMA):
        expected = RUNTIME_SCHEMA.get(section, set()) | STATE_SCHEMA.get(
            section, set()
        )
        assert set(stats[section]) == expected, section


def test_process_stats_keys_do_not_depend_on_imports():
    # A fresh interpreter that never touched the sample ledger reports the
    # same sections and keys as this one, which has.
    script = (
        "import json, sys, repro\n"
        "assert 'repro.core.ledger' not in sys.modules\n"
        "stats = repro.runtime.stats()\n"
        "print(json.dumps({k: sorted(v) for k, v in stats.items()"
        " if k != 'engines'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert json.loads(out) == _key_sets(repro.runtime.stats())


def test_service_stats_http_stats_and_series():
    value = Uncertain(Gaussian(4.0, 1.0)) + 1.0

    async def scenario():
        async with Service(engine="numpy", brownout=True, bulkheads=True) as svc:
            await svc.samples(value, 16, seed=1)
            with serve_metrics(svc) as server:
                with urllib.request.urlopen(server.url + "/stats", timeout=5) as r:
                    served = json.loads(r.read().decode())
            return svc.stats(), served, svc.render_metrics()

    stats, served, text = asyncio.run(scenario())
    for snapshot in (stats, served):
        assert set(snapshot) == SERVICE_KEYS
        assert set(snapshot["degradation"]) == SERVICE_DEGRADATION_KEYS
    assert _series(text, "repro_service_") == SERVICE_SERIES
    assert not _series(text, "repro_degradation_")
    assert "repro_engine_samples" in _series(text, "repro_engine_")
    # The process caches' state rides along in the runtime half.
    assert {
        "repro_plans_cached", "repro_ledger_bytes", "repro_ledger_entries",
        "repro_structural_entries", "repro_structural_kernels",
    } <= _series(text, "repro_")


def test_fresh_service_stats_are_strict_json():
    # An empty histogram has no quantiles: /stats reports null, not NaN.
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    async def scenario():
        async with Service(engine="numpy") as svc:
            with serve_metrics(svc) as server:
                with urllib.request.urlopen(server.url + "/stats", timeout=5) as r:
                    return r.read().decode()

    served = json.loads(asyncio.run(scenario()), parse_constant=reject)
    assert served["batch_occupancy"]["count"] == 0
    assert served["batch_occupancy"]["p50"] is None
    assert served["batch_occupancy"]["p99"] is None
