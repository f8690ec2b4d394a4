"""The sampling runtime: parallel execution, metrics, and tracing.

This package is the operational layer over the compile/execute core:

- :mod:`repro.runtime.parallel` — :class:`ParallelEngine`, sharding plan
  batches across a persistent process pool with a deterministic
  ``SeedSequence``-spawn stream (registered as engine ``"parallel"``).
- :mod:`repro.runtime.metrics` — process-global counters answering "what
  did this process spend its sampling time on"; read with :func:`stats`.
- :mod:`repro.runtime.trace` — an opt-in span tracer with a JSON
  exporter for per-operation timelines.

See ``docs/runtime.md`` for engine selection, the parallel determinism
model, and the metrics/trace schemas.

Import note: ``repro.core`` imports the observability half
(:mod:`~repro.runtime.metrics`, :mod:`~repro.runtime.trace`,
:mod:`~repro.runtime.cancellation`), which depends on nothing in
``repro``, so its names are bound eagerly.  The engine half
(:mod:`repro.runtime.parallel`) imports ``repro.core`` and
multiprocessing; its names load on first access through
:func:`repro._lazy.lazy_exports`, and ``get_engine("parallel")``
imports it by name.
"""

from __future__ import annotations

from repro.runtime.cancellation import CancellationToken, EvaluationCancelled
from repro.runtime import metrics as _metrics
from repro.runtime.metrics import (
    METRICS,
    EngineStats,
    LatencyHistogram,
    RuntimeMetrics,
    render_prometheus,
)
from repro.runtime.trace import Span, Tracer, get_tracer, set_tracer, tracing
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "ParallelEngine": "repro.runtime.parallel",
    "chunk_layout": "repro.runtime.parallel",
    "spawn_chunk_seeds": "repro.runtime.parallel",
})

__all__ = [
    "ParallelEngine",
    "chunk_layout",
    "spawn_chunk_seeds",
    "CancellationToken",
    "EvaluationCancelled",
    "RuntimeMetrics",
    "EngineStats",
    "LatencyHistogram",
    "METRICS",
    "render_prometheus",
    "stats",
    "reset_stats",
    "Tracer",
    "Span",
    "set_tracer",
    "get_tracer",
    "tracing",
]


def stats() -> dict:
    """The process-global runtime counters, plus the caches' state read now.

    Answers "what did this process spend its sampling time on": plans
    compiled vs cache hits, samples/batches/wall-time per engine, SPRT
    steps and samples, expectation and conditional activity, and parallel
    chunk/crash/retry counts; and "what is cached" (``plans.cached``, the
    ``structural`` section, the ledger's footprint).  See ``docs/runtime.md``.
    """
    import repro.core.ledger  # noqa: F401 - registers the ledger's state

    snap = METRICS.snapshot()
    for section, read in _metrics.GAUGES.items():
        snap.setdefault(section, {}).update(read())
    return snap


def reset_stats() -> None:
    """Zero the process-global runtime counters (cache state is kept)."""
    METRICS.reset()
