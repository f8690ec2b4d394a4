"""Process-global runtime metrics for the sampling runtime.

The plan/engine layer answers "what did this process spend its sampling
time on": how many plans were compiled (vs served from cache), how many
samples each engine drew and how long it took, how many SPRT batches the
conditionals consumed.  The counters live in a single process-global
:class:`RuntimeMetrics` registry (:data:`METRICS`), cheap enough to stay
on by default — recording is plain attribute arithmetic on the hot path,
locking only on snapshot/reset.

``repro.runtime.stats()`` returns a snapshot with the caches' state merged
in (:func:`register_gauges`); the sink is governed by ``EvaluationConfig.metrics``:

- ``True`` (default) — record into the global registry;
- ``False``/``None`` — record nothing;
- a :class:`RuntimeMetrics` instance — record into that instance (for
  scoped measurement, e.g. per-request accounting under
  ``evaluation_config(metrics=RuntimeMetrics())``).

This module must stay import-light (stdlib only): every ``repro.core``
module imports it, so it can depend on none of them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

#: Default latency bucket upper bounds in seconds: log-spaced 1-2.5-5 decades
#: from 100 µs to 10 s.  Bounded (17 buckets + overflow), so a histogram is a
#: fixed-size integer array no matter how many observations it absorbs —
#: p50/p99 stay derivable without storing or tracing individual latencies.
DEFAULT_LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0,
)


class LatencyHistogram:
    """Bounded-bucket latency histogram (Prometheus ``histogram`` semantics).

    ``bounds[i]`` is the *inclusive* upper edge of bucket ``i``
    (Prometheus ``le``); one overflow bucket catches everything above the
    last bound.  :meth:`quantile` reconstructs percentiles by linear
    interpolation inside the target bucket — the same estimator as
    PromQL's ``histogram_quantile`` — so p50/p99 are derivable from the
    counters alone, with error bounded by bucket width.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple = DEFAULT_LATENCY_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # [..buckets.., overflow]
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (``nan`` when empty).

        The target bucket is the first whose cumulative count reaches
        ``q * count``; the estimate interpolates linearly between its
        edges.  Observations in the overflow bucket clamp to the last
        finite bound (a deliberate *under*-estimate, as in Prometheus).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            previous = cumulative
            cumulative += n
            if cumulative >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - previous) / n
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        cumulative, running = [], 0
        for n in self.counts[:-1]:
            running += n
            cumulative.append(running)
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "bounds": list(self.bounds),
            "cumulative": cumulative,  # per-bound cumulative counts (le=)
            # Strict JSON has no NaN: an empty histogram has no quantiles.
            "p50": None if empty else self.quantile(0.5),
            "p99": None if empty else self.quantile(0.99),
        }


class EngineStats:
    """Per-engine sampling counters (samples drawn, batches, wall time).

    ``latency`` is a bounded :class:`LatencyHistogram` of per-batch wall
    times, so p50/p99 engine latency is derivable from the counters
    without tracing (the seconds total alone only supports means).
    """

    __slots__ = ("batches", "samples", "seconds", "latency")

    def __init__(self) -> None:
        self.batches = 0
        self.samples = 0
        self.seconds = 0.0
        self.latency = LatencyHistogram()

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "samples": self.samples,
            "seconds": self.seconds,
            "latency": self.latency.as_dict(),
        }


#: Every ``RuntimeMetrics`` counter, by ``snapshot()`` section.  The value
#: of ``key`` lives in the attribute ``f"{section}_{key}"``; ``by_*`` keys
#: are per-label dicts, every other key an integer.  ``engines`` is the one
#: section outside the table: one :class:`EngineStats` per engine name.
_SCHEMA = {
    "plans": ("compiled", "cache_hits", "structural_hits", "structural_misses"),
    "fused": ("kernels_built", "kernels_rejected", "kernel_hits"),
    "tests": (
        "runs", "sprt_steps", "samples", "by_kind",
        "inconclusive", "inconclusive_by_policy",
    ),
    "expectations": ("runs", "samples", "adaptive_runs"),
    "conditionals": ("runs", "samples"),
    "parallel": (
        "chunks", "retries", "worker_crashes", "serial_fallbacks",
        "serial_rescues",
    ),
    "ledger": (
        "hits", "misses", "suffix_extensions", "rows_reused", "rows_drawn",
        "evictions", "stream_entries", "replay_entries", "bypasses",
        "invalidations",
    ),
    "health": ("nonfinite_batches", "nonfinite_rows", "resamples", "by_policy"),
    "sources": (
        "retries", "failures", "fallbacks", "breaker_trips",
        "breaker_recoveries",
    ),
}


def _copy(value):
    return dict(value) if isinstance(value, dict) else value


class RuntimeMetrics:
    """Counter registry for the sampling runtime.

    One instance is process-global (:data:`METRICS`); independent
    instances can be installed per evaluation scope via
    ``evaluation_config(metrics=RuntimeMetrics())``.  Counters are plain
    attributes updated without a lock (the runtime records from the
    coordinating process only); :meth:`snapshot` and :meth:`reset` take a
    lock so concurrent readers see a consistent copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    # -- recording (hot path: no locks, plain arithmetic) -------------------

    def record_compile(self) -> None:
        self.plans_compiled += 1

    def record_cache_hit(self) -> None:
        self.plans_cache_hits += 1

    def record_structural(self, hit: bool) -> None:
        """One fresh compile checked against the structural plan cache."""
        if hit:
            self.plans_structural_hits += 1
        else:
            self.plans_structural_misses += 1

    def record_fused(
        self, built: int = 0, rejected: int = 0, kernel_hits: int = 0,
    ) -> None:
        """Fused-backend events: kernels generated (each one certified),
        certification rejections, and plans served by an
        already-generated kernel (same shape)."""
        self.fused_kernels_built += built
        self.fused_kernels_rejected += rejected
        self.fused_kernel_hits += kernel_hits

    def record_engine(self, engine: str, n: int, seconds: float) -> None:
        stats = self.engines.get(engine)
        if stats is None:
            stats = self.engines.setdefault(engine, EngineStats())
        stats.batches += 1
        stats.samples += int(n)
        stats.seconds += seconds
        stats.latency.observe(seconds)

    def record_test(self, kind: str, steps: int, samples: int) -> None:
        """One hypothesis-test run: ``steps`` batch draws, ``samples`` total."""
        self.tests_runs += 1
        self.tests_sprt_steps += int(steps)
        self.tests_samples += int(samples)
        self.tests_by_kind[kind] = self.tests_by_kind.get(kind, 0) + 1

    def record_expectation(self, kind: str, samples: int) -> None:
        self.expectations_runs += 1
        self.expectations_samples += int(samples)
        if kind == "adaptive":
            self.expectations_adaptive_runs += 1

    def record_conditional(self, samples_used: int) -> None:
        self.conditionals_runs += 1
        self.conditionals_samples += int(samples_used)

    def record_parallel(
        self, chunks: int = 0, retries: int = 0, crashes: int = 0,
        fallbacks: int = 0, serial_rescues: int = 0,
    ) -> None:
        """``ParallelEngine`` events (``repro.runtime.parallel``): chunks
        laid out, chunks retried after a pool broke, and broken pools
        (``worker_crashes``).  ``fallbacks`` (``serial_fallbacks``) counts
        batches of unpicklable plans, which run in-process; chunks that a
        ``serial_fallback=True`` engine rescues in-process after its retry
        round also broke are ``serial_rescues``.
        """
        self.parallel_chunks += chunks
        self.parallel_retries += retries
        self.parallel_worker_crashes += crashes
        self.parallel_serial_fallbacks += fallbacks
        self.parallel_serial_rescues += serial_rescues

    def record_ledger(
        self, hits: int = 0, misses: int = 0, suffix_extensions: int = 0,
        rows_reused: int = 0, rows_drawn: int = 0, evictions: int = 0,
        stream_entries: int = 0, replay_entries: int = 0,
        bypasses: int = 0, invalidations: int = 0,
    ) -> None:
        """Sample-ledger events (``repro.core.ledger``): cache hits, suffix
        extensions, reused vs freshly drawn rows, evictions, and the mode
        each new entry is given: stream (``stream_entries``) or replay
        (``replay_entries``)."""
        self.ledger_hits += hits
        self.ledger_misses += misses
        self.ledger_suffix_extensions += suffix_extensions
        self.ledger_rows_reused += rows_reused
        self.ledger_rows_drawn += rows_drawn
        self.ledger_evictions += evictions
        self.ledger_stream_entries += stream_entries
        self.ledger_replay_entries += replay_entries
        self.ledger_bypasses += bypasses
        self.ledger_invalidations += invalidations

    # -- resilience layer ---------------------------------------------------

    def record_nonfinite(
        self, policy: str, rows: int = 0, resamples: int = 0
    ) -> None:
        """One batch containing non-finite samples, handled under ``policy``."""
        self.health_nonfinite_batches += 1
        self.health_nonfinite_rows += int(rows)
        self.health_resamples += int(resamples)
        self.health_by_policy[policy] = self.health_by_policy.get(policy, 0) + 1

    def record_source(
        self, retries: int = 0, failures: int = 0, fallbacks: int = 0,
        trips: int = 0, recoveries: int = 0,
    ) -> None:
        """ResilientSource events: retries, breaker trips, fallback draws."""
        self.sources_retries += retries
        self.sources_failures += failures
        self.sources_fallbacks += fallbacks
        self.sources_breaker_trips += trips
        self.sources_breaker_recoveries += recoveries

    def record_inconclusive(self, policy: str) -> None:
        """One truncated hypothesis test, handled under ``policy``."""
        self.tests_inconclusive += 1
        self.tests_inconclusive_by_policy[policy] = (
            self.tests_inconclusive_by_policy.get(policy, 0) + 1
        )

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for section, keys in _SCHEMA.items():
                for key in keys:
                    setattr(self, f"{section}_{key}", {} if "by_" in key else 0)
            self.engines: dict[str, EngineStats] = {}

    def snapshot(self) -> dict:
        """A consistent, JSON-serialisable copy of every counter.

        Schema (see ``docs/runtime.md``): the ``engines`` section plus one
        section per :data:`_SCHEMA` entry.
        """
        with self._lock:
            snap = {
                section: {
                    key: _copy(getattr(self, f"{section}_{key}"))
                    for key in keys
                }
                for section, keys in _SCHEMA.items()
            }
            snap["engines"] = {
                name: stats.as_dict() for name, stats in self.engines.items()
            }
            return snap

    def total_samples(self) -> int:
        """Samples drawn across every engine (convenience for budgets)."""
        return sum(stats.samples for stats in self.engines.values())


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4).  Stdlib-only by design:
# the service tier serves this from a plain http.server handler.
# ---------------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_histogram(
    name: str, hist_dict: dict, labels: dict | None = None
) -> list[str]:
    """Prometheus ``histogram`` series for a :class:`LatencyHistogram` dict.

    Emits cumulative ``<name>_bucket{le="..."}`` samples (including the
    mandatory ``le="+Inf"``), plus ``<name>_sum`` and ``<name>_count``.
    """
    labels = dict(labels or {})
    lines = []
    for bound, cumulative in zip(hist_dict["bounds"], hist_dict["cumulative"]):
        bucket_labels = dict(labels)
        bucket_labels["le"] = format(bound, "g")
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
        )
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_format_labels(inf_labels)} {hist_dict['count']}")
    lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(hist_dict['sum'])}")
    lines.append(f"{name}_count{_format_labels(labels)} {hist_dict['count']}")
    return lines


#: ``by_*`` snapshot keys rendered as labelled series: key -> label name.
_LABELLED_KEYS = {
    "by_kind": "kind",
    "by_policy": "policy",
    "inconclusive_by_policy": "policy",
    "modes": "mode",
}


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Flatten a :meth:`RuntimeMetrics.snapshot` or ``stats()`` into Prometheus text.

    Naming scheme: section and counter join with underscores
    (``repro_plans_compiled``), per-engine counters carry an
    ``engine=`` label (``repro_engine_samples{engine="fused"}``), and
    the per-engine latency histograms render as native Prometheus
    histograms (``repro_engine_latency_seconds_bucket{engine=...,le=...}``)
    so p50/p99 come out of ``histogram_quantile()`` — or out of
    :meth:`LatencyHistogram.quantile` offline.
    """
    lines: list[str] = []
    for section, payload in snapshot.items():
        if section == "engines":
            # One contiguous group per family, engines inside it: the
            # exposition format forbids interleaving families.
            base = f"{prefix}_engine"
            engines = [({"engine": e}, s) for e, s in sorted(payload.items())]
            for key in ("batches", "samples", "seconds"):
                lines.extend(
                    f"{base}_{key}{_format_labels(labels)} "
                    f"{_format_value(stats[key])}"
                    for labels, stats in engines
                )
            lines.append(f"# TYPE {base}_latency_seconds histogram")
            for labels, stats in engines:
                lines.extend(
                    render_histogram(
                        f"{base}_latency_seconds", stats["latency"], labels
                    )
                )
            continue
        for key, value in payload.items():
            name = f"{prefix}_{section}_{key}"
            if isinstance(value, dict):
                label = _LABELLED_KEYS.get(key, "key")
                base = f"{prefix}_{section}_{key.replace('by_', '')}"
                for k, v in sorted(value.items()):
                    lines.append(
                        f"{base}{_format_labels({label: k})} {_format_value(v)}"
                    )
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


#: The process-global registry that ``repro.runtime.stats()`` reads.
METRICS = RuntimeMetrics()


#: State readers of the process-global caches, one per ``stats()`` section:
#: a cache's state is read from the cache itself, never copied into counters.
GAUGES: dict[str, Callable[[], dict]] = {}


def register_gauges(section: str, read: Callable[[], dict]) -> None:
    """Merge ``read()`` into section ``section`` of every ``stats()``."""
    GAUGES[section] = read


# ---------------------------------------------------------------------------
# Sink resolution.  ``repro.core.conditionals`` binds a resolver returning
# the active config's ``metrics`` selection; until it does (or when running
# without a config), the global registry is used.
# ---------------------------------------------------------------------------

_resolver: Callable[[], object] | None = None


def bind_resolver(resolver: Callable[[], object]) -> None:
    """Install the callable that yields the active ``metrics`` selection."""
    global _resolver
    _resolver = resolver


def active() -> RuntimeMetrics | None:
    """The metrics sink the runtime should record into right now.

    ``None`` means recording is disabled for the active evaluation scope.
    """
    return METRICS if _resolver is None else resolve(_resolver())


def resolve(selection) -> RuntimeMetrics | None:
    """The sink a config's ``metrics`` selection names (``None`` = off)."""
    if selection is True:
        return METRICS
    if not selection:
        return None
    return selection  # a RuntimeMetrics instance
