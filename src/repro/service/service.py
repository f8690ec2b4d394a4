"""The asyncio evaluation front end: admission, batching windows, shedding.

:class:`Service` turns the synchronous coalescer into a concurrent query
server.  Requests arrive via :meth:`Service.submit` (or the per-kind
conveniences ``pr`` / ``expected_value`` / ``percentiles`` / ...), queue
behind a bounded asyncio queue, and are drained by worker tasks.  Each
worker takes one request, sleeps the configured **batching window** to
let same-shape neighbours accumulate, drains whatever arrived, and hands
the whole batch to :func:`~repro.service.coalescer.evaluate_batch` on a
thread pool — the event loop keeps admitting while evaluation runs.

Three layers of admission control, all reusing the existing evaluation
vocabulary:

- **Backpressure / shedding** — when the pending queue exceeds
  ``max_pending`` the request is *shed*: :class:`ServiceOverloaded`
  propagates to the caller immediately and the shed counter increments.
  Callers see load instead of unbounded latency.
- **Sample budgets** — ``Service(sample_budget=...)`` caps cumulative
  joint samples across all requests, enforced at admission with the
  same :class:`~repro.SampleBudgetExceeded` solo evaluation raises.
- **Deadlines** — ``Service(deadline=...)`` bounds wall-clock lifetime
  from :meth:`start`, rejecting with :class:`~repro.DeadlineExceeded`.

Determinism: the service moves *scheduling* around, never *streams*.  A
seeded request's samples come from ``default_rng(SeedSequence(seed))``
regardless of which batch, worker or retry answered it, so results are
bit-identical across ``workers=1`` vs ``workers=2`` vs solo evaluation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import conditionals as _cond
from repro.core.sampling import DeadlineExceeded, SampleBudgetExceeded
from repro.core.uncertain import Uncertain
from repro.rng import ensure_rng
from repro.runtime import stats as runtime_stats
from repro.runtime.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    LatencyHistogram,
    render_histogram,
    render_prometheus,
)

from repro.runtime.cancellation import CancellationToken
from repro.service.coalescer import CoalescerStats, evaluate_batch
from repro.service.degradation import BrownoutController, BulkheadRegistry
from repro.service.errors import ServiceClosed, ServiceOverloaded
from repro.service.requests import QUERY_KINDS, QueryRequest, QueryResult

__all__ = ["Service", "ServiceClosed", "ServiceOverloaded"]


#: Occupancy histogram bounds: requests per coalesced batch.
_OCCUPANCY_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


#: Coalescer totals that ``Service.stats()`` reports at its top level.
_BATCH_TOTALS = (
    "failures", "groups", "coalesced_requests", "pooled_requests",
    "engine_runs", "samples_drawn", "group_fallbacks",
)

#: Counters exported as ``<prefix>_service_<key>_total``: key -> help text.
_COUNTERS = {
    "shed": "Requests shed at the max_pending bound.",
    "rejected": "Requests rejected by budget/deadline admission.",
    "failures": "Requests that failed during evaluation.",
    "batches": "Coalesced batches evaluated.",
    "groups": "Structural groups across all batches.",
    "coalesced_requests": "Requests that shared a multi-request group.",
    "pooled_requests":
        "Seedless requests answered from one pooled engine run.",
    "engine_runs": "Engine runs issued by the coalescer.",
    "samples_drawn": "Joint samples drawn by the coalescer.",
    "group_fallbacks":
        "Bulk evaluations that fell back to per-request evaluation.",
    "degraded_requests": "Requests answered at a brownout level > 0.",
    "cancelled": "Requests cancelled mid-flight (deadline / disconnect).",
    "bulkhead_rejected": "Requests refused by a group bulkhead.",
}


class Service:
    """An asyncio front end that batches concurrent uncertainty queries.

    Parameters
    ----------
    engine:
        Execution engine for bulk evaluations (``"fused"`` amortises one
        generated kernel across every same-shape request in a batch).
        ``None`` defers to the ambient configuration.
    window:
        Batching window in seconds.  After dequeuing the first request a
        worker waits this long for same-shape neighbours before
        evaluating.  ``0.0`` disables the wait but still drains whatever
        is already queued (natural batching under load).
    max_batch:
        Per-evaluation batch cap; ``1`` disables coalescing entirely
        (the "unbatched" baseline in the load benchmark).
    max_pending:
        Queue bound for shedding: a ``submit`` that would make the
        pending count exceed this raises :class:`ServiceOverloaded`.
    workers:
        Concurrent batch evaluators (asyncio tasks, each running its
        batches on a shared thread pool of the same size).
    sample_budget / deadline:
        Admission limits, with solo-evaluation semantics (see module
        docstring).
    retries:
        Per-request retries when a bulk evaluation faults and the
        coalescer falls back to per-request evaluation.
    pool_seed:
        Seed for the coalescer's pooled (seedless-request) stream.
    brownout:
        Graceful-degradation controller: ``True`` for a default
        :class:`~repro.service.degradation.BrownoutController`, an
        instance for custom levels/watermarks, ``None`` (default) to
        disable — the service then degrades the classic way, by
        shedding only.  With a controller installed, queue pressure
        scales every request's sample budget down through the
        controller's levels *before* the ``max_pending`` shed bound
        fires; degraded answers carry a ``DegradationRecord``.
    bulkheads:
        Per-structural-group isolation: ``True`` for a default
        :class:`~repro.service.degradation.BulkheadRegistry`, an
        instance for custom limits/breakers, ``None`` (default) to
        disable.  Each coalescer group then runs behind its own
        concurrency limit and circuit breaker; a tripped group fails
        fast with :class:`~repro.service.errors.BulkheadRejected`
        while healthy groups keep serving.
    """

    def __init__(
        self,
        engine: "str | None" = None,
        *,
        window: float = 0.002,
        max_batch: int = 256,
        max_pending: int = 1024,
        workers: int = 1,
        sample_budget: "int | None" = None,
        deadline: "float | None" = None,
        retries: int = 1,
        pool_seed: "int | None" = None,
        brownout: "BrownoutController | bool | None" = None,
        bulkheads: "BulkheadRegistry | bool | None" = None,
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.workers = int(workers)
        self.retries = int(retries)
        self._pool_rng = ensure_rng(pool_seed)
        # Every count below changes once, under ``_lock``.  The coalescer
        # fills one CoalescerStats per batch (workers evaluate batches
        # concurrently); ``_totals`` is their running sum.  The rest are
        # events the coalescer never sees.
        self._lock = threading.Lock()
        self._totals = CoalescerStats()
        self._requests_by_kind: dict[str, int] = {}
        self._shed = 0
        self._rejected = 0
        self._batches = 0
        self._occupancy = LatencyHistogram(bounds=_OCCUPANCY_BOUNDS)
        self._latency: dict[str, LatencyHistogram] = {}
        if brownout is True:
            brownout = BrownoutController()
        self.brownout: "BrownoutController | None" = brownout or None
        if bulkheads is True:
            bulkheads = BulkheadRegistry()
        self.bulkheads: "BulkheadRegistry | None" = bulkheads or None
        # Admission state shares EvaluationConfig's budget vocabulary: the
        # service owns a private config (never installed as the ambient
        # process config — worker threads must not race on the global).
        self._budget = sample_budget
        self._deadline = deadline
        self._config: "_cond.EvaluationConfig | None" = None
        self._queue: "asyncio.Queue | None" = None
        self._tasks: list[asyncio.Task] = []
        self._executor: "ThreadPoolExecutor | None" = None
        self._closed = True

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "Service":
        if not self._closed:
            return self
        # A private config with the service's budgets layered over the
        # ambient defaults; its accounting (and deadline clock) starts here.
        overrides = {"engine": self.engine} if self.engine is not None else {}
        self._config = dataclasses.replace(
            _cond.get_config(), sample_budget=self._budget,
            deadline=self._deadline, **overrides,
        )
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._closed = False
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"repro-service-{i}")
            for i in range(self.workers)
        ]
        return self

    async def stop(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._tasks:
            await self._queue.put(None)  # one close sentinel per worker
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "Service":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- admission -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def _admission_check(self, request: QueryRequest) -> None:
        # Reserve nothing here — the coalescer charges the accounting when
        # it actually draws — but reject requests that cannot fit.
        try:
            self._config.accounting.admit(
                request.resolve_samples(self._config), charge=False
            )
        except (DeadlineExceeded, SampleBudgetExceeded):
            with self._lock:
                self._rejected += 1
            raise

    # -- the request path ----------------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResult:
        """Queue one request and await its result.

        Raises :class:`ServiceOverloaded` (shed), the admission errors
        (:class:`SampleBudgetExceeded` / :class:`DeadlineExceeded`), or
        whatever exception ultimately answered the request.
        """
        if self._closed or self._queue is None:
            raise ServiceClosed("Service.submit before start() or after stop()")
        pending = self._queue.qsize()
        if self.brownout is not None:
            # Feed the controller *before* the shed decision: brownout is
            # the softer response, shedding the last resort above it.
            self.brownout.observe(pending, self.max_pending)
        if pending >= self.max_pending:
            with self._lock:
                self._shed += 1
            raise ServiceOverloaded(
                pending=pending,
                max_pending=self.max_pending,
                retry_after_hint=self._drain_hint(pending),
            )
        self._admission_check(request)
        with self._lock:
            kinds = self._requests_by_kind
            kinds[request.kind] = kinds.get(request.kind, 0) + 1
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryResult]" = loop.create_future()
        token = CancellationToken.with_timeout(request.deadline)
        # A caller abandoning its future (asyncio cancellation, client
        # disconnect) trips the token, freeing the worker thread at the
        # next engine batch boundary instead of burning it to completion.
        future.add_done_callback(
            lambda f, t=token: t.cancel("client-disconnected")
            if f.cancelled() else None
        )
        enqueued = time.perf_counter()
        await self._queue.put((request, future, enqueued, token))
        return await future

    def _drain_hint(self, pending: int) -> float:
        """``Retry-After``-style backoff suggestion (seconds) for a shed:
        a rough queue-drain estimate from the batching parameters."""
        batches_left = max(1.0, pending / float(self.max_batch))
        per_batch = max(self.window, 0.001)
        return round(batches_left * per_batch / self.workers, 6)

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            if self.window > 0.0 and self.max_batch > 1:
                await asyncio.sleep(self.window)
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:  # close sentinel: put back and finish batch
                    self._queue.put_nowait(None)
                    break
                batch.append(extra)
            requests = [req for req, _, _, _ in batch]
            tokens = {i: tok for i, (_, _, _, tok) in enumerate(batch)}
            decision = None
            if self.brownout is not None:
                # Re-observe at drain time (pressure may have moved while
                # this worker slept the window), then freeze one decision
                # for the whole batch: every request in it is answered at
                # a *level*, which is what keeps seeded answers
                # reproducible (see docs/degradation.md).
                self.brownout.observe(self._queue.qsize(), self.max_pending)
                decision = self.brownout.decision()
            stats = CoalescerStats()
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._evaluate,
                    requests, stats, decision, tokens,
                )
            except BaseException as exc:  # defensive: executor-level failure
                outcomes = [exc] * len(batch)
            done = time.perf_counter()
            self._record_batch(batch, stats, done)
            for (req, future, enqueued, _), outcome in zip(batch, outcomes):
                if future.cancelled():
                    continue
                latency = done - enqueued
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    outcome.latency_s = latency
                    future.set_result(outcome)

    def _record_batch(self, batch, stats: CoalescerStats, done: float) -> None:
        totals = self._totals
        with self._lock:
            self._batches += 1
            self._occupancy.observe(len(batch))
            for field in dataclasses.fields(stats):
                name = field.name
                setattr(totals, name, getattr(totals, name) + getattr(stats, name))
            for req, future, enqueued, _ in batch:
                if future.cancelled():
                    continue
                hist = self._latency.get(req.kind)
                if hist is None:
                    hist = self._latency[req.kind] = LatencyHistogram(
                        bounds=DEFAULT_LATENCY_BOUNDS
                    )
                hist.observe(done - enqueued)

    def _evaluate(self, requests, stats, decision=None, tokens=None) -> list:
        """Thread-pool entry: run the coalescer with the service config."""
        return evaluate_batch(
            requests,
            engine=self._config.engine,
            config=self._config,
            pool_rng=self._pool_rng,
            retries=self.retries,
            stats=stats,
            degrade=decision,
            tokens=tokens,
            bulkheads=self.bulkheads,
        )

    # -- per-kind conveniences ----------------------------------------------

    async def pr(
        self, value: Uncertain, threshold: float = 0.5, *,
        samples: "int | None" = None, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="pr", threshold=threshold,
            samples=samples, seed=seed,
        ))

    async def is_probable(
        self, value: Uncertain, threshold: float = 0.5, *,
        samples: "int | None" = None, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="is_probable", threshold=threshold,
            samples=samples, seed=seed,
        ))

    async def expected_value(
        self, value: Uncertain, *,
        samples: "int | None" = None, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="expected_value", samples=samples, seed=seed,
        ))

    async def sample(
        self, value: Uncertain, *, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="sample", seed=seed,
        ))

    async def samples(
        self, value: Uncertain, n: int, *, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="samples", samples=n, seed=seed,
        ))

    async def percentiles(
        self, value: Uncertain, n: int = 100, *,
        samples: "int | None" = None, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="percentiles", divisions=n,
            samples=samples, seed=seed,
        ))

    async def confidence_interval(
        self, value: Uncertain, level: float = 0.95, *,
        samples: "int | None" = None, seed: "int | None" = None,
    ) -> QueryResult:
        return await self.submit(QueryRequest(
            value=value, kind="confidence_interval", level=level,
            samples=samples, seed=seed,
        ))

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        """Load-aware health: ``closed`` / ``overloaded`` / ``degraded`` /
        ``ok`` with the HTTP status ``/healthz`` should answer.

        - ``closed`` (503): not running.
        - ``overloaded`` (503): the queue is at the shed bound, or the
          brownout controller is pinned at its deepest level with the
          queue still above the high watermark — new work is being (or
          is about to be) refused.
        - ``degraded`` (200): serving everything, but at a brownout
          level > 0 or with open group breakers.  200 on purpose: a
          degraded instance is still a *correct* instance (answers are
          just wider), and flapping it out of a load balancer would turn
          brownout into an outage.
        - ``ok`` (200): nominal.
        """
        if self._closed:
            return {"status": "closed", "http": 503}
        pending = self.queue_depth
        level = self.brownout.level if self.brownout is not None else 0
        open_breakers = (
            self.bulkheads.open_groups() if self.bulkheads is not None else 0
        )
        detail = {
            "queue_depth": pending,
            "max_pending": self.max_pending,
            "degradation_level": level,
            "open_breakers": open_breakers,
        }
        if pending >= self.max_pending or (
            self.brownout is not None
            and self.brownout.at_max_level
            and level > 0
            and pending >= self.brownout.high_watermark * self.max_pending
        ):
            return {"status": "overloaded", "http": 503, **detail}
        if level > 0 or open_breakers > 0:
            return {"status": "degraded", "http": 200, **detail}
        return {"status": "ok", "http": 200, **detail}

    def stats(self) -> dict:
        """Service-level snapshot (counters, occupancy, latency by kind)."""
        with self._lock:
            totals = self._totals
            snap = {
                "requests_by_kind": dict(self._requests_by_kind),
                "requests_total": sum(self._requests_by_kind.values()),
                "shed": self._shed,
                "rejected": self._rejected,
                "batches": self._batches,
                **{key: getattr(totals, key) for key in _BATCH_TOTALS},
                "batch_occupancy": self._occupancy.as_dict(),
                "latency_by_kind": {
                    kind: hist.as_dict() for kind, hist in self._latency.items()
                },
            }
            degraded = {
                "degraded_requests": totals.degraded_requests,
                "cancelled": totals.cancelled,
                "bulkhead_rejected": totals.bulkhead_rejections,
                "shed": self._shed,
            }
        snap["queue_depth"] = self.queue_depth
        snap["samples_executed"] = (
            self._config.accounting.samples_executed
            if self._config is not None else 0
        )
        snap["degradation"] = {
            "status": self.health()["status"],
            "brownout": (
                self.brownout.snapshot() if self.brownout is not None else None
            ),
            **degraded,
            "groups": (
                self.bulkheads.states() if self.bulkheads is not None else {}
            ),
        }
        return snap

    def render_metrics(self, prefix: str = "repro") -> str:
        """Prometheus text exposition: service gauges + runtime metrics.

        Covers queue depth, batch occupancy, shed/reject counts,
        per-kind request latency histograms (p50/p99 derivable via
        ``histogram_quantile``), and all of ``repro.runtime.stats()``:
        process counters, per-engine latency histograms and cache state.
        """
        snap = self.stats()
        # Counter values by key; the overload counters sit in "degradation".
        values = {**snap["degradation"], **snap}
        lines: list[str] = []

        def family(name: str, kind: str, help_text: str, value) -> None:
            lines.append(f"# HELP {prefix}_service_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_service_{name} {kind}")
            lines.append(f"{prefix}_service_{name} {value}")

        family("queue_depth", "gauge", "Requests awaiting a worker.",
               snap["queue_depth"])
        for key, help_text in _COUNTERS.items():
            family(f"{key}_total", "counter", help_text, values[key])
        family("degradation_level", "gauge",
               "Current brownout level (0 = nominal).",
               self.brownout.level if self.brownout is not None else 0)
        family("open_breakers", "gauge",
               "Structural groups with a non-closed circuit breaker.",
               self.bulkheads.open_groups() if self.bulkheads is not None else 0)
        for kind in QUERY_KINDS:
            count = snap["requests_by_kind"].get(kind, 0)
            if count:
                lines.append(
                    f'{prefix}_service_requests_total{{kind="{kind}"}} {count}'
                )
        lines.append(f"# TYPE {prefix}_service_batch_occupancy histogram")
        lines.extend(render_histogram(
            f"{prefix}_service_batch_occupancy", snap["batch_occupancy"]
        ))
        # One TYPE line makes the per-kind series one contiguous family.
        lines.append(f"# TYPE {prefix}_service_request_latency_seconds histogram")
        for kind, hist in snap["latency_by_kind"].items():
            lines.extend(render_histogram(
                f"{prefix}_service_request_latency_seconds", hist,
                labels={"kind": kind},
            ))
        body = "\n".join(lines) + "\n"
        return body + render_prometheus(runtime_stats(), prefix=prefix)
