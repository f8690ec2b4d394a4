"""Parallel plan execution across a persistent process pool (Section 4.2).

The paper frames sampling as embarrassingly parallel — every joint sample
of the Bayesian network is independent — so a batch of ``n`` samples can
be sharded into chunks and executed on separate cores.  This module adds
:class:`ParallelEngine`, an :class:`~repro.core.engines.ExecutionEngine`
that does exactly that over a persistent ``ProcessPoolExecutor``.

Determinism model (the part worth reading twice):

- A batch of ``n`` is split by :func:`chunk_layout` into chunks whose
  boundaries depend **only on n and the configured chunk size — never on
  the worker count**.  Sizing is adaptive in ``n`` (roughly ``n /
  MAX_CHUNKS``, floored at :data:`MIN_CHUNK` so tiny SPRT batches never
  pay IPC), but deliberately *not* adaptive in ``workers``: that is what
  makes ``workers=1`` and ``workers=8`` bit-identical.
- Chunk ``i`` is executed by the serial inner engine (``NumpyEngine`` by
  default) with its own generator, spawned as child ``i`` of the caller's
  RNG via ``np.random.SeedSequence.spawn`` — the same parent-child
  derivation :func:`repro.rng.spawn` uses.  The batch is the
  concatenation of the chunk streams, so the result is a pure function of
  ``(plan, n, seed, chunk_size)``: independent of worker count, of
  parallel-vs-serial execution, and of scheduling order.

The stream therefore *differs* from ``NumpyEngine`` run unsharded with
the same generator (one undivided stream vs. a concatenation of spawned
streams) — but running ``NumpyEngine`` chunk-by-chunk over the same
layout and spawned seeds reproduces ``ParallelEngine`` exactly, which is
what the determinism suite asserts.

Worker protocol: the plan is pickled **once** in the parent (cached per
plan) and shipped to the pool **once per plan key** — the key is the
plan's structural hash when it has one, so isomorphic plans (and every
later batch over the same plan) travel as tiny descriptors
``(plan_key, None, n, seed, inner)``.  Workers keep a small plan cache
keyed by ``plan_key``; a worker that has not seen the key yet (a freshly
spawned pool process) raises :class:`PlanPayloadMissing`, and the parent
transparently re-sends those chunks *with* the payload — a cache-warming
round trip, not a failure, so it never consumes the crash-retry budget.
Unpicklable plans (lambdas in ``FunctionDistribution`` / ``ApplyNode``)
fall back to serial in-process execution with the *same* sharded seeding,
preserving results, and warn once per plan.

Failure handling: a worker crash (segfault, ``os._exit``, OOM kill)
breaks the pool; every unfinished chunk is retried on a freshly built
pool up to ``max_retries`` rounds.  Exhausting the retry budget either
surfaces as :class:`~repro.core.sampling.SamplingError` (the default) or
— with ``serial_fallback=True`` — rescues the still-failed chunks by
running them serially in-process with their *original* spawned seeds, so
the degraded batch is bit-identical to the healthy one.  Budgets and
deadlines come from the ambient ``evaluation_config(sample_budget=...,
deadline=...)``: the sampling facade charges the budget before the run,
and the deadline's cancellation token bounds every chunk wait.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, TimeoutError
from time import monotonic, perf_counter

import numpy as np

from repro.core.engines import ExecutionEngine, get_engine, register_engine
from repro.core.plan import EvaluationPlan
from repro.core.sampling import SamplingError
from repro.runtime import cancellation as _cancel
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Smallest chunk worth shipping to a worker; batches at or below this run
#: serially in-process (SPRT batches of k=10 must never pay pool IPC).
MIN_CHUNK = 8_192
#: Upper bound on chunks per batch (keeps descriptor traffic bounded while
#: leaving enough chunks to balance load across any sane worker count).
MAX_CHUNKS = 64


def chunk_layout(n: int, chunk_size: int | None = None) -> list[int]:
    """Deterministic chunk sizes for a batch of ``n`` joint samples.

    With ``chunk_size=None`` the size adapts to ``n`` alone:
    ``max(MIN_CHUNK, ceil(n / MAX_CHUNKS))``.  Worker count is *never* an
    input — see the module docstring's determinism model.  Changing
    ``chunk_size`` changes the sample stream exactly like changing the
    seed would.
    """
    if n <= 0:
        raise ValueError(f"batch size must be positive, got {n}")
    if chunk_size is None:
        chunk_size = max(MIN_CHUNK, -(-n // MAX_CHUNKS))
    elif chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    full, rest = divmod(n, chunk_size)
    sizes = [chunk_size] * full
    if rest:
        sizes.append(rest)
    return sizes


def spawn_chunk_seeds(rng: np.random.Generator, k: int) -> list:
    """``k`` child ``SeedSequence``s derived from ``rng``'s seed sequence.

    Spawning advances the parent's spawn counter (not the bit generator),
    so repeated batches through one generator get fresh, independent
    streams while two generators built from the same seed agree.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:  # exotic bit generator: derive entropy from the stream
        seed_seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return seed_seq.spawn(k)


# ---------------------------------------------------------------------------
# Worker side.  Executed in the pool processes; keeps a bounded cache of
# unpickled plans so each worker deserialises a plan at most once.
# ---------------------------------------------------------------------------

_WORKER_PLAN_CACHE_LIMIT = 8
_worker_plans: "OrderedDict[str, EvaluationPlan]" = OrderedDict()


class PlanPayloadMissing(RuntimeError):
    """A worker was handed a plan key it has never seen, with no payload.

    Raised inside pool processes and unpickled in the parent, which
    responds by re-submitting the affected chunks with the payload
    attached (without consuming the crash-retry budget).
    """


def _run_chunk(plan_key: str, payload: "bytes | None", n: int, seed_seq, inner: str):
    plan = _worker_plans.get(plan_key)
    if plan is None:
        if payload is None:
            raise PlanPayloadMissing(plan_key)
        plan = pickle.loads(payload)
        _worker_plans[plan_key] = plan
        while len(_worker_plans) > _WORKER_PLAN_CACHE_LIMIT:
            _worker_plans.popitem(last=False)
    else:
        _worker_plans.move_to_end(plan_key)
    engine = get_engine(inner)
    values = engine.run(plan, n, np.random.default_rng(seed_seq))
    return values[plan.root_slot]


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------

_plan_ids = itertools.count(1)
_live_engines: "weakref.WeakSet[ParallelEngine]" = weakref.WeakSet()


@atexit.register
def _shutdown_all() -> None:  # pragma: no cover - interpreter teardown
    for engine in list(_live_engines):
        engine.shutdown()


class ParallelEngine(ExecutionEngine):
    """Shard batches across a persistent process pool (registered as
    ``"parallel"``; select with ``evaluation_config(engine="parallel")``).

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``workers=0`` (or 1)
        keeps the sharded determinism model but executes every chunk
        serially in-process — useful as a reference and for debugging.
        When the *default* resolves to a single CPU, the engine degrades
        to that serial path automatically (same stream, no pool build),
        warning once and counting ``parallel.auto_serial`` in the
        runtime metrics.
    chunk_size:
        Fixed chunk size, or ``None`` for the adaptive-in-``n`` default.
        Part of the stream definition: changing it changes the samples.
    inner:
        Name of the registered serial engine that executes each chunk.
    max_retries:
        Rounds of crash recovery per batch (default 1: failed chunks are
        retried once on a fresh pool, then ``SamplingError`` — or the
        serial rescue, see ``serial_fallback``).
    serial_fallback:
        When ``True``, exhausting ``max_retries`` degrades gracefully:
        chunks that still have no result are executed serially
        in-process with their original spawned seeds (preserving the
        chunked RNG stream bit-for-bit), a ``RuntimeWarning`` is issued
        and the rescue is counted in the runtime metrics.  Default
        ``False`` keeps the fail-fast ``SamplingError``.
    mp_context:
        ``multiprocessing`` context or start-method name (default: the
        platform default, ``fork`` on Linux).
    """

    name = "parallel"

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        inner: str = "numpy",
        max_retries: int = 1,
        serial_fallback: bool = False,
        mp_context=None,
    ) -> None:
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        #: Auto-sized onto a host with nothing to parallelise across: every
        #: batch takes the serial path (same sharded stream, zero pool
        #: overhead) and the degradation is surfaced once per engine via a
        #: warning plus the ``parallel.auto_serial`` metric.
        self._auto_single = workers is None and self.workers <= 1
        self._warned_auto_serial = False
        self.chunk_size = chunk_size
        self.inner = inner
        self.max_retries = int(max_retries)
        self.serial_fallback = bool(serial_fallback)
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._payloads: "weakref.WeakKeyDictionary[EvaluationPlan, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        #: Plan keys whose payload the *current* pool has already received;
        #: cleared whenever the pool is discarded (fresh workers start with
        #: empty caches).
        self._shipped: set[str] = set()
        _live_engines.add(self)

    # -- pool lifecycle -----------------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=max(1, self.workers), mp_context=self._mp_context
            )
        return self._executor

    def _discard_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._shipped.clear()

    def shutdown(self) -> None:
        """Tear down the worker pool (a later run lazily rebuilds it)."""
        self._discard_pool()

    # -- plan payloads ------------------------------------------------------

    def _payload_for(self, plan: EvaluationPlan) -> tuple:
        """``(plan_key, pickled_bytes | None)`` — pickled once per plan.

        The key is the plan's structural hash when it has one, so
        isomorphic plans (fresh graphs per session, rebuilt roots) share
        one worker-side cache entry and pay the payload transfer once per
        *shape*; opaque plans get a throwaway per-plan key.
        """
        entry = self._payloads.get(plan)
        if entry is None:
            try:
                data = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                warnings.warn(
                    f"evaluation plan for {plan.root!r} is not picklable "
                    f"({type(exc).__name__}: {exc}); ParallelEngine falls back "
                    "to serial in-process execution (same sharded stream). "
                    "Use module-level functions instead of lambdas/closures "
                    "in lifted code to enable parallel sampling",
                    RuntimeWarning,
                    stacklevel=4,
                )
                data = None
            key = plan.structural_hash
            if key is None or data is None:
                key = f"plan-{next(_plan_ids)}"
            entry = (key, data)
            self._payloads[plan] = entry
        return entry

    # -- execution ----------------------------------------------------------

    def run(self, plan, n, rng, memo=None):
        if memo is not None:
            # Shared-context draws need the memo filled with every node's
            # batch under one joint assignment; that is inherently a
            # single-stream operation, so defer to the inner engine with
            # the caller's RNG (exactly NumpyEngine semantics).
            return get_engine(self.inner).run(plan, n, rng, memo=memo)
        root = self._sample_sharded(plan, int(n), rng)
        values: list = [None] * len(plan.steps)
        values[plan.root_slot] = root
        return values

    def _sample_sharded(self, plan, n, rng) -> np.ndarray:
        chunks = chunk_layout(n, self.chunk_size)
        seeds = spawn_chunk_seeds(rng, len(chunks))
        metric = _metrics.active()
        plan_key, payload = self._payload_for(plan)
        serial = payload is None or len(chunks) == 1 or self.workers <= 1
        auto_serial = (
            serial and self._auto_single
            and payload is not None and len(chunks) > 1
        )
        if metric is not None:
            metric.record_parallel(
                chunks=len(chunks),
                fallbacks=int(payload is None),
                auto_serial=int(auto_serial),
            )
        if auto_serial and not self._warned_auto_serial:
            self._warned_auto_serial = True
            warnings.warn(
                "ParallelEngine auto-sized to a single-CPU host "
                "(os.cpu_count() <= 1); executing chunks serially in-process "
                "with the same sharded stream instead of paying process-pool "
                "overhead. Pass workers= explicitly to force a pool",
                RuntimeWarning,
                stacklevel=4,
            )
        if serial:
            # Chunk boundaries are the cancellation boundaries: the
            # ambient token is polled between chunks (the inner engine
            # also polls it per program step within each chunk).
            inner = get_engine(self.inner)
            token = _cancel.current()
            parts: list = []
            rows_done = 0
            for done, (size, seed) in enumerate(zip(chunks, seeds)):
                if token is not None:
                    token.check(
                        chunks_done=done, chunks=len(chunks),
                        rows_done=rows_done,
                    )
                parts.append(
                    inner.run(plan, size, np.random.default_rng(seed))[
                        plan.root_slot
                    ]
                )
                rows_done += size
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        return self._dispatch(plan, plan_key, payload, chunks, seeds, metric)

    def _dispatch(self, plan, plan_key, payload, chunks, seeds, metric) -> np.ndarray:
        token = _cancel.current()
        results: list = [None] * len(chunks)

        def _cancel_check() -> None:
            # Workers run in separate processes where the ambient token
            # does not exist; the parent polls it while collecting chunk
            # results and abandons the pool on cancellation (stragglers
            # die with the discarded pool, nothing is awaited further).
            if token is not None and token.cancelled:
                self._discard_pool()
                token.check(
                    chunks_done=sum(r is not None for r in results),
                    chunks=len(chunks),
                    rows_done=sum(
                        size for size, r in zip(chunks, results)
                        if r is not None
                    ),
                )
        todo = list(range(len(chunks)))
        rounds = 0
        last_error: BaseException | None = None
        send_payload = plan_key not in self._shipped
        with _trace.span(
            "parallel.dispatch", chunks=len(chunks), workers=self.workers
        ) as span_attrs:
            while todo:
                start = perf_counter()
                chunk_payload = payload if send_payload else None
                if chunk_payload is None and metric is not None:
                    metric.record_parallel(payload_skips=len(todo))
                futures = {}
                failed: list[int] = []
                missed: list[int] = []
                broken = False
                for pos, i in enumerate(todo):
                    try:
                        futures[i] = self._pool().submit(
                            _run_chunk,
                            plan_key,
                            chunk_payload,
                            chunks[i],
                            seeds[i],
                            self.inner,
                        )
                    except BrokenExecutor as exc:
                        # A worker died mid-submission: the pool takes no
                        # more work, so the chunks not yet submitted fail
                        # like chunks whose futures break.
                        broken = True
                        failed.extend(todo[pos:])
                        last_error = exc
                        break
                for i, future in futures.items():
                    _cancel_check()
                    timeout = None
                    if token is not None and token.deadline_at is not None:
                        timeout = max(0.0, token.deadline_at - monotonic())
                    try:
                        results[i] = future.result(timeout=timeout)
                    except TimeoutError:
                        # Only the token's deadline sets a timeout; promote
                        # the expiry explicitly so the race at the exact
                        # boundary still raises EvaluationCancelled (the
                        # facade reports it as DeadlineExceeded).
                        token.cancel("deadline")
                        _cancel_check()
                    except PlanPayloadMissing:
                        # A fresh worker process has an empty plan cache:
                        # warm it by re-sending with the payload.  Not a
                        # crash — does not consume the retry budget.
                        missed.append(i)
                    except BrokenExecutor as exc:
                        broken = True
                        failed.append(i)
                        last_error = exc
                if broken:
                    # A dead worker poisons the whole pool: rebuild it and
                    # retry every chunk that has no result yet.  Rebuilding
                    # also cleared ``_shipped``, so payloads travel again.
                    self._discard_pool()
                    send_payload = True
                    if metric is not None:
                        metric.record_parallel(crashes=1, retries=len(failed))
                if missed:
                    send_payload = True
                    if metric is not None:
                        metric.record_parallel(payload_misses=len(missed))
                if not failed:
                    if not missed:
                        break
                    todo = missed
                    continue
                rounds += 1
                if rounds > self.max_retries:
                    if not self.serial_fallback:
                        raise SamplingError(
                            f"{len(failed)} sampling chunk(s) crashed the worker "
                            f"pool {rounds} times (chunk indices {sorted(failed)}); "
                            f"giving up after max_retries={self.max_retries}"
                        ) from last_error
                    # Graceful degradation: run the still-failed chunks
                    # serially in-process with their original spawned
                    # seeds — the concatenated stream is bit-identical to
                    # the one a healthy pool would have produced.
                    warnings.warn(
                        f"{len(failed)} sampling chunk(s) crashed the worker "
                        f"pool {rounds} times; rescuing them serially "
                        "in-process (serial_fallback=True preserves the "
                        "chunked sample stream)",
                        RuntimeWarning,
                        stacklevel=5,
                    )
                    inner = get_engine(self.inner)
                    for i in failed + missed:
                        results[i] = inner.run(
                            plan, chunks[i], np.random.default_rng(seeds[i])
                        )[plan.root_slot]
                    if metric is not None:
                        metric.record_parallel(serial_rescues=len(failed))
                    _trace.event(
                        "parallel.serial_rescue",
                        chunks=len(failed),
                        rounds=rounds,
                    )
                    break
                todo = failed + missed
            span_attrs["seconds"] = perf_counter() - start
            span_attrs["retry_rounds"] = rounds
        if payload is not None:
            self._shipped.add(plan_key)
        return np.concatenate(results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelEngine workers={self.workers} "
            f"chunk_size={self.chunk_size or 'auto'} inner={self.inner!r}>"
        )


register_engine(ParallelEngine())
