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
- Chunk ``i`` is executed by the fused engine (which reproduces the NumPy
  engine's rows) with its own generator, spawned as child ``i`` of the
  caller's RNG via ``np.random.SeedSequence.spawn`` — the same
  parent-child derivation :func:`repro.rng.spawn` uses.  The batch is the
  concatenation of the chunk streams, so the result is a pure function of
  ``(plan, n, seed, chunk_size)``: independent of worker count, of
  parallel-vs-serial execution, and of scheduling order.

The stream therefore *differs* from ``NumpyEngine`` run unsharded with
the same generator (one undivided stream vs. a concatenation of spawned
streams) — but running ``NumpyEngine`` chunk-by-chunk over the same
layout and spawned seeds reproduces ``ParallelEngine`` exactly, which is
what the determinism suite asserts.

Every chunk message carries the plan, pickled once per plan object, and
its key (the structural hash when there is one); workers cache plans by
key, so each worker unpickles a shape once.  Unpicklable plans (lambdas
in ``FunctionDistribution`` / ``ApplyNode``) run in-process with the same
sharded seeding and warn once per plan.  A worker crash breaks the pool:
chunks without a result are retried for one round on a fresh pool, then
raise :class:`~repro.core.sampling.SamplingError` or, with
``serial_fallback=True``, run in-process with their original seeds.  The
ambient ``evaluation_config`` budget is charged by the sampling facade
before the run, and its deadline token bounds every chunk wait.
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
from time import monotonic

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
#: Upper bound on chunks per batch (keeps message traffic bounded while
#: leaving enough chunks to balance load across any sane worker count).
MAX_CHUNKS = 64
#: Rounds of crash recovery per batch: chunks without a result after a
#: pool breaks are retried once on a fresh pool.
_RETRY_ROUNDS = 1


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


def _run_on_fused(plan: EvaluationPlan, n: int, seed_seq) -> np.ndarray:
    """One chunk's root rows, drawn from its own spawned generator."""
    values = get_engine("fused").run(plan, n, np.random.default_rng(seed_seq))
    return values[plan.root_slot]


def _check_cancelled(token, chunks: list[int], results: list) -> None:
    """Raise ``EvaluationCancelled`` with chunk progress if ``token`` tripped."""
    if token is not None and token.cancelled:
        done = [size for size, r in zip(chunks, results) if r is not None]
        token.check(
            chunks_done=len(done), chunks=len(chunks), rows_done=sum(done)
        )


# ---------------------------------------------------------------------------
# Worker side.  Executed in the pool processes; keeps a bounded cache of
# unpickled plans so each worker deserialises a shape at most once.
# ---------------------------------------------------------------------------

_WORKER_PLAN_CACHE_LIMIT = 8
_worker_plans: "OrderedDict[str, EvaluationPlan]" = OrderedDict()


def _run_chunk(plan_key: str, payload: bytes, n: int, seed_seq) -> np.ndarray:
    plan = _worker_plans.get(plan_key)
    if plan is None:
        plan = pickle.loads(payload)
        _worker_plans[plan_key] = plan
        while len(_worker_plans) > _WORKER_PLAN_CACHE_LIMIT:
            _worker_plans.popitem(last=False)
    else:
        _worker_plans.move_to_end(plan_key)
    return _run_on_fused(plan, n, seed_seq)


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
        Pool size; defaults to ``os.cpu_count()``.  ``workers=0`` (or 1,
        including the default on a single-CPU host) keeps the sharded
        determinism model but executes every chunk in-process, without
        building a pool.
    chunk_size:
        Fixed chunk size, or ``None`` for the adaptive-in-``n`` default.
        Part of the stream definition: changing it changes the samples.
    serial_fallback:
        When ``True``, a batch whose retry round also breaks the pool
        degrades gracefully: chunks that still have no result are
        executed in-process with their original spawned seeds (preserving
        the chunked RNG stream bit-for-bit), a ``RuntimeWarning`` is
        issued and the rescue is counted in the runtime metrics.  Default
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
        serial_fallback: bool = False,
        mp_context=None,
    ) -> None:
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        self.chunk_size = chunk_size
        self.serial_fallback = bool(serial_fallback)
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._payloads: "weakref.WeakKeyDictionary[EvaluationPlan, tuple]" = (
            weakref.WeakKeyDictionary()
        )
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

    def shutdown(self) -> None:
        """Tear down the worker pool (a later run lazily rebuilds it)."""
        self._discard_pool()

    # -- plan payloads ------------------------------------------------------

    def _payload_for(self, plan: EvaluationPlan) -> tuple:
        """``(plan_key, pickled_bytes | None)`` — pickled once per plan.

        The key is the plan's structural hash when it has one, so
        isomorphic plans (fresh graphs per session, rebuilt roots) share
        one worker-side cache entry and are unpickled once per *shape*;
        opaque plans get a throwaway per-plan key.
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
                    stacklevel=3,
                )
                data = None
            entry = (plan.structural_hash or f"plan-{next(_plan_ids)}", data)
            self._payloads[plan] = entry
        return entry

    # -- execution ----------------------------------------------------------

    def run(self, plan, n, rng, memo=None, release=False):
        if memo is not None:
            # Shared-context draws need the memo filled with every node's
            # batch under one joint assignment; that is inherently a
            # single-stream operation, so defer to the NumPy engine with
            # the caller's RNG.
            return get_engine("numpy").run(plan, n, rng, memo=memo)
        chunks = chunk_layout(int(n), self.chunk_size)
        seeds = spawn_chunk_seeds(rng, len(chunks))
        plan_key, payload = self._payload_for(plan)
        metric = _metrics.active()
        if metric is not None:
            metric.record_parallel(
                chunks=len(chunks), fallbacks=int(payload is None)
            )
        results: list = [None] * len(chunks)
        if payload is not None and len(chunks) > 1 and self.workers > 1:
            self._dispatch(plan_key, payload, chunks, seeds, results, metric)
        self._run_in_process(plan, chunks, seeds, results)
        values: list = [None] * len(plan.steps)
        values[plan.root_slot] = (
            results[0] if len(results) == 1 else np.concatenate(results)
        )
        return values

    def _run_in_process(self, plan, chunks, seeds, results) -> None:
        """Fill every chunk that has no result yet, here, in chunk order.

        Serves unpicklable plans, ``workers <= 1``, single-chunk batches
        and the ``serial_fallback`` rescue.  Chunk boundaries are the
        cancellation boundaries (the engine also polls the ambient token
        within each chunk).
        """
        token = _cancel.current()
        for i, (size, seed) in enumerate(zip(chunks, seeds)):
            if results[i] is None:
                _check_cancelled(token, chunks, results)
                results[i] = _run_on_fused(plan, size, seed)

    def _dispatch(self, plan_key, payload, chunks, seeds, results, metric) -> None:
        """Run the chunks on the pool, filling ``results``.

        Chunks without a result after a pool breaks are retried on a
        fresh pool for :data:`_RETRY_ROUNDS` rounds; after that the batch
        raises ``SamplingError``, or with ``serial_fallback`` leaves them
        to :meth:`_run_in_process`.
        """
        token = _cancel.current()
        todo = list(range(len(chunks)))
        rounds = 0
        last_error: BaseException | None = None
        with _trace.span(
            "parallel.dispatch", chunks=len(chunks), workers=self.workers
        ) as span_attrs:
            while todo:
                futures = {}
                failed: list[int] = []
                for pos, i in enumerate(todo):
                    try:
                        futures[i] = self._pool().submit(
                            _run_chunk, plan_key, payload, chunks[i], seeds[i]
                        )
                    except BrokenExecutor as exc:
                        # A worker died mid-submission: the pool takes no
                        # more work, so the chunks not yet submitted fail
                        # like chunks whose futures break.
                        failed.extend(todo[pos:])
                        last_error = exc
                        break
                try:
                    for i, future in futures.items():
                        # Workers run in separate processes where the
                        # ambient token does not exist; the parent polls it
                        # while collecting and abandons the pool on
                        # cancellation (stragglers die with it).
                        _check_cancelled(token, chunks, results)
                        timeout = None
                        if token is not None and token.deadline_at is not None:
                            timeout = max(0.0, token.deadline_at - monotonic())
                        try:
                            results[i] = future.result(timeout=timeout)
                        except TimeoutError:
                            # Only the token's deadline sets a timeout;
                            # promote the expiry explicitly so the race at
                            # the exact boundary still raises
                            # EvaluationCancelled (the facade reports it as
                            # DeadlineExceeded).
                            token.cancel("deadline")
                            _check_cancelled(token, chunks, results)
                        except BrokenExecutor as exc:
                            failed.append(i)
                            last_error = exc
                except _cancel.EvaluationCancelled:
                    self._discard_pool()
                    raise
                if not failed:
                    break
                # A dead worker poisons the whole pool: rebuild it and
                # retry every chunk that has no result yet.
                self._discard_pool()
                if metric is not None:
                    metric.record_parallel(crashes=1, retries=len(failed))
                rounds += 1
                if rounds > _RETRY_ROUNDS:
                    if not self.serial_fallback:
                        raise SamplingError(
                            f"{len(failed)} sampling chunk(s) crashed the worker "
                            f"pool {rounds} times (chunk indices {sorted(failed)}); "
                            f"giving up after {_RETRY_ROUNDS} retry round(s)"
                        ) from last_error
                    warnings.warn(
                        f"{len(failed)} sampling chunk(s) crashed the worker "
                        f"pool {rounds} times; rescuing them serially "
                        "in-process (serial_fallback=True preserves the "
                        "chunked sample stream)",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    if metric is not None:
                        metric.record_parallel(serial_rescues=len(failed))
                    _trace.event(
                        "parallel.serial_rescue", chunks=len(failed), rounds=rounds
                    )
                    break
                todo = failed
            span_attrs["retry_rounds"] = rounds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelEngine workers={self.workers} "
            f"chunk_size={self.chunk_size or 'auto'}>"
        )


register_engine(ParallelEngine())
