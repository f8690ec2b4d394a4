"""Cross-request batching: merge same-shape queries into shared evaluations.

The coalescer is the synchronous heart of the service tier (the asyncio
front end in :mod:`repro.service.service` only decides *when* to call it).
Given a batch of :class:`~repro.service.requests.QueryRequest` objects it:

1. **Groups** requests by their plan's structural hash.  Structurally
   isomorphic plans — same shape, same distribution parameters — compile
   to interchangeable programs, so one group shares a single compiled
   plan (the leader's) and, on the fused engine, a single
   generated kernel.  Opaque plans (lambdas, hardened sources) group by
   plan identity instead, so a hot value still batches with itself.

2. **Evaluates** each group once per *stream*:

   - Seeded requests each own the stream ``default_rng(SeedSequence(seed))``
     (the request-level analogue of the parallel engine's chunk streams),
     so the group runs the shared plan once per seeded request through
     the solo path itself (:func:`evaluate_request`) — batched answers
     are bit-identical to solo answers *by construction*, not by test.
   - Seedless requests pool: the group draws ``sum(n_i)`` rows in **one**
     engine run from the coalescer's stream and slices the rows across
     requests.  This is the cheap path — one kernel launch answers many
     queries — at the cost of per-request reproducibility.

3. **Reduces** each request's sample array with the same
   :func:`~repro.service.requests.reduce_query` used everywhere, and
   isolates failures: a request whose source feed trips its circuit
   breaker (or whose chaos-injected engine call dies) fails *alone*;
   the coalescer falls back to per-request evaluation for the survivors
   rather than failing the whole group.  Per-request retries re-derive
   the request stream from the seed, so a retried answer is still
   bit-identical — fault injection consumes breaker/chaos state, never
   the request's sample stream.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core import conditionals as _cond
from repro.core.engines import ExecutionEngine
from repro.core.sampling import DeadlineExceeded, Draw, SampleBudgetExceeded
from repro.rng import ensure_rng
from repro.runtime import cancellation as _cancel
from repro.runtime.cancellation import CancellationToken, EvaluationCancelled

from repro.service.degradation import NO_DEGRADATION, DegradationDecision
from repro.service.requests import QueryRequest, QueryResult, reduce_query

__all__ = [
    "BatchOutcome",
    "CoalescerStats",
    "evaluate_batch",
    "evaluate_request",
]


@dataclasses.dataclass
class CoalescerStats:
    """What one ``evaluate_batch`` call did — fed into service metrics."""

    requests: int = 0
    groups: int = 0
    #: Requests answered from a group of >= 2 (shared plan/kernel).
    coalesced_requests: int = 0
    #: Seedless requests answered by slicing one pooled engine run.
    pooled_requests: int = 0
    #: Engine runs actually issued (the amortisation denominator).
    engine_runs: int = 0
    #: Joint samples drawn across all runs.
    samples_drawn: int = 0
    #: Groups whose bulk evaluation failed and fell back per-request.
    group_fallbacks: int = 0
    #: Requests that ultimately failed (exception outcome).
    failures: int = 0
    #: Requests answered at a brownout level > 0 (reduced sample budget).
    degraded_requests: int = 0
    #: Requests cancelled mid-flight (deadline / client disconnect).
    cancelled: int = 0
    #: Requests refused by a group bulkhead (open breaker / at limit).
    bulkhead_rejections: int = 0


#: One entry per request: either a ``QueryResult`` or the exception that
#: answered it.  Order matches the input batch.
BatchOutcome = list  # list[QueryResult | BaseException]


def _engine_name(engine: "str | ExecutionEngine") -> str:
    return engine if isinstance(engine, str) else type(engine).__name__


def evaluate_request(
    request: QueryRequest,
    *,
    engine: "str | ExecutionEngine | None" = None,
    config: "_cond.EvaluationConfig | None" = None,
    rng: "np.random.Generator | None" = None,
    token: "CancellationToken | None" = None,
    degrade: "DegradationDecision | None" = None,
    _batch_size: int = 1,
    _plan=None,
) -> QueryResult:
    """Solo evaluation: one request, its own stream, the shared reduction.

    This is the reference the determinism contract is stated against —
    the batched path produces answers bit-identical to this function for
    any seeded request, and a request answered at brownout level *k* is
    bit-identical to this function called with ``degrade`` frozen at the
    same level (the effective sample count is pure in ``(nominal,
    level)``).  ``rng`` is only accepted for seedless requests (callers
    that want solo evaluation with an external stream; ``None`` is the
    config's ``rng``, as for every ``Uncertain`` query); ``token`` installs a cooperative
    cancellation scope around the draw: one fresh engine run of a
    :class:`~repro.core.sampling.Draw` under ``config``, never served by
    the sample ledger.
    """
    config = config if config is not None else _cond.get_config()
    engine = engine if engine is not None else config.engine
    plan = _plan if _plan is not None else request.value.plan
    decision = degrade if degrade is not None else NO_DEGRADATION
    n, record = decision.apply(request.resolve_samples(config))
    if request.seed is not None:
        rng = request.rng()
    with _cancel.scope(token):
        values = Draw(plan, rng, engine, config).run(n)
    answer, extra = reduce_query(request, values)
    return _result(request, answer, extra, n, _batch_size, engine, record)


def _pool_token(members, tokens) -> "CancellationToken | None":
    """Aggregate cancellation for one pooled engine run.

    A pooled run answers *every* member from one draw, so it may only be
    deadline-cancelled when that hurts nobody still waiting: the run's
    deadline is the **latest** member deadline, and only when every
    member carries one.  Explicit per-member cancellations do not stop a
    pooled run (the batchmates still need the rows)."""
    if tokens is None:
        return None
    deadlines = []
    for i, _ in members:
        token = tokens.get(i)
        if token is None or token.deadline_at is None:
            return None
        deadlines.append(token.deadline_at)
    return CancellationToken(deadline_at=max(deadlines)) if deadlines else None


def _result(req, answer, extra, n, size, engine, record) -> QueryResult:
    return QueryResult(
        request=req, value=answer, samples_used=n, batched=size > 1,
        batch_size=size, latency_s=0.0, engine=_engine_name(engine),
        extra=extra, degradation=record,
    )


def _evaluate_group(
    group: "list[tuple[int, QueryRequest]]",
    outcomes: BatchOutcome,
    stats: CoalescerStats,
    *,
    engine,
    config,
    pool_rng,
    retries: int,
    degrade: "DegradationDecision | None" = None,
    tokens: "dict[int, CancellationToken] | None" = None,
    bulkhead=None,
) -> None:
    """Answer one structural group, isolating per-request failures."""
    plan = group[0][1].value.plan  # the leader's compiled (cached) plan
    size = len(group)
    decision = degrade if degrade is not None else NO_DEGRADATION

    def token_for(i):
        return tokens.get(i) if tokens is not None else None

    def mark_cancelled(i, exc) -> None:
        outcomes[i] = exc
        stats.cancelled += 1

    # Requests whose token already tripped while queued (expired deadline,
    # disconnected client) are answered without drawing anything.
    live: "list[tuple[int, QueryRequest]]" = []
    for i, req in group:
        token = token_for(i)
        if token is not None and token.cancelled:
            mark_cancelled(i, EvaluationCancelled(
                f"request {req.uid} cancelled before evaluation "
                f"({token.reason})", reason=token.reason or "cancelled",
            ))
        else:
            live.append((i, req))
    if not live:
        return

    # Bulkhead admission: a tripped or saturated group fails fast —
    # *this* group only; the caller keeps serving every other group.
    if bulkhead is not None:
        rejection = bulkhead.try_enter()
        if rejection is not None:
            for i, _ in live:
                outcomes[i] = rejection
                stats.bulkhead_rejections += 1
            return
    bulk_outcome: "bool | None" = True  # fed to the breaker on exit

    seeded = [(i, r) for i, r in live if r.seed is not None]
    pooled = [(i, r) for i, r in live if r.seed is None]

    try:
        try:
            # Seeded requests: one run of the shared plan per request
            # stream.  Cancellation is per-request — an expired deadline
            # stops that request's run at the next engine batch boundary
            # and never touches its batchmates' streams.
            for i, req in seeded:
                try:
                    outcomes[i] = evaluate_request(
                        req, engine=engine, config=config, token=token_for(i),
                        degrade=decision, _batch_size=size, _plan=plan,
                    )
                except EvaluationCancelled as exc:
                    mark_cancelled(i, exc)
                    continue
                stats.engine_runs += 1
                stats.samples_drawn += outcomes[i].samples_used
            # Seedless requests: ONE pooled draw sliced across requests,
            # under the pooled token.
            if pooled:
                sizing = [decision.apply(r.resolve_samples(config)) for _, r in pooled]
                counts = [n for n, _ in sizing]
                total = int(sum(counts))
                try:
                    with _cancel.scope(_pool_token(pooled, tokens)):
                        rows = Draw(plan, pool_rng, engine, config).run(total)
                except EvaluationCancelled as exc:
                    # Every member's deadline has passed: the whole
                    # pooled cohort is cancelled, not faulted.
                    for i, _ in pooled:
                        if outcomes[i] is None:
                            mark_cancelled(i, exc)
                    rows = None
                if rows is not None:
                    stats.engine_runs += 1
                    stats.samples_drawn += total
                    offset = 0
                    for (i, req), (n, record) in zip(pooled, sizing):
                        values = rows[offset:offset + n]
                        offset += n
                        answer, extra = reduce_query(req, values)
                        outcomes[i] = _result(
                            req, answer, extra, n, size, engine, record
                        )
                        stats.pooled_requests += 1
            if size > 1:
                stats.coalesced_requests += size
            return
        except (SampleBudgetExceeded, DeadlineExceeded):
            raise  # admission failures abort the group; the service maps them
        except EvaluationCancelled as exc:
            # Defensive: a cancellation that escaped the per-request
            # scopes (e.g. raised by a custom engine outside any scope)
            # answers the still-open requests; it is not a group fault.
            for i, _ in live:
                if outcomes[i] is None:
                    mark_cancelled(i, exc)
            return
        except Exception:
            # Bulk evaluation died mid-group (flaky source, chaos-injected
            # fault, ...).  Fall back to per-request evaluation so one bad
            # request — or one transient fault — cannot fail its batchmates.
            stats.group_fallbacks += 1
            bulk_outcome = False

        for i, req in group:
            if outcomes[i] is not None:
                continue  # answered before the fault
            last: BaseException | None = None
            for _ in range(retries + 1):
                try:
                    outcomes[i] = evaluate_request(
                        req, engine=engine, config=config, rng=pool_rng,
                        token=token_for(i), degrade=decision, _batch_size=size,
                    )
                    stats.engine_runs += 1
                    stats.samples_drawn += outcomes[i].samples_used
                    last = None
                    break
                except (SampleBudgetExceeded, DeadlineExceeded):
                    raise
                except EvaluationCancelled as exc:
                    mark_cancelled(i, exc)
                    last = None
                    break
                except Exception as exc:  # noqa: BLE001 — isolate per request
                    last = exc
            if last is not None:
                outcomes[i] = last
                stats.failures += 1
        if size > 1:
            stats.coalesced_requests += size
    finally:
        if bulkhead is not None:
            bulkhead.exit(bulk_outcome)


def evaluate_batch(
    requests: Sequence[QueryRequest],
    *,
    engine: "str | ExecutionEngine | None" = None,
    config: "_cond.EvaluationConfig | None" = None,
    pool_rng: "np.random.Generator | int | None" = None,
    retries: int = 1,
    stats: CoalescerStats | None = None,
    degrade: "DegradationDecision | None" = None,
    tokens: "dict[int, CancellationToken] | None" = None,
    bulkheads=None,
) -> BatchOutcome:
    """Answer a batch of requests, coalescing same-shape plans.

    Returns one outcome per request, in request order: a
    :class:`QueryResult` on success or the exception that answered it.
    Admission failures (:class:`SampleBudgetExceeded`,
    :class:`DeadlineExceeded`) become per-request outcomes too — they
    reject the remainder of the batch request-by-request rather than
    raising out of the coalescer.

    Overload-control hooks (all optional, all ``None`` by default so the
    bare coalescer behaves exactly as before):

    - ``degrade`` — a frozen per-batch
      :class:`~repro.service.degradation.DegradationDecision`; every
      request's sample budget is scaled through it and degraded answers
      carry a :class:`~repro.service.degradation.DegradationRecord`;
    - ``tokens`` — ``{batch index: CancellationToken}``; a tripped token
      answers its request with :class:`EvaluationCancelled` (before the
      draw, or mid-run at the next engine batch boundary);
    - ``bulkheads`` — a
      :class:`~repro.service.degradation.BulkheadRegistry`; each
      structural group is admitted through its own bulkhead, so a
      tripped group fails fast while healthy groups keep serving.
    """
    config = config if config is not None else _cond.get_config()
    engine = engine if engine is not None else config.engine
    pool_rng = ensure_rng(pool_rng)
    stats = stats if stats is not None else CoalescerStats()
    stats.requests += len(requests)

    outcomes: BatchOutcome = [None] * len(requests)
    groups: dict[str, list[tuple[int, QueryRequest]]] = defaultdict(list)
    for i, req in enumerate(requests):
        try:
            groups[req.group_key()].append((i, req))
        except Exception as exc:  # un-compilable value: fail that request
            outcomes[i] = exc
            stats.failures += 1

    stats.groups += len(groups)
    for key, group in groups.items():
        try:
            _evaluate_group(
                group, outcomes, stats,
                engine=engine, config=config, pool_rng=pool_rng,
                retries=retries, degrade=degrade, tokens=tokens,
                bulkhead=bulkheads.get(key) if bulkheads is not None else None,
            )
        except (SampleBudgetExceeded, DeadlineExceeded) as exc:
            for i, _ in group:
                if outcomes[i] is None:
                    outcomes[i] = exc
                    stats.failures += 1
    stats.degraded_requests += sum(
        isinstance(o, QueryResult) and o.degraded for o in outcomes
    )
    return outcomes
