"""The service request schema: what a query over an uncertain value *is*.

The service tier accepts exactly the ergonomic query surface that
``Uncertain`` itself exposes (and ``repro.evaluate`` mirrors): the
explicit conditional ``pr``, the estimators ``expected_value`` /
``percentiles`` / ``confidence_interval`` / ``is_probable``, and raw
draws ``sample`` / ``samples``.  A :class:`QueryRequest` freezes one such
query — the value, the query kind, its statistical parameters, and the
request **seed** that makes the answer reproducible.

Determinism contract
--------------------

A request with ``seed=s`` is answered from the sample stream
``default_rng(SeedSequence(s))`` — its *own* generator, derived from the
seed alone.  Because the stream belongs to the request rather than to
whichever batch happened to absorb it, a batched answer is bit-identical
to the same request evaluated alone (``evaluate_request``), whatever the
coalescing window, batch composition, or worker count did.  A request
with ``seed=None`` opts out of the contract and may be answered from a
shared pooled draw (one bulk evaluation serving many requests) — the
cheap path for callers that only need *iid* samples, not *specific*
ones.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any

import numpy as np

from repro.core.expectation import reduce_samples
from repro.core.uncertain import Uncertain

#: The blessed query kinds, mirroring the ``Uncertain`` method surface.
QUERY_KINDS = (
    "pr",
    "is_probable",
    "expected_value",
    "sample",
    "samples",
    "percentiles",
    "confidence_interval",
)

_request_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class QueryRequest:
    """One frozen query against an uncertain value.

    Parameters
    ----------
    value:
        The :class:`~repro.Uncertain` (or :class:`UncertainBool`) the
        query interrogates.  Its compiled plan's structural hash is the
        coalescing key: concurrent requests over isomorphic plans share
        one bulk evaluation.
    kind:
        One of :data:`QUERY_KINDS`.
    seed:
        Request seed (the determinism contract above).  ``None`` allows
        pooled shared draws.
    samples:
        Monte-Carlo sample count; ``None`` defers to the active
        configuration's kind-specific default (``ci_samples`` for the
        interval/evidence estimators, ``expectation_samples`` for
        ``expected_value``/``samples``, 1 for ``sample``).
    threshold:
        Evidence threshold for ``pr`` / ``is_probable``.
    level:
        Coverage level for ``confidence_interval``.
    divisions:
        Percentile divisions for ``percentiles`` (``divisions + 1``
        quantiles come back).
    deadline:
        Per-request wall-clock budget in seconds, measured from
        submission.  Unlike the service-wide ``deadline`` (which bounds
        the whole service lifetime), an expired request deadline
        cooperatively cancels *this request's* in-flight sampling at the
        next engine batch boundary
        (:class:`~repro.runtime.cancellation.EvaluationCancelled`).
    """

    value: Uncertain
    kind: str = "expected_value"
    seed: int | None = None
    samples: int | None = None
    threshold: float = 0.5
    level: float = 0.95
    divisions: int = 100
    deadline: float | None = None
    #: Monotonically increasing request id (diagnostics / tracing only).
    uid: int = dataclasses.field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        if not isinstance(self.value, Uncertain):
            raise TypeError(
                f"value must be an Uncertain, got {type(self.value).__name__}"
            )
        if self.samples is not None and self.samples <= 0:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.divisions < 1:
            raise ValueError(
                f"divisions must be >= 1, got {self.divisions}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive, got {self.deadline}"
            )

    # -- derived properties --------------------------------------------------

    def resolve_samples(self, config) -> int:
        """The Monte-Carlo sample count this request will consume."""
        if self.samples is not None:
            return int(self.samples)
        if self.kind == "sample":
            return 1
        if self.kind in ("expected_value", "samples"):
            return int(config.expectation_samples)
        return int(config.ci_samples)

    def rng(self) -> np.random.Generator:
        """The request's own generator (determinism contract).

        Requires a seed; pooled (seedless) requests draw from the
        coalescer's shared stream instead.
        """
        if self.seed is None:
            raise ValueError("seedless requests have no per-request stream")
        return np.random.default_rng(np.random.SeedSequence(int(self.seed)))

    def group_key(self) -> str:
        """The coalescing key: structural hash, or plan identity for
        opaque plans (lambdas / hardened sources never share shapes, but
        many requests against the *same* value still batch together)."""
        plan = self.value.plan
        key = plan.structural_hash
        if key is None:
            key = f"opaque:{id(plan)}"
        return key


@dataclasses.dataclass
class QueryResult:
    """The answer to one :class:`QueryRequest`, with batching provenance."""

    request: QueryRequest
    value: Any
    #: Monte-Carlo samples drawn for this request.
    samples_used: int
    #: Was this answered from a coalesced multi-request evaluation?
    batched: bool
    #: Requests sharing the bulk evaluation that produced this answer.
    batch_size: int
    #: Seconds from submission to completion (0.0 on the sync solo path).
    latency_s: float
    #: Engine name that executed the draw.
    engine: str
    #: Kind-specific extras (e.g. the measured ``evidence`` for ``pr``).
    extra: dict = dataclasses.field(default_factory=dict)
    #: Brownout provenance: ``None`` for an undegraded answer, else the
    #: frozen :class:`~repro.service.degradation.DegradationRecord`
    #: naming the level and the nominal vs effective sample counts.
    degradation: "object | None" = None

    @property
    def degraded(self) -> bool:
        """Was this answer produced under a brownout level > 0?"""
        return self.degradation is not None


def reduce_query(request: QueryRequest, values: np.ndarray) -> tuple[Any, dict]:
    """Reduce a sample batch to the request's answer.

    This is the *one* reduction used by every path — solo, per-request
    batched, and pooled — which is what makes batched answers bit-identical
    to solo ones: given the same sample array, the answer is the same
    object math — :func:`~repro.core.expectation.reduce_samples`, the
    same arithmetic the ``Uncertain`` methods use.
    """
    kind = request.kind
    if kind in ("pr", "is_probable"):
        evidence = reduce_samples("evidence", values)
        return bool(evidence > request.threshold), {"evidence": evidence}
    if kind == "sample":
        return values[0], {}
    if kind == "samples":
        return np.asarray(values), {}
    return reduce_samples(kind, values, level=request.level, divisions=request.divisions), {}
