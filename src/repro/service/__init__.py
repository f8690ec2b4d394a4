"""The async service tier: serving uncertainty queries at scale.

The paper's runtime answers one query at a time; this package is the
front end that serves *many* — the "millions of users issuing the same
speeding-test query" regime the roadmap targets.  Concurrent queries
enter an asyncio :class:`Service`, a batching coalescer merges
structurally isomorphic plans arriving within a configurable window into
shared bulk evaluations (one compiled plan, one fused kernel, many
answers), and per-request ``SeedSequence`` streams keep every batched
answer bit-identical to solo evaluation.  Admission control reuses the
evaluation layer's sample budgets and deadlines, backpressure sheds
load at a queue bound, and a stdlib HTTP endpoint exposes
Prometheus-style metrics.  See ``docs/service.md``.

Layering:

- :mod:`repro.service.requests`  — the request/result schema and the one
  shared reduction (:func:`reduce_query`).
- :mod:`repro.service.coalescer` — synchronous batching core:
  structural grouping, per-request streams, pooled seedless runs,
  fault isolation.  Directly testable without an event loop.
- :mod:`repro.service.service`   — the asyncio front end: queueing,
  batching windows, shedding, worker tasks, metrics exposition.
- :mod:`repro.service.errors`    — the structured error taxonomy
  (:class:`ServiceOverloaded`, :class:`BulkheadRejected`, ...).
- :mod:`repro.service.degradation` — graceful degradation under
  overload: the :class:`BrownoutController` (queue-pressure-driven
  sample-budget levels), :class:`DegradationRecord` provenance, and
  per-group :class:`BulkheadRegistry` isolation.  See
  ``docs/degradation.md``.
- :mod:`repro.service.http`      — stdlib ``/metrics`` + ``/healthz``
  + ``/stats`` endpoint.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "QUERY_KINDS": "repro.service.requests",
    "QueryRequest": "repro.service.requests",
    "QueryResult": "repro.service.requests",
    "reduce_query": "repro.service.requests",
    "CoalescerStats": "repro.service.coalescer",
    "evaluate_batch": "repro.service.coalescer",
    "evaluate_request": "repro.service.coalescer",
    "BrownoutController": "repro.service.degradation",
    "BulkheadRegistry": "repro.service.degradation",
    "DegradationDecision": "repro.service.degradation",
    "DegradationRecord": "repro.service.degradation",
    "ServiceError": "repro.service.errors",
    "ServiceClosed": "repro.service.errors",
    "ServiceOverloaded": "repro.service.errors",
    "BulkheadRejected": "repro.service.errors",
    "EvaluationCancelled": "repro.service.errors",
    "Service": "repro.service.service",
    "MetricsServer": "repro.service.http",
    "serve_metrics": "repro.service.http",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = list(_LAZY)
