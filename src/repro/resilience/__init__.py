"""Resilience layer: fault injection, health policies, graceful degradation.

The evaluation pipeline treats misbehaving evidence as a first-class,
policy-controlled outcome rather than an opaque crash:

- :mod:`repro.resilience.policies` — the policy vocabulary
  (``on_nonfinite``, ``on_inconclusive``), the exception taxonomy
  (:class:`NonFiniteError`, :class:`SourceFailure`,
  :class:`InconclusiveError`) and the structured :class:`Inconclusive`
  outcome attached to truncated hypothesis tests.
- :mod:`repro.resilience.health` — per-batch non-finite detection with
  per-slot attribution, enforced inside ``ExecutionEngine.sample``.
- :mod:`repro.resilience.source` — :class:`ResilientSource`: seeded
  bounded retries with backoff + jitter and a sliding-window
  :class:`CircuitBreaker` that degrades to a declared fallback
  distribution.
- :mod:`repro.resilience.chaos` — the deterministic chaos harness:
  :class:`ChaosDistribution` / :class:`ChaosEngine` inject NaN bursts,
  exceptions, latency stalls and worker kills, reproducibly from a seed.

See ``docs/resilience.md`` for the policy catalogue, the breaker state
machine, and the metrics/trace event schema.

Import note: ``repro.core`` imports ``policies`` (and ``health``), which
depend on nothing in ``repro.core``, so the policy names are bound
eagerly.  The health, source and chaos names load on first access
through :func:`repro._lazy.lazy_exports`, as in :mod:`repro.runtime`:
``source`` and ``chaos`` import ``repro.dists`` and
``repro.core.engines``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.resilience.policies import (
    INCONCLUSIVE_POLICIES,
    NONFINITE_POLICIES,
    Inconclusive,
    InconclusiveError,
    InconclusiveWarning,
    NonFiniteError,
    NonFiniteWarning,
    ResilienceError,
    SourceFailure,
)

__all__ = [
    # policies
    "NONFINITE_POLICIES",
    "INCONCLUSIVE_POLICIES",
    "Inconclusive",
    "ResilienceError",
    "NonFiniteError",
    "NonFiniteWarning",
    "InconclusiveError",
    "InconclusiveWarning",
    "SourceFailure",
    # health (lazy)
    "NonFiniteAttribution",
    "attribute_nonfinite",
    "nonfinite_mask",
    # sources (lazy)
    "ResilientSource",
    "CircuitBreaker",
    # chaos (lazy)
    "ChaosDistribution",
    "ChaosEngine",
    "InjectedFault",
    "arm_kill_sentinel",
    "latency_storm",
]

_LAZY = {
    "NonFiniteAttribution": "repro.resilience.health",
    "attribute_nonfinite": "repro.resilience.health",
    "nonfinite_mask": "repro.resilience.health",
    "ResilientSource": "repro.resilience.source",
    "CircuitBreaker": "repro.resilience.source",
    "ChaosDistribution": "repro.resilience.chaos",
    "ChaosEngine": "repro.resilience.chaos",
    "InjectedFault": "repro.resilience.chaos",
    "arm_kill_sentinel": "repro.resilience.chaos",
    "latency_storm": "repro.resilience.chaos",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
