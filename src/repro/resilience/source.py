"""Flaky-source hardening: retries, backoff, and a circuit breaker.

Evidence sources fail in the real world — a GPS receiver drops fixes, a
network-backed sampling function times out, a sensor returns garbage.
:class:`ResilientSource` wraps any :class:`~repro.dists.base.Distribution`
(or plain sampling function) with the standard trio of fault-tolerance
mechanisms, all deterministic given their seeds:

- **bounded retries** with exponential backoff and seeded jitter (the
  jitter stream is its own generator, so it never perturbs the sample
  stream);
- a **sliding-window circuit breaker** (:class:`CircuitBreaker`): when
  the recent failure fraction crosses a threshold the breaker *opens*
  and draws come from a declared ``fallback`` distribution — graceful
  degradation instead of an exception storm;
- **half-open recovery probes**: after a configured number of degraded
  draws the breaker lets one call through to the primary; success closes
  the breaker, failure re-opens it.

The breaker is *call-count based*, not wall-clock based: reproducibility
is a design constraint of this codebase (the chaos suite replays failure
scenarios bit-for-bit), and wall-clock state would break that.  All
events — retries, trips, fallbacks, probes, recoveries — are emitted as
trace events; a :class:`ResilientSource`'s are also counted in the
``sources`` section of :mod:`repro.runtime.metrics`.  A bare breaker (the
service's group bulkheads reuse it) keeps only its own ``trips`` and
``recoveries``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.dists.base import Distribution
from repro.dists.sampling_function import FunctionDistribution
from repro.resilience.policies import SourceFailure
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Sliding-window circuit breaker over primary-call outcomes.

    Parameters
    ----------
    window:
        Number of most-recent primary calls the failure fraction is
        computed over.
    failure_threshold:
        Fraction of failures in the window at (or above) which the
        breaker trips from CLOSED to OPEN.
    min_calls:
        Minimum outcomes in the window before the breaker may trip
        (prevents one early failure from tripping a fresh breaker).
    recovery_calls:
        Number of degraded (fallback) draws served while OPEN before the
        breaker moves to HALF_OPEN and probes the primary once.
    """

    def __init__(
        self,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        recovery_calls: int = 8,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_calls < 1 or recovery_calls < 1:
            raise ValueError("min_calls and recovery_calls must be >= 1")
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_calls = int(min_calls)
        self.recovery_calls = int(recovery_calls)
        self.state = CLOSED
        self.trips = 0
        self.recoveries = 0
        self._outcomes: list[bool] = []  # True = failure
        self._open_draws = 0

    @property
    def recovery_remaining(self) -> int:
        """Refused draws left before an OPEN breaker probes the primary
        (0 when CLOSED or HALF_OPEN) — the basis for retry-after hints."""
        if self.state != OPEN:
            return 0
        return max(0, self.recovery_calls - self._open_draws)

    def allow_primary(self) -> bool:
        """May the next draw try the primary source?

        CLOSED: yes.  HALF_OPEN: yes (this is the probe).  OPEN: no,
        unless enough degraded draws have been served — then the breaker
        moves to HALF_OPEN and admits the probe.
        """
        if self.state == CLOSED or self.state == HALF_OPEN:
            return True
        self._open_draws += 1
        if self._open_draws >= self.recovery_calls:
            self.state = HALF_OPEN
            _trace.event("resilience.breaker.half_open")
            return True
        return False

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            # Probe succeeded: close and forget the failure history.
            self.state = CLOSED
            self.recoveries += 1
            self._outcomes = []
            _trace.event("resilience.breaker.close")
            return
        self._push(False)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # Probe failed: back to OPEN for another recovery period.
            self.state = OPEN
            self._open_draws = 0
            _trace.event("resilience.breaker.reopen")
            return
        self._push(True)
        if (
            self.state == CLOSED
            and len(self._outcomes) >= self.min_calls
            and (sum(self._outcomes) / len(self._outcomes))
            >= self.failure_threshold
        ):
            self.state = OPEN
            self.trips += 1
            self._open_draws = 0
            _trace.event(
                "resilience.breaker.trip",
                failures=sum(self._outcomes),
                window=len(self._outcomes),
            )

    def _push(self, failed: bool) -> None:
        self._outcomes.append(failed)
        if len(self._outcomes) > self.window:
            self._outcomes.pop(0)


def _as_distribution(source: Any) -> Distribution:
    if isinstance(source, Distribution):
        return source
    if callable(source):
        return FunctionDistribution(source)
    raise TypeError(
        f"expected a Distribution or sampling function, got {type(source).__name__}"
    )


class ResilientSource(Distribution):
    """A distribution that survives a misbehaving primary source.

    Parameters
    ----------
    primary:
        The wrapped :class:`Distribution` or sampling function
        ``fn(rng) -> sample``.
    fallback:
        Distribution (or sampling function) served when the primary is
        exhausted or the breaker is open.  ``None`` means failures
        surface as :class:`~repro.resilience.policies.SourceFailure`.
    max_retries:
        Retries per draw after the first attempt fails.
    backoff_s / jitter:
        First-retry delay in seconds, doubled per retry, multiplied by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` from the seeded jitter
        generator.  The default ``backoff_s=0`` never sleeps.
    breaker:
        A :class:`CircuitBreaker`, or ``None`` to disable breaking.
    failure_types:
        Exception types counted as source failures; anything else
        propagates untouched.
    seed:
        Seed for the jitter generator (kept separate from the sampling
        generator so retries never perturb the sample stream).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    def __init__(
        self,
        primary: Any,
        fallback: Any | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.0,
        jitter: float = 0.5,
        breaker: CircuitBreaker | None = None,
        failure_types: tuple = (Exception,),
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0 or jitter < 0:
            raise ValueError("backoff_s and jitter must be non-negative")
        self.primary = _as_distribution(primary)
        self.fallback = None if fallback is None else _as_distribution(fallback)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.jitter = float(jitter)
        self.breaker = breaker
        self.failure_types = failure_types
        self._jitter_rng = np.random.default_rng(seed)
        self._sleep = sleep
        # Event counters (mirrored into runtime metrics; kept here so a
        # single source can be inspected directly in tests/notebooks).
        self.retries = 0
        self.failures = 0
        self.fallback_draws = 0

    def structural_params(self):
        # Sampling behaviour depends on runtime failures, breaker state and
        # retry counters; hardened sources are never structurally shared.
        return None

    @property
    def discrete(self) -> bool:  # type: ignore[override]
        return self.primary.discrete

    @property
    def support(self):
        return self.primary.support

    # -- draw path ----------------------------------------------------------

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        breaker = self.breaker
        if breaker is not None and not breaker.allow_primary():
            return self._degraded(n, rng, reason="breaker-open")
        probing = breaker is not None and breaker.state == HALF_OPEN
        delay = self.backoff_s
        last_exc: BaseException | None = None
        for attempt in range(self.max_retries + 1):
            try:
                out = self.primary.sample_n(n, rng)
            except self.failure_types as exc:
                last_exc = exc
                self.failures += 1
                sink = _metrics.active()
                if sink is not None:
                    sink.record_source(failures=1)
                if attempt >= self.max_retries:
                    break
                self.retries += 1
                if sink is not None:
                    sink.record_source(retries=1)
                _trace.event(
                    "resilience.source.retry",
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                )
                if delay > 0.0:
                    self._sleep(
                        delay * (1.0 + self.jitter * self._jitter_rng.random())
                    )
                    delay *= 2.0
            else:
                if breaker is not None:
                    recoveries = breaker.recoveries
                    breaker.record_success()
                    sink = _metrics.active()
                    if sink is not None and breaker.recoveries != recoveries:
                        sink.record_source(recoveries=1)
                return out
        # Retries exhausted for this draw.
        if breaker is not None:
            trips = breaker.trips
            breaker.record_failure()
            sink = _metrics.active()
            if sink is not None and breaker.trips != trips:
                sink.record_source(trips=1)
            if probing:
                # The probe failed; serve this draw degraded like the
                # OPEN state would have.
                return self._degraded(n, rng, reason="probe-failed")
        if self.fallback is not None:
            return self._degraded(n, rng, reason="retries-exhausted")
        raise SourceFailure(
            f"primary source failed {self.max_retries + 1} time(s) and no "
            f"fallback is declared (last error: {type(last_exc).__name__}: "
            f"{last_exc})"
        ) from last_exc

    def _degraded(self, n: int, rng, reason: str) -> np.ndarray:
        if self.fallback is None:
            raise SourceFailure(
                f"circuit breaker is {self.breaker.state if self.breaker else 'n/a'} "
                f"({reason}) and no fallback distribution is declared"
            )
        self.fallback_draws += 1
        sink = _metrics.active()
        if sink is not None:
            sink.record_source(fallbacks=1)
        _trace.event("resilience.source.fallback", reason=reason, n=int(n))
        return self.fallback.sample_n(n, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self.breaker.state if self.breaker is not None else "no-breaker"
        return (
            f"<ResilientSource primary={type(self.primary).__name__} "
            f"fallback={type(self.fallback).__name__ if self.fallback else None} "
            f"breaker={state}>"
        )
