"""Graceful degradation under overload: brownout levels and bulkheads.

The paper's semantics make *precision* a tunable resource: an answer
computed from fewer samples is still a correct answer — the evidence is
just wider.  This module exploits that to give the service tier a
response to pressure that is better than the binary accept-or-shed:

- :class:`BrownoutController` — a queue-pressure-driven controller that
  walks the service through configurable **degradation levels**, each a
  sample-budget factor.  Under sustained pressure it *escalates* one
  level at a time (additive increase of severity, rate-limited by a
  dwell time); once pressure has stayed below the low watermark for a
  hold period it *recovers* one level (hysteresis — the
  escalate/recover watermarks and dwell times form the classic AIMD
  sawtooth over precision instead of admission).  Hard shedding at
  ``max_pending`` remains the last resort above the deepest level.
- :class:`DegradationRecord` — the frozen provenance attached to every
  degraded :class:`~repro.service.requests.QueryResult`: the level, the
  nominal sample count the request asked for, and the effective count it
  was answered with.  Callers always see exactly what precision they
  got.
- :class:`BulkheadRegistry` / :class:`GroupBulkhead` — per-structural-
  hash-group isolation in the coalescer: each group gets a concurrency
  limit and its own reused :class:`~repro.resilience.source.CircuitBreaker`,
  so one pathological plan shape (a huge fused kernel, a chaos-stalled
  source) cannot starve every other group.  Tripped groups fail fast
  with :class:`~repro.service.errors.BulkheadRejected` carrying
  ``Retry-After``-style metadata while healthy groups keep serving.

Determinism contract, extended
------------------------------

Degradation changes *how many* samples answer a request, never *which*
stream they come from.  The effective count is a pure function of
``(nominal_samples, level)`` — :meth:`DegradationDecision.apply` — so a
seeded request answered at level *k* is bit-identical to solo evaluation
of the same request with ``samples=effective`` at level 0.  The level a
request is answered at depends on load (it is *not* reproducible across
runs); the record says which level that was, and replaying the request
solo at that budget reproduces the answer bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from time import monotonic

from repro.resilience.source import CircuitBreaker
from repro.runtime import trace as _trace
from repro.service.errors import BulkheadRejected

__all__ = [
    "BrownoutController",
    "BulkheadRegistry",
    "DegradationDecision",
    "DegradationRecord",
    "GroupBulkhead",
]

#: Default degradation ladder: nominal, then halving steps down to 10%.
DEFAULT_LEVELS = (1.0, 0.5, 0.25, 0.1)


@dataclasses.dataclass(frozen=True)
class DegradationRecord:
    """Frozen provenance of one degraded answer.

    ``effective_samples`` is what actually answered the query,
    ``nominal_samples`` what the request (or the config default) asked
    for; their ratio is the precision the caller traded for latency.
    """

    level: int
    factor: float
    nominal_samples: int
    effective_samples: int


@dataclasses.dataclass(frozen=True)
class DegradationDecision:
    """One batch's frozen brownout state: the level every request in the
    batch is answered at.  Freezing the decision per batch is what makes
    the determinism contract statable — a request is answered *at a
    level*, not at whatever the controller drifted to mid-evaluation."""

    level: int
    factor: float
    min_samples: int

    def effective(self, nominal: int) -> int:
        """The degraded sample count: pure in ``(nominal, level)``."""
        if self.level == 0:
            return int(nominal)
        return max(self.min_samples, int(int(nominal) * self.factor))

    def apply(self, nominal: int) -> "tuple[int, DegradationRecord | None]":
        """``(effective_samples, record)``; record is ``None`` at level 0
        (undegraded answers carry no degradation provenance)."""
        nominal = int(nominal)
        effective = self.effective(nominal)
        if self.level == 0 or effective >= nominal:
            return nominal, None
        return effective, DegradationRecord(
            level=self.level,
            factor=self.factor,
            nominal_samples=nominal,
            effective_samples=effective,
        )


#: The identity decision (level 0) used when no controller is installed.
NO_DEGRADATION = DegradationDecision(level=0, factor=1.0, min_samples=1)


class BrownoutController:
    """Queue-pressure-driven degradation levels with hysteresis.

    Parameters
    ----------
    levels:
        The degradation ladder as sample-budget factors; index 0 must be
        1.0 (nominal).  Deeper indices are more degraded.
    high_watermark / low_watermark:
        Queue-pressure thresholds (``pending / max_pending``).  Pressure
        at or above the high watermark escalates one level; pressure at
        or below the low watermark begins recovery.  The gap between
        them is the hysteresis band where the level holds.
    escalate_hold_s:
        Minimum dwell between successive escalations (rate-limits the
        additive-increase ramp so one burst cannot slam to max level).
    recover_hold_s:
        How long pressure must stay at or below the low watermark before
        one recovery step (the slow half of the AIMD sawtooth).
    min_samples:
        Floor on any degraded sample count — answers stay statistically
        meaningful even at the deepest level.
    clock:
        Injection point for the monotonic clock (tests pass a fake).
    """

    def __init__(
        self,
        levels: "tuple[float, ...]" = DEFAULT_LEVELS,
        *,
        high_watermark: float = 0.75,
        low_watermark: float = 0.25,
        escalate_hold_s: float = 0.02,
        recover_hold_s: float = 0.2,
        min_samples: int = 16,
        clock=monotonic,
    ) -> None:
        levels = tuple(float(f) for f in levels)
        if not levels or levels[0] != 1.0:
            raise ValueError(
                f"levels must start at factor 1.0 (nominal), got {levels}"
            )
        if any(not 0.0 < f <= 1.0 for f in levels):
            raise ValueError(f"level factors must be in (0, 1], got {levels}")
        if any(a <= b for a, b in zip(levels, levels[1:])):
            raise ValueError(
                f"level factors must strictly decrease, got {levels}"
            )
        if not 0.0 <= low_watermark < high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= 1, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        if escalate_hold_s < 0 or recover_hold_s < 0:
            raise ValueError("hold times must be non-negative")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.levels = levels
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self.escalate_hold_s = float(escalate_hold_s)
        self.recover_hold_s = float(recover_hold_s)
        self.min_samples = int(min_samples)
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._peak_level = 0
        self._escalations = 0
        self._recoveries = 0
        self._last_escalation = float("-inf")
        self._calm_since: float | None = None

    # -- state ---------------------------------------------------------------

    @property
    def level(self) -> int:
        return self._level

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    @property
    def at_max_level(self) -> bool:
        return self._level >= self.max_level

    def decision(self) -> DegradationDecision:
        """Freeze the current level into a per-batch decision."""
        level = self._level
        return DegradationDecision(
            level=level, factor=self.levels[level], min_samples=self.min_samples
        )

    # -- the control loop ----------------------------------------------------

    def observe(self, pending: int, max_pending: int) -> int:
        """Feed one queue-depth observation; returns the (new) level.

        Called from the service's submit path and batch loop — cheap
        enough for both: a clock read and a couple of comparisons under
        a lock.
        """
        pressure = pending / max_pending if max_pending > 0 else 1.0
        now = self._clock()
        with self._lock:
            if pressure >= self.high_watermark:
                self._calm_since = None
                if (
                    self._level < self.max_level
                    and now - self._last_escalation >= self.escalate_hold_s
                ):
                    self._transition(self._level + 1, now, "escalate", pressure)
            elif pressure <= self.low_watermark:
                if self._level > 0:
                    if self._calm_since is None:
                        self._calm_since = now
                    elif now - self._calm_since >= self.recover_hold_s:
                        self._transition(
                            self._level - 1, now, "recover", pressure
                        )
                        # Recovery of further levels requires a fresh
                        # calm period: one step per hold (the slow half).
                        self._calm_since = now
            else:
                # Hysteresis band: hold the level, reset the calm timer.
                self._calm_since = None
            return self._level

    def _transition(self, new: int, now: float, kind: str, pressure: float):
        old, self._level = self._level, new
        self._peak_level = max(self._peak_level, new)
        if kind == "escalate":
            self._escalations += 1
            self._last_escalation = now
        else:
            self._recoveries += 1
        _trace.event(
            f"service.brownout.{kind}",
            level=new,
            previous=old,
            pressure=round(pressure, 4),
        )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "level": self._level,
                "max_level": self.max_level,
                "factor": self.levels[self._level],
                "peak_level": self._peak_level,
                "escalations": self._escalations,
                "recoveries": self._recoveries,
                "transitions": self._escalations + self._recoveries,
            }


# ---------------------------------------------------------------------------
# Bulkheads: per-structural-group isolation in the coalescer.
# ---------------------------------------------------------------------------


class GroupBulkhead:
    """One structural group's isolation state: slots + a circuit breaker.

    ``try_enter`` admits (or refuses) one bulk evaluation of the group;
    ``exit`` releases the slot and feeds the outcome to the breaker.
    Cancelled evaluations exit with ``success=None`` — a cancellation is
    the *caller's* deadline, not evidence the group is unhealthy.
    """

    __slots__ = ("key", "limit", "breaker", "retry_after_s", "_active", "_lock")

    def __init__(
        self,
        key: str,
        *,
        limit: int,
        breaker: CircuitBreaker,
        retry_after_s: float,
    ) -> None:
        self.key = key
        self.limit = int(limit)
        self.breaker = breaker
        self.retry_after_s = float(retry_after_s)
        self._active = 0
        self._lock = threading.Lock()

    @property
    def active(self) -> int:
        return self._active

    def try_enter(self) -> "BulkheadRejected | None":
        """Admit one bulk evaluation; returns the rejection to apply to
        the group's requests (``None`` when admitted)."""
        with self._lock:
            if self._active >= self.limit:
                return BulkheadRejected(
                    group=self.key,
                    breaker_state=self.breaker.state,
                    reason="concurrency-limit",
                    retry_after_hint=self.retry_after_s,
                )
            if not self.breaker.allow_primary():
                remaining = max(1, self.breaker.recovery_remaining)
                _trace.event(
                    "service.bulkhead.reject", group=self.key,
                    state=self.breaker.state,
                )
                return BulkheadRejected(
                    group=self.key,
                    breaker_state=self.breaker.state,
                    reason="breaker-open",
                    retry_after_hint=self.retry_after_s * remaining,
                )
            self._active += 1
            return None

    def exit(self, success: "bool | None") -> None:
        """Release the slot; ``True``/``False`` feed the breaker,
        ``None`` (cancelled) records no outcome."""
        with self._lock:
            self._active -= 1
            if success is True:
                self.breaker.record_success()
            elif success is False:
                self.breaker.record_failure()

    def state(self) -> dict:
        with self._lock:
            return {
                "breaker": self.breaker.state,
                "active": self._active,
                "limit": self.limit,
                "trips": self.breaker.trips,
                "recoveries": self.breaker.recoveries,
            }


class BulkheadRegistry:
    """LRU-bounded map from group key to :class:`GroupBulkhead`.

    Parameters
    ----------
    max_concurrency:
        Concurrent bulk evaluations allowed per group (across worker
        threads).  The default of 1 gives the strict bulkhead: one slow
        group occupies at most one worker, leaving the rest for healthy
        shapes.
    breaker_factory:
        Zero-argument callable building each group's
        :class:`~repro.resilience.source.CircuitBreaker`.  The default
        is deliberately smaller than the source-level breaker (group
        bulk evaluations are coarse events): window 8, trip at half
        failing with at least 2 outcomes, 4 refused evaluations per
        recovery probe.
    retry_after_s:
        Base unit for ``retry_after_hint`` on rejections (scaled by the
        breaker's remaining recovery count for breaker-open rejects).
    max_groups:
        Bound on tracked groups; least-recently-used state is dropped
        (a re-arriving group starts with a fresh, closed breaker).
    """

    def __init__(
        self,
        *,
        max_concurrency: int = 1,
        breaker_factory=None,
        retry_after_s: float = 0.05,
        max_groups: int = 512,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if max_groups < 1:
            raise ValueError(f"max_groups must be >= 1, got {max_groups}")
        if retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {retry_after_s}"
            )
        self.max_concurrency = int(max_concurrency)
        self.retry_after_s = float(retry_after_s)
        self.max_groups = int(max_groups)
        self._breaker_factory = breaker_factory or (
            lambda: CircuitBreaker(
                window=8, failure_threshold=0.5, min_calls=2, recovery_calls=4
            )
        )
        self._groups: "OrderedDict[str, GroupBulkhead]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> GroupBulkhead:
        with self._lock:
            bulkhead = self._groups.get(key)
            if bulkhead is None:
                bulkhead = GroupBulkhead(
                    key,
                    limit=self.max_concurrency,
                    breaker=self._breaker_factory(),
                    retry_after_s=self.retry_after_s,
                )
                self._groups[key] = bulkhead
                while len(self._groups) > self.max_groups:
                    self._groups.popitem(last=False)
            else:
                self._groups.move_to_end(key)
            return bulkhead

    def states(self) -> dict:
        """Per-group breaker/occupancy snapshot (for ``/stats``)."""
        with self._lock:
            groups = list(self._groups.items())
        return {key: bulkhead.state() for key, bulkhead in groups}

    def open_groups(self) -> int:
        """How many tracked groups have a non-closed breaker right now."""
        with self._lock:
            groups = list(self._groups.values())
        return sum(1 for b in groups if b.breaker.state != "closed")
