"""Deterministic chaos harness: seedable fault injection for the pipeline.

Production resilience claims are worthless if the failure scenarios that
back them cannot be replayed.  This module makes every injected fault a
pure function of a seed and a call counter:

- :class:`ChaosDistribution` wraps any distribution and injects NaN
  bursts, raised exceptions (:class:`InjectedFault`) and latency stalls.
  Injection decisions come from ``default_rng((seed, call_index))`` —
  never from the sampling generator — so an injected run draws *exactly*
  the samples the clean run would have drawn, and two runs with the same
  seed inject identically.
- **Worker kills** use the sentinel-file protocol (see
  :func:`arm_kill_sentinel`): the first worker to observe the sentinel
  deletes it and dies with ``os._exit``, so the retried chunk succeeds.
  Because :class:`~repro.runtime.parallel.ParallelEngine` retries crashed
  chunks with their original chunk seeds, kill scenarios are bit-identical
  across worker counts — the determinism the chaos suite asserts.
- :class:`ChaosEngine` wraps a registered execution engine and injects
  the same fault classes at the engine boundary (one decision per batch),
  for scenarios where the *executor*, not the source, misbehaves.

Everything here is picklable (faults must survive the trip into pool
workers): configure with module-level callables and sentinel paths, not
closures.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.engines import ExecutionEngine, get_engine
from repro.dists.base import Distribution
from repro.runtime import trace as _trace


class InjectedFault(RuntimeError):
    """An exception raised on purpose by the chaos harness."""


def arm_kill_sentinel(path) -> str:
    """Create the sentinel file that triggers a single worker kill."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("armed")
    return path


def _consume_kill_sentinel(path: str, once: bool) -> bool:
    """True when this process should die now (sentinel observed)."""
    if not os.path.exists(path):
        return False
    if once:
        try:
            os.unlink(path)
        except FileNotFoundError:
            # A sibling worker raced us to the kill; carry on sampling.
            return False
    return True


class ChaosDistribution(Distribution):
    """Wrap ``inner`` with seed-deterministic fault injection.

    Parameters
    ----------
    inner:
        The well-behaved distribution to corrupt.
    seed:
        Chaos seed.  Injection decisions are drawn from
        ``default_rng((seed, call_index))``, independent per call and
        fully reproducible; the sampling generator is never consumed.
    nan_rate:
        Per-call probability of a NaN burst.
    nan_burst:
        Fraction of the batch corrupted by a burst (at least one row).
    error_rate:
        Per-call probability of raising :class:`InjectedFault` *before*
        any sample is drawn.
    latency_s / latency_rate:
        Stall duration and per-call probability of stalling (used to
        drive draws past a configured ``deadline``).
    kill_sentinel / kill_once:
        Path to an armed sentinel file (:func:`arm_kill_sentinel`); a
        process observing it dies with ``os._exit(1)``.  ``kill_once``
        (default) deletes the sentinel first so retries succeed.
    """

    def __init__(
        self,
        inner: Distribution,
        seed: int = 0,
        nan_rate: float = 0.0,
        nan_burst: float = 0.25,
        error_rate: float = 0.0,
        latency_s: float = 0.0,
        latency_rate: float = 1.0,
        kill_sentinel: str | None = None,
        kill_once: bool = True,
    ) -> None:
        for name, p in (
            ("nan_rate", nan_rate),
            ("error_rate", error_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not 0.0 < nan_burst <= 1.0:
            raise ValueError(f"nan_burst must be in (0, 1], got {nan_burst}")
        self.inner = inner
        self.seed = int(seed)
        self.nan_rate = float(nan_rate)
        self.nan_burst = float(nan_burst)
        self.error_rate = float(error_rate)
        self.latency_s = float(latency_s)
        self.latency_rate = float(latency_rate)
        self.kill_sentinel = kill_sentinel
        self.kill_once = kill_once
        self.calls = 0

    @property
    def discrete(self) -> bool:  # type: ignore[override]
        return self.inner.discrete

    @property
    def support(self):
        return self.inner.support

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self.calls += 1
        chaos = np.random.default_rng((self.seed, self.calls))
        if self.kill_sentinel is not None and _consume_kill_sentinel(
            self.kill_sentinel, self.kill_once
        ):
            os._exit(1)  # hard worker death: no exception, no cleanup
        if self.latency_s > 0.0 and chaos.random() < self.latency_rate:
            time.sleep(self.latency_s)
        if self.error_rate > 0.0 and chaos.random() < self.error_rate:
            _trace.event("chaos.raise", call=self.calls)
            raise InjectedFault(
                f"injected failure on call {self.calls} (seed {self.seed})"
            )
        out = self.inner.sample_n(n, rng)
        if self.nan_rate > 0.0 and chaos.random() < self.nan_rate:
            out = np.array(out, dtype=float, copy=True)
            k = max(1, int(round(self.nan_burst * n)))
            idx = chaos.choice(n, size=min(k, n), replace=False)
            out[idx] = np.nan
            _trace.event("chaos.nan_burst", call=self.calls, rows=int(len(idx)))
        return out


class ChaosEngine(ExecutionEngine):
    """An :class:`~repro.core.engines.ExecutionEngine` that misbehaves.

    Wraps a registered engine (by name or instance) and, with
    seed-deterministic per-batch decisions, stalls or raises before
    delegating.  Register it (``register_engine(ChaosEngine(...), name=
    "chaos")``) or pass the instance as an ``engine=`` override.
    """

    name = "chaos"

    def __init__(
        self,
        inner: str = "numpy",
        seed: int = 0,
        error_rate: float = 0.0,
        latency_s: float = 0.0,
        latency_rate: float = 1.0,
        storm_calls: int = 0,
    ) -> None:
        if storm_calls < 0:
            raise ValueError(f"storm_calls must be >= 0, got {storm_calls}")
        self.inner = get_engine(inner)
        self.seed = int(seed)
        self.error_rate = float(error_rate)
        self.latency_s = float(latency_s)
        self.latency_rate = float(latency_rate)
        #: Latency storm: the first ``storm_calls`` batches stall
        #: *unconditionally* (no chaos-RNG coin flip), so a storm of a
        #: known length is scriptable — the overload/cancellation tests
        #: need "every batch is slow for a while", not "some batches are
        #: slow sometimes".
        self.storm_calls = int(storm_calls)
        self.calls = 0

    def _misbehave(self) -> None:
        self.calls += 1
        chaos = np.random.default_rng((self.seed, self.calls))
        if self.latency_s > 0.0 and (
            self.calls <= self.storm_calls
            or chaos.random() < self.latency_rate
        ):
            time.sleep(self.latency_s)
        if self.error_rate > 0.0 and chaos.random() < self.error_rate:
            _trace.event("chaos.engine.raise", call=self.calls)
            raise InjectedFault(
                f"injected engine failure on batch {self.calls} "
                f"(seed {self.seed})"
            )

    def run(self, plan, n, rng, memo=None, release=False):
        self._misbehave()
        return self.inner.run(plan, n, rng, memo, release)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChaosEngine inner={self.inner.name!r} seed={self.seed}>"


# ---------------------------------------------------------------------------
# Canned scenarios for the overload/degradation suite.
# ---------------------------------------------------------------------------


def latency_storm(
    stall_s: float = 0.05,
    batches: int = 8,
    inner: str = "numpy",
    seed: int = 0,
) -> ChaosEngine:
    """A :class:`ChaosEngine` whose first ``batches`` runs each stall
    ``stall_s`` seconds unconditionally, then behave normally.

    The canonical overload scenario: every in-flight evaluation is slow
    for a bounded storm, which drives queue pressure up (brownout
    escalation), trips per-request deadlines mid-run (cooperative
    cancellation), and then clears so recovery is observable.
    """
    return ChaosEngine(
        inner=inner, seed=seed, latency_s=stall_s,
        latency_rate=0.0, storm_calls=batches,
    )

