"""Cooperative cancellation for in-flight evaluations.

Deadlines and budgets are enforced *between* draws by
:meth:`repro.core.conditionals.Accounting.admit`, but a draw that is already
executing on a worker thread used to run to completion no matter what —
an expired per-request deadline or a disconnected client kept burning a
thread.  This module closes that gap with the standard cooperative
pattern: a :class:`CancellationToken` installed around an evaluation
(:func:`scope`) is polled by the engines at their natural batch
boundaries — per plan step in :class:`~repro.core.engines.NumpyEngine`
and the interpreter, per kernel in the fused backend, per chunk in
:class:`~repro.runtime.parallel.ParallelEngine` — and a tripped token
stops the run at the next boundary with :class:`EvaluationCancelled`.

Tokens trip two ways:

- **explicitly** — ``token.cancel("client-disconnected")``; the service
  tier wires this to the asyncio future of each request, so a caller
  abandoning a request actually frees the worker thread;
- **by deadline** — ``CancellationToken(deadline_at=...)`` (or
  :meth:`CancellationToken.with_timeout`) trips once ``monotonic()``
  passes the given instant; each config's accounting holds one for its
  ``deadline``, which a :class:`~repro.core.sampling.Draw` installs around
  every engine run (ledger fills included) so ambient deadlines stop
  mid-run too.

Cancellation never consumes or perturbs the sampling RNG stream: a check
is a flag read plus (for deadline tokens) a clock read, so a run that is
*not* cancelled draws exactly the samples it would have drawn with no
token installed.  :class:`EvaluationCancelled` carries partial-progress
metadata (``progress``) naming how far the run got — steps for the
serial engines, chunks/rows for the parallel engine.

This module is stdlib-only by design: :mod:`repro.core.engines` imports
it, so it can depend on nothing in ``repro``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import monotonic

__all__ = [
    "CancellationToken",
    "EvaluationCancelled",
    "current",
    "check_current",
    "scope",
    "swap",
]


class EvaluationCancelled(RuntimeError):
    """An in-flight evaluation was stopped at a batch boundary.

    Structured fields:

    - ``reason`` — why the token tripped (``"deadline"``,
      ``"client-disconnected"``, or whatever the canceller passed);
    - ``progress`` — partial-progress metadata recorded at the boundary
      that observed the cancellation (e.g. ``{"step": 12, "steps": 40}``
      from a serial engine, ``{"chunks_done": 3, "chunks": 8,
      "rows_done": 24576}`` from the parallel engine).  Empty when the
      cancellation was observed before any work started.
    """

    def __init__(self, message: str, *, reason: str = "cancelled",
                 progress: dict | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.progress = dict(progress or {})


class CancellationToken:
    """A thread-safe tripwire polled by engines at batch boundaries.

    Parameters
    ----------
    deadline_at:
        Absolute ``time.monotonic()`` instant after which the token
        reports cancelled with reason ``"deadline"``; ``None`` for a
        token that only trips explicitly.
    """

    __slots__ = ("_cancelled", "_reason", "deadline_at", "_lock")

    def __init__(self, deadline_at: float | None = None) -> None:
        self._cancelled = False
        self._reason: str | None = None
        self.deadline_at = deadline_at
        self._lock = threading.Lock()

    @classmethod
    def with_timeout(cls, seconds: float | None) -> "CancellationToken":
        """A token that trips ``seconds`` from now (``None``: never)."""
        if seconds is None:
            return cls()
        if seconds < 0:
            raise ValueError(f"timeout must be >= 0, got {seconds}")
        return cls(deadline_at=monotonic() + float(seconds))

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token explicitly (idempotent; first reason wins)."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = str(reason)

    @property
    def cancelled(self) -> bool:
        """Tripped — explicitly or by an expired deadline."""
        if self._cancelled:
            return True
        if self.deadline_at is not None and monotonic() > self.deadline_at:
            self.cancel("deadline")
            return True
        return False

    @property
    def expired(self) -> bool:
        """The deadline (if any) has passed."""
        return self.deadline_at is not None and monotonic() > self.deadline_at

    @property
    def reason(self) -> str | None:
        """Why the token tripped (``None`` while still live)."""
        self.cancelled  # noqa: B018 — promotes an expired deadline to a reason
        return self._reason

    def check(self, **progress) -> None:
        """Raise :class:`EvaluationCancelled` if tripped; else no-op.

        Keyword arguments become the exception's partial-progress
        metadata, recorded at the boundary that observed the trip.
        """
        if self.cancelled:
            raise EvaluationCancelled(
                f"evaluation cancelled ({self._reason})"
                + (f" at {progress}" if progress else ""),
                reason=self._reason or "cancelled",
                progress=progress,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._reason if self.cancelled else "live"
        return f"<CancellationToken {state} deadline_at={self.deadline_at}>"


# -- the ambient token --------------------------------------------------------
#
# Engines cannot take a ``token=`` parameter without threading it through
# every caller (SampleContext, SPRT, expectation, the coalescer, pickled
# parallel chunks ...), so the active token travels the same way the
# active EvaluationConfig does: per-thread ambient state installed by a
# context manager around the evaluation.

_active = threading.local()


def current() -> CancellationToken | None:
    """The token installed for this thread, or ``None``."""
    return getattr(_active, "token", None)


def check_current(**progress) -> None:
    """Convenience: ``current().check(...)`` when a token is installed."""
    token = getattr(_active, "token", None)
    if token is not None:
        token.check(**progress)


@contextmanager
def scope(token: CancellationToken | None):
    """Install ``token`` as this thread's ambient cancellation token.

    ``scope(None)`` is a no-op context (callers need not branch).
    Scopes nest; the inner token shadows the outer one for its extent.
    """
    if token is None:
        yield None
        return
    previous = swap(token)
    try:
        yield token
    finally:
        swap(previous)


def swap(token: CancellationToken | None) -> CancellationToken | None:
    """Install ``token`` (``None``: none) for this thread; return the
    token it replaces.  :func:`scope` without a generator frame, for a
    draw that installs its deadline around each engine run."""
    previous = getattr(_active, "token", None)
    _active.token = token
    return previous
