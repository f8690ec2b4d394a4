"""Cross-query sample ledger: fresh runs of a seeded query, memoised.

The compiler stack made *compilation* pay-once; this module does the same
for the fresh runs of Sec 4.2 that an analyst asks again.  A typical
session interrogates one uncertain value repeatedly under one seed, and a
hot seed comes back across sessions; before the ledger every ask redrew
its rows from scratch.

The rule
--------

:meth:`Draw.sample(n) <repro.core.sampling.Draw.sample>` is served only
when the caller passed an integer seed (``int`` or ``np.integer``).  It is
served from the entry keyed ``(structural_hash, engine, seed)``, which
holds, per ``n`` asked, the rows of one fresh ``n``-row run of the plan
from ``np.random.default_rng(seed)``: what the same call computes with the
ledger off.  So every served array equals the ledger-off one bit for bit,
and a rebuilt entry reproduces its columns.

Everything else draws as with the ledger off: a query on an explicit
:class:`~numpy.random.Generator` or on the ambient ``config.rng``
advances that generator; a sequential test (SPRT, adaptive ``E``) runs
its batches through ``draw.run``.

Entries are keyed per *shape*, not per graph: any plan of an entry's
shape draws the same rows, so isomorphic sessions share one entry and
each fill runs the plan of the query it serves.  An entry holds its
columns, never a plan or a node, so dropping a query's graph frees it
while its rows stay cached.

Eviction
--------

The byte budget (``sample_cache=<bytes>``, :data:`DEFAULT_MAX_BYTES` for
``True``) charges each entry its columns plus
:data:`ENTRY_OVERHEAD_BYTES`.  A new entry stays *unproven* until its
first hit.  At most one entry is unproven: the one just served.  When
another entry is served, the unproven one is dropped and its key,
without its rows, joins a bounded FIFO of remembered keys
(:data:`REMEMBERED_KEYS`); an entry created for a remembered key is
proven at once.  So a flood of one-shot queries holds one entry's rows,
not a share of the budget, and a session asked again keeps its rows
from its second ask on.  Then all entries leave least recently used
first down to the budget.  Both rules run after every serve, hit or
miss.  A query repeated right after its first run still hits: its entry
is the one just served.  A smaller budget applies at once.

Safety gating (always falls back to a fresh engine run, never errors):
opaque plans (no structural hash), memo-carrying draws, engines outside
:data:`_LEDGER_ENGINES` and any draw under ``on_nonfinite="resample"``
(row repair consumes extra stream) bypass the ledger.

Every fill is a run of the query's :class:`~repro.core.sampling.Draw`
(``draw.run``): admitted through the same ``config.accounting.admit`` as
any draw, and stopped by the draw's deadline token like any other engine
run.  A cached serve admits no rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

__all__ = [
    "LedgerEntry",
    "SampleLedger",
    "LEDGER",
    "clear_ledger",
]

#: Byte budget used when ``sample_cache=True`` (no explicit budget).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: How many keys of entries dropped before their first hit the ledger
#: remembers, oldest first, so that the entry re-created for one of them
#: is proven at once: the A1out queue of 2Q (Johnson and Shasha, VLDB
#: 1994), which costs a key, not rows.  On fig08_analyst a hot session
#: comes back after about 24 one-shot keys; 256, 1 024 and 4 096 keys
#: give the same hits over 20 000 queries at seeds 5, 6 and 7, and
#: 4 096 keys cost 1.4 MiB more peak RSS (``docs/performance.md``).
REMEMBERED_KEYS = 256

#: Bytes charged per entry for what it holds besides its columns: the
#: entry, its key, its run table and the column array headers.  Measured
#: with CPython 3.11 and NumPy 2.4 on a 2-CPU x86 host, over 1 000-4 000
#: sessions of two seeded one-shot entries each (``E(100)`` on a fresh
#: Fig 8 speed graph, each seed asked twice so its entry stays): 668-670 B
#: per entry traced by ``tracemalloc``, 476-741 B of RSS growth.
ENTRY_OVERHEAD_BYTES = 672

#: Engines whose ``run`` is a function of the plan, ``n`` and the seed
#: alone.  A parallel engine instance is excluded: its chunk layout and
#: worker count shape its rows and are not in the key.
_LEDGER_ENGINES = frozenset({"numpy", "fused", "interpreter"})


def _record(sink, **counters) -> None:
    """Count ``counters`` into ``sink`` (a draw's metrics sink), if any."""
    if sink is not None:
        sink.record_ledger(**counters)


class LedgerEntry:
    """The fresh runs of one seed: plan shape × engine × seed.

    ``runs[n]`` is the root column of one fresh ``n``-row run from
    ``np.random.default_rng(seed)``.  Holds no plan: each fill runs the
    plan it serves.  ``nbytes`` is what the byte budget charges it: its
    columns plus :data:`ENTRY_OVERHEAD_BYTES`.  ``proven`` is set by its
    first hit, or when it is created for a remembered key.
    """

    __slots__ = ("key", "runs", "nbytes", "proven")

    def __init__(self, key) -> None:
        self.key = key
        self.runs: dict[int, np.ndarray] = {}
        self.nbytes = ENTRY_OVERHEAD_BYTES
        self.proven = False


class SampleLedger:
    """Memory-bounded cache of seeded fresh runs (process-global).

    Entries are pure functions of (plan shape, engine, seed), so eviction
    is always safe: a rebuilt entry reproduces bit-identical columns.
    Keyed like the structural plan cache — isomorphic plans from
    different sessions share one entry.

    A new entry is unproven until a serve reads its cached rows.  Only
    the entry just served may be unproven: any other is dropped and its
    key remembered, and an entry created for a remembered key is proven
    at once.  Every entry then shares ``max_bytes``, least recently used
    first out (2Q with a one-entry A1in queue).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, LedgerEntry]" = OrderedDict()
        # The key of the one entry never hit, if any: the newest.
        self._unproven = None
        # Keys of entries dropped before their first hit, oldest first.
        self._remembered: "OrderedDict[tuple, None]" = OrderedDict()
        self.max_bytes = int(max_bytes)
        # Running sum of the entries' ``nbytes``, kept wherever an entry
        # grows or leaves, so a fill never sums over the entries.
        self._bytes = 0

    # -- public API ---------------------------------------------------------

    def serve(self, draw, n: int) -> "np.ndarray | None":
        """The rows of a seeded :class:`~repro.core.sampling.Draw`'s
        ``sample(n)``, or ``None`` to signal fallback.

        ``None`` means the caller must draw fresh (no integer seed, opaque
        plan, untracked engine, resample policy).  A returned array is
        always a private copy — callers may mutate it.
        """
        key = self._key(draw)
        if key is None:
            _record(draw.metrics, bypasses=1)
            return None
        with self._lock:
            self._apply_budget(draw)
            entry = self._entry_for(key, draw)
            column = entry.runs.get(n)
            if column is None:
                column = self._fill(entry, draw, n)
                entry.runs[n] = column
                entry.nbytes += column.nbytes
                self._bytes += column.nbytes
                _record(draw.metrics, misses=1, rows_drawn=n)
            else:
                draw.accounting.admit(0)  # the deadline still applies
                entry.proven = True
                _record(draw.metrics, hits=1, rows_reused=n)
            self._evict(key, draw.metrics)
            return column.copy()

    def open_window(self, draw) -> None:
        """Always ``None``: no sequential draw reads the ledger.  Kept
        because the end-to-end benchmark's tracer wraps it by name."""
        return None

    def invalidate_entries(self, plan) -> int:
        """Drop every entry for ``plan``'s shape; returns how many were
        dropped.

        Invalidation is keyed by structural hash, so isomorphic plans
        sharing the entry are invalidated together: what
        :func:`~repro.core.plan.invalidate_plan` needs once a graph's
        nodes may have changed.
        """
        shash = getattr(plan, "structural_hash", None)
        if shash is None:
            return 0
        with self._lock:
            doomed = [k for k in self._entries if k[0] == shash]
            for k in doomed:
                self._drop(k)
        if doomed:
            _record(_metrics.active(), invalidations=len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._remembered.clear()
            self._unproven = None
            self._bytes = 0

    def state(self) -> dict:
        """What the ledger holds now: entries, bytes and budget."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }

    # -- resolution ---------------------------------------------------------

    def _apply_budget(self, draw) -> None:
        """Set the byte budget of ``draw``'s config (under the lock); a
        smaller budget is enforced at once, not at the next miss."""
        # ``True`` is the default budget, not whichever budget came last.
        budget = draw.config.sample_cache
        max_bytes = DEFAULT_MAX_BYTES if budget is True else int(budget)
        shrunk = max_bytes < self.max_bytes
        self.max_bytes = max_bytes
        if shrunk:
            self._evict(None, draw.metrics)

    @staticmethod
    def _key(draw) -> "tuple | None":
        """``(structural_hash, engine, seed)`` of a draw the ledger
        serves, or ``None``."""
        if draw.seed is None or draw.config.on_nonfinite == "resample":
            # Row repair redraws from the serving stream mid-run; cached
            # columns must never absorb (or skip) repair draws.
            return None
        name = draw.engine.name
        shash = draw.plan.structural_hash
        if name not in _LEDGER_ENGINES or shash is None:
            return None
        return shash, name, draw.seed

    # -- entries ------------------------------------------------------------

    def _entry_for(self, key, draw) -> LedgerEntry:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        _trace.event("ledger.entry", engine=key[1], structural_hash=key[0])
        entry = LedgerEntry(key)
        if key in self._remembered:
            del self._remembered[key]  # asked again: proven at once
            entry.proven = True
        self._entries[key] = entry
        self._bytes += entry.nbytes
        return entry

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes
            if key == self._unproven:
                self._unproven = None

    def _fill(self, entry: LedgerEntry, draw, n: int) -> np.ndarray:
        """Run ``draw``'s plan for ``n`` rows on a fresh generator of the
        entry's seed (any plan of the entry's shape draws the same rows).

        A failed fill drops the entry, so a query that never completed
        leaves no entry behind.
        """
        try:
            return np.asarray(draw.run(n, np.random.default_rng(entry.key[2])))
        except BaseException:
            self._drop(entry.key)
            raise

    def _evict(self, keep, sink) -> None:
        """Drop the unproven entry unless it is ``keep``, remembering its
        key, then evict whole entries, least recently used first, down to
        ``max_bytes``.  Runs after every serve, hit or miss: a hit on
        another entry leaves the unproven one no longer just served.

        The entry just served (``keep``, the most recently used) is never
        evicted (evicting it would thrash); a single column larger than
        the whole budget therefore survives until another entry displaces
        it.  The LRU pass reads no entry it does not evict.
        """
        unproven = self._unproven
        self._unproven = None if keep is None or self._entries[keep].proven else keep
        if unproven not in (None, keep):
            self._drop(unproven)
            self._remembered[unproven] = None
            if len(self._remembered) > REMEMBERED_KEYS:
                self._remembered.popitem(last=False)
            _record(sink, evictions=1)
        if self.max_bytes <= 0:
            return
        while self._bytes > self.max_bytes:
            key = next(iter(self._entries))
            if key == keep:
                break
            self._drop(key)
            _record(sink, evictions=1)


#: The process-global ledger every consumer serves from.
LEDGER = SampleLedger()


_metrics.register_gauges("ledger", LEDGER.state)


def clear_ledger() -> None:
    """Drop every cached sample column."""
    LEDGER.clear()
