"""Cross-query sample ledger: incremental sample reuse across queries.

The compiler stack made *compilation* pay-once; this module does the same
for *sampling*.  A typical analyst flow interrogates one uncertain value
repeatedly — ``pr(...)`` via the SPRT, then ``expected_value()``, then
``confidence_interval()`` — and before the ledger every query redrew its
samples from scratch.  The :class:`SampleLedger` caches realized sample
columns per (plan structural hash × seed lineage × engine) and serves a
query needing ``N`` rows by reusing the cached prefix of length ``n`` and
drawing only the ``N − n`` suffix.

Bit-identity contract
---------------------

Every row range the ledger serves is bit-identical to the same range of a
single fresh engine run from the entry's lineage stream start.  Two entry
modes uphold that contract, chosen by a certify-or-probe gate at entry
creation (the PR 6 certifier pattern, sticky per plan shape × engine):

- **stream** — the plan's RNG consumption is *prefix-stable*: running
  ``n`` rows and then ``N − n`` more on the same generator equals one
  ``N``-row run (numpy bulk draws are sequential, so this holds whenever
  the plan makes exactly one bulk draw call per batch).  The entry keeps
  one growing column plus the live generator positioned after it; any
  query is a slice, extension draws only the suffix.
- **replay** — multi-draw plans interleave per-leaf streams differently
  at different batch sizes, so suffix extension is impossible on *any*
  engine that honours the reference stream.  The entry instead memoizes
  one full fresh-from-lineage-start run per distinct ``N`` — each cached
  column literally *is* a fresh ``N``-row run, so the contract holds
  trivially and repeated exact-``N`` queries (the analyst-session shape)
  are free.

The gate certifies statically when the plan's canonical draw sequence
(:func:`repro.analysis.certify.plan_draw_sequence`) is a single trusted
bulk-family event (or empty), and otherwise runs a dynamic probe: a
split run is compared against a full run across *every* plan slot —
comparing only the root would pass vacuously on boolean plans whose
output is constant.

Seed lineage
------------

- An explicit integer seed — or the *pristine* generator ``ensure_rng``
  builds from one — gives the strongest contract: the entry's stream
  starts exactly where the caller's would, so every served query is
  bit-identical to what the same call would return with the ledger off.
- An already-advanced :class:`~numpy.random.Generator` (typically the
  ambient ``config.rng``) is identified by its
  :class:`~numpy.random.SeedSequence` origin (entropy + spawn key); the
  entry's stream is *forked* from that origin under a ledger-private
  spawn tag, without consuming or observing the caller's stream.  Served
  rows are reproducible and i.i.d. but are drawn from the derived
  stream, not from the advancing ambient one — the documented trade for
  cross-query reuse (``docs/performance.md``).

Safety gating (always falls back to a fresh engine run, never errors):
opaque plans (no structural hash), memo-carrying draws, the parallel
engine (chunk-seeded streams are not prefix-stable by construction),
unknown engines, exotic bit generators without a seed sequence, and any
draw under ``on_nonfinite="resample"`` (row repair consumes extra stream)
all bypass the ledger.  Budget/deadline admission goes through the same
``config.accounting.admit`` as ``sampling._execute_plan`` but charges only
newly drawn suffix rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.engines import ExecutionEngine, get_engine
from repro.core.optimizer import resolve_level
from repro.resilience.chaos import InjectedFault
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace
from repro.runtime.cancellation import EvaluationCancelled

__all__ = [
    "LedgerEntry",
    "LedgerWindow",
    "SampleLedger",
    "LEDGER",
    "clear_ledger",
    "ledger_stats",
]

#: Byte budget used when ``sample_cache=True`` (no explicit budget).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Spawn-key tag appended when forking a ledger stream from a live
#: generator's seed-sequence origin.  Any fixed uint32 works; a dedicated
#: tag guarantees the forked stream never collides with user ``spawn()``
#: children of the same origin.
_LEDGER_SPAWN_TAG = 0x1ED6E9

#: Engines whose ``run`` honours the reference single-stream consumption
#: order (the repo-wide bit-identity contract).  The parallel engine is
#: excluded by design: its chunk-seeded stream re-derives child seeds per
#: call, so ``run(n); run(m)`` never equals ``run(n + m)``.
_LEDGER_ENGINES = frozenset({"numpy", "fused", "interpreter"})

#: Dynamic probe sizes: a full run of ``_PROBE_FULL`` rows is compared
#: against a split ``_PROBE_SPLIT + (full - split)`` run, slot by slot.
_PROBE_FULL = 32
_PROBE_SPLIT = 13


def _canonical_entropy(entropy) -> tuple:
    """Entropy of a ``SeedSequence`` as a hashable canonical tuple."""
    if entropy is None:
        return ()
    if isinstance(entropy, (int, np.integer)):
        return (int(entropy),)
    try:
        return tuple(int(e) for e in entropy)
    except TypeError:
        return (int(entropy),)


def _lineage(rng_spec, config) -> "tuple[tuple, tuple] | None":
    """Resolve an rng argument into ``(lineage_token, base_spec)``.

    ``lineage_token`` keys the ledger entry; ``base_spec`` is the
    serialisable recipe :func:`_base_generator` rebuilds the entry's
    private stream from (which is what makes eviction/rebuild
    deterministic).  Returns ``None`` when no stable lineage exists
    (caller bypasses the ledger).

    Three lineage kinds, strongest first:

    - ``("seed", s)`` — a raw integer seed: the entry's stream is
      ``default_rng(s)``, so served rows are bit-identical to ledger-off.
    - ``("origin", ...)`` — a *pristine* generator (state still equal to
      its seed-sequence construction state, which is what
      ``ensure_rng(int)`` hands every consumer): the entry's stream
      starts exactly where the caller's would, so served rows are again
      bit-identical to ledger-off.  The facade re-creates such a
      generator per call, so pristineness is the common case for every
      explicitly seeded query.
    - ``("stream", ...)`` — an already-advanced generator (typically the
      ambient ``config.rng``): no fixed replayable start exists, so the
      entry forks a ledger-private stream from the generator's
      seed-sequence origin.  Reproducible and i.i.d., but a *different*
      stream than ledger-off would consume — the documented trade.
    """
    if rng_spec is None:
        rng_spec = config.rng
    if isinstance(rng_spec, (int, np.integer)) and not isinstance(rng_spec, bool):
        seed = int(rng_spec)
        return ("seed", seed), ("seed", seed)
    if isinstance(rng_spec, np.random.Generator):
        bit_gen = rng_spec.bit_generator
        seed_seq = getattr(bit_gen, "seed_seq", None)
        if seed_seq is None or not hasattr(seed_seq, "entropy"):
            return None
        entropy = _canonical_entropy(seed_seq.entropy)
        if not entropy:
            return None
        spawn_key = tuple(int(k) for k in getattr(seed_seq, "spawn_key", ()))
        bg_name = type(bit_gen).__name__
        if hasattr(np.random, bg_name):
            try:
                pristine = type(bit_gen)(
                    _rebuild_seed_seq(entropy, spawn_key)
                )
                if bit_gen.state == pristine.state:
                    spec = ("origin", bg_name, entropy, spawn_key)
                    return spec, spec
            except Exception:
                pass
        token = ("stream", entropy, spawn_key)
        return token, ("derived", entropy, spawn_key)
    return None


def _rebuild_seed_seq(entropy: tuple, spawn_key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=list(entropy), spawn_key=tuple(spawn_key)
    )


def _base_generator(base_spec: tuple) -> np.random.Generator:
    """A fresh generator at the entry's lineage stream start."""
    kind = base_spec[0]
    if kind == "seed":
        from repro.rng import default_rng

        return default_rng(base_spec[1])
    if kind == "origin":
        _, bg_name, entropy, spawn_key = base_spec
        bit_gen = getattr(np.random, bg_name)(
            _rebuild_seed_seq(entropy, spawn_key)
        )
        return np.random.Generator(bit_gen)
    _, entropy, spawn_key = base_spec
    seed_seq = np.random.SeedSequence(
        entropy=list(entropy),
        spawn_key=tuple(spawn_key) + (_LEDGER_SPAWN_TAG,),
    )
    return np.random.default_rng(seed_seq)


def _record(**counters) -> None:
    sink = _metrics.active()
    if sink is not None:
        sink.record_ledger(**counters)


class LedgerEntry:
    """One cached sample stream: plan shape × lineage × engine."""

    __slots__ = (
        "key", "plan", "engine_name", "mode", "base_spec",
        "column", "count", "gen", "cursor", "runs", "nbytes",
    )

    def __init__(self, key, plan, engine_name: str, mode: str,
                 base_spec: tuple) -> None:
        self.key = key
        self.plan = plan  # the executed (optimized) plan object
        self.engine_name = engine_name
        self.mode = mode  # "stream" | "replay"
        self.base_spec = base_spec
        # stream mode: one growing column + the live continuation stream.
        self.column: np.ndarray | None = None
        self.count = 0
        self.gen = _base_generator(base_spec) if mode == "stream" else None
        self.cursor = 0
        # replay mode: one full fresh-from-base column per distinct N.
        self.runs: dict[int, np.ndarray] = {}
        self.nbytes = 0


class LedgerWindow:
    """Sequential window reads over one entry's stream (SPRT batches).

    Each ``draw(k)`` returns the next ``k`` rows of the entry's logical
    run — batch ``i`` reads rows ``[i*k, (i+1)*k)`` — so a sequence of
    batches is bit-identical to the batches a fresh generator would
    produce (``run(k); run(k)`` ≡ rows ``[0, 2k)`` of one run, which is
    the same prefix-stability the stream mode certifies).  A re-run of
    the same test starts a fresh window at row 0 and is served entirely
    from cache.  Only stream-mode entries support windows: replaying
    overlapping fresh runs would hand correlated rows to a sequential
    test.
    """

    __slots__ = ("_ledger", "_plan", "_rng_spec", "_engine", "_config", "_offset")

    def __init__(self, ledger: "SampleLedger", plan, rng_spec, engine, config) -> None:
        self._ledger = ledger
        self._plan = plan
        self._rng_spec = rng_spec
        self._engine = engine
        self._config = config
        self._offset = 0

    def draw(self, k: int) -> "np.ndarray | None":
        """Rows ``[offset, offset + k)``, or ``None`` to signal fallback."""
        rows = self._ledger.serve(
            self._plan, int(k), self._rng_spec, self._engine,
            self._config, start=self._offset, windowed=True,
        )
        if rows is not None:
            self._offset += int(k)
        return rows


class SampleLedger:
    """Memory-bounded cache of realized sample columns (process-global).

    Entries are pure functions of (plan shape, lineage, engine), so LRU
    eviction is always safe: a rebuilt entry reproduces bit-identical
    columns.  Keyed like the structural plan cache — isomorphic plans
    from different sessions share one entry.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, LedgerEntry]" = OrderedDict()
        #: Sticky certify-or-probe verdicts per (structural hash, engine):
        #: ``(mode, reason)``.  Deterministic in the plan shape, so they
        #: survive entry eviction.
        self._modes: dict[tuple, tuple[str, str]] = {}
        self.max_bytes = int(max_bytes)

    # -- public API ---------------------------------------------------------

    def serve(
        self,
        plan,
        n: int,
        rng_spec,
        engine: "str | ExecutionEngine | None",
        config,
        *,
        start: int | None = None,
        windowed: bool = False,
    ) -> "np.ndarray | None":
        """Serve ``n`` rows for ``plan``, or ``None`` to signal fallback.

        ``None`` means the caller must draw fresh (opaque plan, untracked
        engine/lineage, resample policy, replay-mode window, ...).  A
        returned array is always a private copy — callers may mutate it.

        ``start`` selects an explicit row range (window reads); ``None``
        picks the entry's default read semantics: prefix rows ``[0, n)``
        for reductions, or cursor rows for single-sample draws under a
        live-generator lineage (where the ledger-off behaviour is also a
        fresh value per call).
        """
        resolved = self._resolve(plan, rng_spec, engine, config)
        if resolved is None:
            _record(bypasses=1)
            return None
        eng, exec_plan, key, base_spec = resolved
        budget = config.sample_cache
        if budget is not True:
            self.max_bytes = int(budget)
        with self._lock:
            entry = self._entry_for(key, exec_plan, eng, base_spec)
            if entry.mode == "replay":
                if windowed or (start or 0) != 0:
                    # Sequential windows need one logical run; replay
                    # columns are independent fresh runs per N.
                    _record(bypasses=1)
                    return None
                if key[2][0] != "seed" and n == 1:
                    # A live-generator single draw expects a fresh value
                    # per call; replay mode cannot provide that.
                    _record(bypasses=1)
                    return None
                return self._serve_replay(entry, eng, n, config)
            if start is None:
                if key[2][0] != "seed" and n == 1:
                    start = entry.cursor
                    rows = self._serve_stream(entry, eng, start, n, config)
                    entry.cursor = start + n
                    return rows
                start = 0
            return self._serve_stream(entry, eng, int(start), n, config)

    def open_window(
        self, plan, rng_spec, engine, config
    ) -> "LedgerWindow | None":
        """A sequential batch reader for ``plan``, or ``None`` if untracked.

        Returns ``None`` unless the entry resolves to stream mode — the
        only mode where successive windows form one logical run.
        """
        resolved = self._resolve(plan, rng_spec, engine, config)
        if resolved is None:
            _record(bypasses=1)
            return None
        eng, exec_plan, key, base_spec = resolved
        with self._lock:
            entry = self._entry_for(key, exec_plan, eng, base_spec)
            if entry.mode != "stream":
                _record(bypasses=1)
                return None
        return LedgerWindow(self, plan, rng_spec, engine, config)

    def invalidate_entries(self, plan) -> int:
        """Drop every entry for ``plan``'s shape (and its optimized
        variants); returns how many were dropped.

        Invalidation is keyed by structural hash, so isomorphic plans
        sharing the entry are invalidated together — conservative, and
        exactly what the health-repair path needs.
        """
        hashes = set()
        for p in self._plan_variants(plan):
            h = getattr(p, "structural_hash", None)
            if h is not None:
                hashes.add(h)
        if not hashes:
            return 0
        with self._lock:
            doomed = [k for k in self._entries if k[0] in hashes]
            for k in doomed:
                self._drop(k)
        if doomed:
            _record(invalidations=len(doomed),
                    bytes_now=self.total_bytes(), entries_now=len(self._entries))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry and every sticky probe verdict."""
        with self._lock:
            self._entries.clear()
            self._modes.clear()
        _record(bytes_now=0, entries_now=0)

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def stats(self) -> dict:
        """Snapshot of the ledger's contents (diagnostics/tests)."""
        with self._lock:
            modes: dict[str, int] = {}
            for entry in self._entries.values():
                modes[entry.mode] = modes.get(entry.mode, 0) + 1
            return {
                "entries": len(self._entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "max_bytes": self.max_bytes,
                "modes": modes,
                "verdicts": {
                    f"{shash[:12]}@{engine}": mode
                    for (shash, engine), (mode, _r) in self._modes.items()
                },
            }

    # -- resolution ---------------------------------------------------------

    def _resolve(self, plan, rng_spec, engine, config):
        """Common eligibility gate: ``(engine, exec_plan, key, base_spec)``
        or ``None``."""
        if not config.sample_cache:
            return None
        if config.on_nonfinite == "resample":
            # Row repair redraws from the serving stream mid-run; cached
            # columns must never absorb (or skip) repair draws.
            return None
        try:
            eng = get_engine(engine if engine is not None else config.engine)
        except Exception:
            return None
        if eng.name not in _LEDGER_ENGINES:
            return None
        exec_plan = plan
        if eng.supports_optimized:
            level = resolve_level(config.optimize)
            if level:
                exec_plan = plan.optimized(level)
        shash = exec_plan.structural_hash
        if shash is None:
            return None
        lin = _lineage(rng_spec, config)
        if lin is None:
            return None
        token, base_spec = lin
        return eng, exec_plan, (shash, eng.name, token), base_spec

    def _plan_variants(self, plan):
        yield plan
        optimized = getattr(plan, "_optimized", None)
        if optimized:
            yield from optimized.values()

    # -- entries ------------------------------------------------------------

    def _entry_for(self, key, exec_plan, eng, base_spec) -> LedgerEntry:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        mode_key = (key[0], eng.name)
        verdict = self._modes.get(mode_key)
        if verdict is None:
            verdict = self._certify_or_probe(exec_plan, eng)
            self._modes[mode_key] = verdict
        mode, reason = verdict
        _trace.event("ledger.entry", mode=mode, reason=reason,
                     engine=eng.name, structural_hash=key[0])
        entry = LedgerEntry(key, exec_plan, eng.name, mode, base_spec)
        self._entries[key] = entry
        return entry

    def _drop(self, key) -> None:
        self._entries.pop(key, None)

    def _certify_or_probe(self, exec_plan, eng) -> tuple[str, str]:
        """Is suffix extension provably bit-identical for this plan shape
        on this engine?  ``("stream", why)`` or ``("replay", why)``."""
        from repro.analysis.certify import plan_draw_sequence

        events = plan_draw_sequence(exec_plan)
        total = sum(e.count for e in events)
        if total == 0:
            _record(certified=1)
            return "stream", "no stochastic draws"
        if (len(events) == 1 and events[0].count == 1
                and events[0].family != "delegated"):
            _record(certified=1)
            return "stream", f"single trusted bulk draw ({events[0].family})"
        _record(probes=1)
        if self._probe(exec_plan, eng):
            return "stream", "probe verified split-draw identity"
        _record(rejections=1)
        return "replay", (
            f"{total} interleaved draw(s): split runs diverge from full runs"
        )

    def _probe(self, exec_plan, eng) -> bool:
        """Dynamic gate: compare a split run against a full run, slot by
        slot.  The root alone is not enough — a boolean root can be
        constant over the probe batch and pass vacuously while the
        underlying streams have already diverged."""
        shash = exec_plan.structural_hash or ""
        try:
            probe_seed = int(shash.split("#")[0][:16] or "0", 16)
        except ValueError:
            probe_seed = 0
        seed_seq = np.random.SeedSequence(
            entropy=[probe_seed], spawn_key=(_LEDGER_SPAWN_TAG,)
        )
        try:
            full = eng.run(exec_plan, _PROBE_FULL,
                           np.random.default_rng(seed_seq))
            split_rng = np.random.default_rng(seed_seq)
            head = eng.run(exec_plan, _PROBE_SPLIT, split_rng)
            tail = eng.run(exec_plan, _PROBE_FULL - _PROBE_SPLIT, split_rng)
        except (EvaluationCancelled, InjectedFault):
            # A failure of this run, not of the plan shape: the caller's
            # query fails and no sticky verdict is written.
            raise
        except Exception:
            return False
        for slot in range(len(exec_plan.steps)):
            fv, hv, tv = full[slot], head[slot], tail[slot]
            if fv is None or hv is None or tv is None:
                continue
            fv = np.asarray(fv)
            if fv.dtype == object:
                return False
            part = np.concatenate(
                [np.atleast_1d(np.asarray(hv)), np.atleast_1d(np.asarray(tv))]
            )
            fv = np.atleast_1d(fv)
            if part.shape != fv.shape or part.dtype != fv.dtype:
                return False
            equal_nan = fv.dtype.kind in "fc"
            if not np.array_equal(part, fv, equal_nan=equal_nan):
                return False
        return True

    # -- serving ------------------------------------------------------------

    def _fill(self, entry: LedgerEntry, eng, k: int, gen, config) -> np.ndarray:
        """One instrumented engine run for the entry's stream.

        Uses the engine's ``sample`` entry point so metrics, tracing and
        the (non-mutating) health policies apply exactly as on a fresh
        draw.  Any failure drops the entry: a stream-mode generator may
        already have advanced, and a half-consumed stream must never
        serve another query.
        """
        try:
            return eng.sample(entry.plan, k, gen, config=config)
        except BaseException:
            self._drop(entry.key)
            raise

    def _serve_stream(self, entry: LedgerEntry, eng, start: int, n: int,
                      config) -> np.ndarray:
        needed = start + n
        have = entry.count
        if needed > have:
            d = needed - have
            config.accounting.admit(d)
            rows = self._fill(entry, eng, d, entry.gen, config)
            rows = np.asarray(rows)
            if entry.column is None:
                entry.column = rows
            else:
                entry.column = np.concatenate([entry.column, rows])
            entry.count = needed
            entry.nbytes = entry.column.nbytes
            _record(
                suffix_extensions=1, rows_drawn=d,
                rows_reused=max(0, have - start),
                misses=int(have == 0), hits=int(have > 0 and have > start),
            )
            self._evict(keep=entry.key)
            _record(bytes_now=self.total_bytes(),
                    entries_now=len(self._entries))
        else:
            config.accounting.admit(0)  # the deadline still applies to cached serves
            _record(hits=1, rows_reused=n)
        return entry.column[start:needed].copy()

    def _serve_replay(self, entry: LedgerEntry, eng, n: int,
                      config) -> np.ndarray:
        column = entry.runs.get(n)
        if column is None:
            config.accounting.admit(n)
            gen = _base_generator(entry.base_spec)
            column = np.asarray(self._fill(entry, eng, n, gen, config))
            entry.runs[n] = column
            entry.nbytes += column.nbytes
            _record(misses=1, rows_drawn=n)
            self._evict(keep=entry.key)
            _record(bytes_now=self.total_bytes(),
                    entries_now=len(self._entries))
        else:
            config.accounting.admit(0)
            _record(hits=1, rows_reused=n)
        return column.copy()

    def _evict(self, keep) -> None:
        """LRU-evict whole entries until under the byte budget.

        The entry just served is never evicted (evicting it would thrash);
        a single column larger than the whole budget therefore survives
        until another entry displaces it.
        """
        if self.max_bytes <= 0:
            return
        total = self.total_bytes()
        if total <= self.max_bytes:
            return
        for key in list(self._entries):
            if key == keep:
                continue
            entry = self._entries.pop(key)
            total -= entry.nbytes
            _record(evictions=1)
            if total <= self.max_bytes:
                break


#: The process-global ledger every consumer serves from.
LEDGER = SampleLedger()


def clear_ledger() -> None:
    """Drop every cached sample column and probe verdict."""
    LEDGER.clear()


def ledger_stats() -> dict:
    """Contents snapshot of the process-global ledger."""
    return LEDGER.stats()
