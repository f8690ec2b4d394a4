"""Cross-query sample ledger: incremental sample reuse across queries.

The compiler stack made *compilation* pay-once; this module does the same
for *sampling*.  A typical analyst flow interrogates one uncertain value
repeatedly — ``pr(...)`` via the SPRT, then ``expected_value()``, then
``confidence_interval()`` — and before the ledger every query redrew its
samples from scratch.  The :class:`SampleLedger` caches realized sample
columns per (plan structural hash × seed lineage × engine) and serves a
query needing ``N`` rows by reusing the cached prefix of length ``n`` and
drawing only the ``N − n`` suffix.

Entries are keyed and filled per *shape*, not per graph: any plan of an
entry's shape draws the same rows (the contract that lets isomorphic
sessions share one entry), so each serve fills the entry through the
plan of the query it serves.  An entry holds its columns, its lineage
recipe and, in stream mode, a live generator — never a plan or a node —
so dropping a query's graph frees it while its rows stay cached.

Bit-identity contract
---------------------

Every row range the ledger serves is bit-identical to the same range of a
single fresh engine run from the entry's lineage stream start.  Two entry
modes uphold that contract, chosen by a certify-or-probe gate at entry
creation (the static certifier's pattern), sticky per plan shape × engine
on the shape's :class:`~repro.core.structural.ShapeEntry`:

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
]

#: Byte budget used when ``sample_cache=True`` (no explicit budget).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Bytes charged per entry for what it holds besides its columns: the
#: entry, its key and base spec, a stream-mode generator and the column
#: array headers.  Measured with CPython 3.11 and NumPy 2 on a 2-CPU x86
#: host, over sessions of an SPRT test plus ``E(1000)`` on fresh graphs
#: (two entries each): 1 554 B per entry traced by ``tracemalloc``,
#: 1 433 B of RSS growth.
ENTRY_OVERHEAD_BYTES = 1536

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
    """One cached sample stream: plan shape × lineage × engine.

    Holds no plan: each serve fills it through the plan it serves.
    ``nbytes`` is what the byte budget charges it: its columns plus
    :data:`ENTRY_OVERHEAD_BYTES`.
    """

    __slots__ = (
        "key", "engine_name", "mode", "base_spec",
        "column", "count", "gen", "cursor", "runs", "nbytes",
    )

    def __init__(self, key, engine_name: str, mode: str,
                 base_spec: tuple) -> None:
        self.key = key
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
        self.nbytes = ENTRY_OVERHEAD_BYTES


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

    The engine, executed plan, key and base spec are resolved once, when
    the window opens, so a batch goes straight to its entry.  An entry
    evicted mid-test is re-created from the same key and base spec.
    """

    __slots__ = ("_ledger", "_plan", "_engine", "_key", "_base_spec",
                 "_config", "_offset")

    def __init__(self, ledger: "SampleLedger", exec_plan, eng, key,
                 base_spec, config) -> None:
        self._ledger = ledger
        self._plan = exec_plan
        self._engine = eng
        self._key = key
        self._base_spec = base_spec
        self._config = config
        self._offset = 0

    def draw(self, k: int) -> "np.ndarray | None":
        """Rows ``[offset, offset + k)``, or ``None`` to signal fallback."""
        k = int(k)
        ledger = self._ledger
        with ledger._lock:
            entry = ledger._entry_for(
                self._key, self._plan, self._engine, self._base_spec
            )
            if entry.mode != "stream":
                _record(bypasses=1)
                return None
            rows = ledger._serve_stream(
                entry, self._plan, self._engine, self._offset, k,
                self._config,
            )
        self._offset += k
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
        self.max_bytes = int(max_bytes)
        # Running sum of the entries' ``nbytes``, kept wherever an entry
        # grows or leaves, so a fill never sums over every entry.
        self._bytes = 0

    # -- public API ---------------------------------------------------------

    def serve(
        self,
        plan,
        n: int,
        rng_spec,
        engine: "str | ExecutionEngine | None",
        config,
    ) -> "np.ndarray | None":
        """Serve ``n`` rows for ``plan``, or ``None`` to signal fallback.

        ``None`` means the caller must draw fresh (opaque plan, untracked
        engine/lineage, resample policy, ...).  A returned array is
        always a private copy — callers may mutate it.

        Reductions read prefix rows ``[0, n)``; single-sample draws under
        a live-generator lineage read cursor rows (the ledger-off
        behaviour is also a fresh value per call).  Sequential batches
        read through :meth:`open_window` instead.
        """
        resolved = self._resolve(plan, rng_spec, engine, config)
        if resolved is None:
            _record(bypasses=1)
            return None
        eng, exec_plan, key, base_spec = resolved
        self._apply_budget(config)
        fresh_per_call = key[2][0] != "seed" and n == 1
        with self._lock:
            entry = self._entry_for(key, exec_plan, eng, base_spec)
            if entry.mode == "replay":
                if fresh_per_call:
                    # A live-generator single draw expects a fresh value
                    # per call; replay mode cannot provide that.
                    _record(bypasses=1)
                    return None
                return self._serve_replay(entry, exec_plan, eng, n, config)
            if fresh_per_call:
                start = entry.cursor
                rows = self._serve_stream(
                    entry, exec_plan, eng, start, n, config
                )
                entry.cursor = start + n
                return rows
            return self._serve_stream(entry, exec_plan, eng, 0, n, config)

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
        self._apply_budget(config)
        with self._lock:
            entry = self._entry_for(key, exec_plan, eng, base_spec)
            if entry.mode != "stream":
                _record(bypasses=1)
                return None
        return LedgerWindow(self, exec_plan, eng, key, base_spec, config)

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
            _record(invalidations=len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (verdicts stay on the shape entries)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def state(self) -> dict:
        """What the ledger holds now: entries, bytes, budget, entry modes."""
        with self._lock:
            modes: dict[str, int] = {}
            for entry in self._entries.values():
                modes[entry.mode] = modes.get(entry.mode, 0) + 1
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "modes": modes,
            }

    # -- resolution ---------------------------------------------------------

    def _apply_budget(self, config) -> None:
        # ``True`` is the default budget, not whichever budget came last.
        budget = config.sample_cache
        self.max_bytes = DEFAULT_MAX_BYTES if budget is True else int(budget)

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
        shape = exec_plan.shape  # never None: the key holds its hash
        if shape.ledger is None:
            shape.ledger = {}
        verdict = shape.ledger.get(eng.name)
        if verdict is None:
            verdict = self._certify_or_probe(exec_plan, eng)
            shape.ledger[eng.name] = verdict
        mode, reason = verdict
        _trace.event("ledger.entry", mode=mode, reason=reason,
                     engine=eng.name, structural_hash=key[0])
        entry = LedgerEntry(key, eng.name, mode, base_spec)
        self._entries[key] = entry
        self._bytes += entry.nbytes
        return entry

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

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

    def _fill(self, entry: LedgerEntry, exec_plan, eng, k: int, gen,
              config) -> np.ndarray:
        """One instrumented engine run of ``exec_plan`` for the entry's
        stream (any plan of the entry's shape draws the same rows).

        Uses the engine's ``sample`` entry point so metrics, tracing and
        the (non-mutating) health policies apply exactly as on a fresh
        draw.  Any failure drops the entry: a stream-mode generator may
        already have advanced, and a half-consumed stream must never
        serve another query.
        """
        try:
            return eng.sample(exec_plan, k, gen, config=config)
        except BaseException:
            self._drop(entry.key)
            raise

    def _serve_stream(self, entry: LedgerEntry, exec_plan, eng, start: int,
                      n: int, config) -> np.ndarray:
        needed = start + n
        have = entry.count
        if needed > have:
            d = needed - have
            config.accounting.admit(d)
            rows = self._fill(entry, exec_plan, eng, d, entry.gen, config)
            rows = np.asarray(rows)
            if entry.column is None:
                held, entry.column = 0, rows
            else:
                held = entry.column.nbytes
                entry.column = np.concatenate([entry.column, rows])
            grown = entry.column.nbytes - held
            entry.count = needed
            entry.nbytes += grown
            self._bytes += grown
            _record(
                suffix_extensions=1, rows_drawn=d,
                rows_reused=max(0, have - start),
                misses=int(have == 0), hits=int(have > 0 and have > start),
            )
            self._evict(keep=entry.key)
        else:
            config.accounting.admit(0)  # the deadline still applies to cached serves
            _record(hits=1, rows_reused=n)
        return entry.column[start:needed].copy()

    def _serve_replay(self, entry: LedgerEntry, exec_plan, eng, n: int,
                      config) -> np.ndarray:
        column = entry.runs.get(n)
        if column is None:
            config.accounting.admit(n)
            gen = _base_generator(entry.base_spec)
            column = np.asarray(
                self._fill(entry, exec_plan, eng, n, gen, config)
            )
            entry.runs[n] = column
            entry.nbytes += column.nbytes
            self._bytes += column.nbytes
            _record(misses=1, rows_drawn=n)
            self._evict(keep=entry.key)
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
        if self.max_bytes <= 0 or self._bytes <= self.max_bytes:
            return
        for key in list(self._entries):
            if key == keep:
                continue
            self._drop(key)
            _record(evictions=1)
            if self._bytes <= self.max_bytes:
                break


#: The process-global ledger every consumer serves from.
LEDGER = SampleLedger()


_metrics.register_gauges("ledger", LEDGER.state)


def clear_ledger() -> None:
    """Drop every cached sample column (verdicts stay on the shapes)."""
    LEDGER.clear()
