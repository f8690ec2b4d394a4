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
modes uphold that contract, chosen from the executed plan alone when an
entry is created; nothing is run to choose:

- **stream** — the plan's RNG consumption is *prefix-stable*: running
  ``n`` rows and then ``N − n`` more on the same generator equals one
  ``N``-row run.  That is proven when the plan draws nothing, or draws
  from exactly one leaf whose exact class is prefix-stable
  (:func:`repro.analysis.certify.prefix_stable`: one generator call per
  batch, row ``i`` independent of the batch size).  The entry keeps one
  growing column plus the live generator positioned after it; any query
  is a slice, extension draws only the suffix.
- **replay** — every other plan.  Multi-draw plans interleave per-leaf
  streams differently at different batch sizes, so suffix extension is
  impossible on *any* engine that honours the reference stream, and a
  single leaf outside the prefix-stable table is not proven to extend.
  The entry instead memoizes one full fresh-from-lineage-start run per
  distinct ``N`` — each cached column literally *is* a fresh ``N``-row
  run, so the contract holds trivially and repeated exact-``N`` queries
  (the analyst-session shape) are free.

Seed lineage
------------

- A *pristine* generator, such as the one ``ensure_rng`` builds from an
  explicit integer seed, gives the strongest contract: the entry's stream
  starts exactly where the caller's would, so every served query is
  bit-identical to what the same call would return with the ledger off.
  An integer seed goes through ``ensure_rng``, so it and the generator
  it names share one entry.
- An already-advanced :class:`~numpy.random.Generator` (typically the
  ambient ``config.rng``) is identified by its
  :class:`~numpy.random.SeedSequence` origin (entropy + spawn key); the
  entry's stream is *forked* from that origin under a ledger-private
  spawn tag, without consuming or observing the caller's stream.  Served
  rows are reproducible and i.i.d. but are drawn from the derived
  stream, not from the advancing ambient one — the documented trade for
  cross-query reuse (``docs/performance.md``).
- A single-sample draw bypasses the ledger and draws from the caller's
  seed or generator, so a loop of ``sample()`` calls gets what it gets
  with the ledger off: a fresh value per call from a reused or ambient
  generator, the same value from a fresh seeded one.

Eviction
--------

The byte budget (``sample_cache=<bytes>``, :data:`DEFAULT_MAX_BYTES` for
``True``) charges each entry its columns plus
:data:`ENTRY_OVERHEAD_BYTES`.  A new entry stays *unproven* until the
first serve that reads rows it had cached (a replay column found for
``N``, a stream prefix, a window re-reading its rows).  At most one
entry is unproven: the one just served.  When another entry is served,
the unproven one is dropped and its key, without its rows, joins a
bounded FIFO of remembered keys (:data:`REMEMBERED_KEYS`); an entry
created for a remembered key is proven at once.  So a flood of one-shot
queries holds one entry's rows, not a share of the budget, and a
session asked again keeps its rows from its second ask on.  Then all
entries leave least recently used first down to the budget.  Both rules
run after every serve, hit or miss.  A query repeated right after its
first run still hits: its entry is the one just served.  A smaller
budget applies at once.  Eviction never changes a served value: a
rebuilt entry reproduces its columns bit for bit.

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
from repro.core.graph import LeafNode
from repro.core.optimizer import is_stochastic
from repro.core.plan import OP_SOURCE
from repro.rng import ensure_rng
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

__all__ = [
    "LedgerEntry",
    "LedgerWindow",
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

    Two lineage kinds, strongest first:

    - ``("origin", ...)`` — a *pristine* generator (state still equal to
      its seed-sequence construction state, which is what
      ``ensure_rng(int)`` hands every consumer): the entry's stream
      starts exactly where the caller's would, so served rows are
      bit-identical to ledger-off.  The facade re-creates such a
      generator per call, so pristineness is the common case for every
      explicitly seeded query.  A raw integer seed goes through
      ``ensure_rng`` first, so it shares the entry of the generator it
      names.
    - ``("stream", ...)`` — an already-advanced generator (typically the
      ambient ``config.rng``): no fixed replayable start exists, so the
      entry forks a ledger-private stream from the generator's
      seed-sequence origin.  Reproducible and i.i.d., but a *different*
      stream than ledger-off would consume — the documented trade.
    """
    if rng_spec is None:
        rng_spec = config.rng
    if isinstance(rng_spec, (int, np.integer)) and not isinstance(rng_spec, bool):
        rng_spec = ensure_rng(int(rng_spec))
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
    if base_spec[0] == "origin":
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


def _mode(exec_plan) -> tuple[str, str]:
    """``("stream", why)`` when suffix extension is provably bit-identical
    for ``exec_plan`` on every ledger engine, else ``("replay", why)``."""
    from repro.analysis.certify import prefix_stable

    draws = (step.node for step in exec_plan.steps
             if step.opcode == OP_SOURCE and is_stochastic(step.node))
    leaf = next(draws, None)
    if leaf is None:
        return "stream", "no stochastic draws"
    if next(draws, None) is not None:
        return "replay", "several draws interleave"
    if isinstance(leaf, LeafNode) and prefix_stable(leaf.dist):
        return "stream", f"single prefix-stable draw ({type(leaf.dist).__name__})"
    return "replay", "single draw not proven prefix-stable"


def _record(**counters) -> None:
    sink = _metrics.active()
    if sink is not None:
        sink.record_ledger(**counters)


class LedgerEntry:
    """One cached sample stream: plan shape × lineage × engine.

    Holds no plan: each serve fills it through the plan it serves.
    ``nbytes`` is what the byte budget charges it: its columns plus
    :data:`ENTRY_OVERHEAD_BYTES`.  ``proven`` is set by its first hit,
    or when it is created for a remembered key.
    """

    __slots__ = (
        "key", "engine_name", "mode", "base_spec",
        "column", "count", "gen", "runs", "nbytes", "proven",
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
        # replay mode: one full fresh-from-base column per distinct N.
        self.runs: dict[int, np.ndarray] = {}
        self.nbytes = ENTRY_OVERHEAD_BYTES
        self.proven = False


class LedgerWindow:
    """Sequential window reads over one entry's stream (SPRT batches).

    Each ``draw(k)`` returns the next ``k`` rows of the entry's logical
    run — batch ``i`` reads rows ``[i*k, (i+1)*k)`` — so a sequence of
    batches is bit-identical to the batches a fresh generator would
    produce (``run(k); run(k)`` ≡ rows ``[0, 2k)`` of one run, which is
    the same prefix-stability the stream mode certifies).  A re-run of
    the same test starts a fresh window at row 0 and is served from cache
    if it comes right after, or once an earlier re-run proved the entry
    (see Eviction above).  Only stream-mode plans open windows (the mode
    is a function of the plan, so the entry a window re-creates is stream
    mode too): replaying overlapping fresh runs would hand correlated rows to a
    sequential test.

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

    def draw(self, k: int) -> np.ndarray:
        """Rows ``[offset, offset + k)`` of the entry's stream."""
        k = int(k)
        ledger = self._ledger
        with ledger._lock:
            entry = ledger._entry_for(
                self._key, self._plan, self._engine, self._base_spec
            )
            rows = ledger._serve_stream(
                entry, self._plan, self._engine, self._offset, k,
                self._config,
            )
        self._offset += k
        return rows


class SampleLedger:
    """Memory-bounded cache of realized sample columns (process-global).

    Entries are pure functions of (plan shape, lineage, engine), so
    eviction is always safe: a rebuilt entry reproduces bit-identical
    columns.  Keyed like the structural plan cache — isomorphic plans
    from different sessions share one entry.

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

        Reductions read prefix rows ``[0, n)``.  A single-sample draw
        bypasses the ledger: it draws from the caller's seed or generator,
        exactly as with the ledger off, whether that generator is fresh,
        reused or ambient.  Sequential batches read through
        :meth:`open_window` instead.
        """
        resolved = None if n == 1 else self._resolve(plan, rng_spec, engine, config)
        if resolved is None:
            _record(bypasses=1)
            return None
        eng, exec_plan, key, base_spec = resolved
        with self._lock:
            self._apply_budget(config)
            entry = self._entry_for(key, exec_plan, eng, base_spec)
            if entry.mode == "replay":
                return self._serve_replay(entry, exec_plan, eng, n, config)
            return self._serve_stream(entry, exec_plan, eng, 0, n, config)

    def open_window(
        self, plan, rng_spec, engine, config
    ) -> "LedgerWindow | None":
        """A sequential batch reader for ``plan``, or ``None`` if untracked.

        Returns ``None`` unless the plan resolves to stream mode — the
        only mode where successive windows form one logical run.  Opening
        a window creates no entry; its first draw does.
        """
        resolved = self._resolve(plan, rng_spec, engine, config)
        if resolved is None:
            _record(bypasses=1)
            return None
        eng, exec_plan, key, base_spec = resolved
        with self._lock:
            self._apply_budget(config)
        if _mode(exec_plan)[0] != "stream":
            _record(bypasses=1)
            return None
        return LedgerWindow(self, exec_plan, eng, key, base_spec, config)

    def invalidate_entries(self, plan) -> int:
        """Drop every entry for ``plan``'s shape (and its optimized
        plan's); returns how many were dropped.

        Invalidation is keyed by structural hash, so isomorphic plans
        sharing the entry are invalidated together: what
        :func:`~repro.core.plan.invalidate_plan` needs once a graph's
        nodes may have changed.
        """
        hashes = {
            getattr(p, "structural_hash", None)
            for p in (plan, getattr(plan, "_optimized", None))
        }
        hashes.discard(None)
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
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._remembered.clear()
            self._unproven = None
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
        """Set the byte budget of ``config`` (under the lock); a smaller
        budget is enforced at once, not at the next miss."""
        # ``True`` is the default budget, not whichever budget came last.
        budget = config.sample_cache
        max_bytes = DEFAULT_MAX_BYTES if budget is True else int(budget)
        shrunk = max_bytes < self.max_bytes
        self.max_bytes = max_bytes
        if shrunk:
            self._evict(keep=None)

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
        if eng.supports_optimized and config.optimize:
            exec_plan = plan.optimized()
        shash = exec_plan.structural_hash
        if shash is None:
            return None
        lin = _lineage(rng_spec, config)
        if lin is None:
            return None
        token, base_spec = lin
        return eng, exec_plan, (shash, eng.name, token), base_spec

    # -- entries ------------------------------------------------------------

    def _entry_for(self, key, exec_plan, eng, base_spec) -> LedgerEntry:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        mode, reason = _mode(exec_plan)
        _record(**{f"{mode}_entries": 1})
        _trace.event("ledger.entry", mode=mode, reason=reason,
                     engine=eng.name, structural_hash=key[0])
        entry = LedgerEntry(key, eng.name, mode, base_spec)
        if key in self._remembered:
            del self._remembered[key]  # asked again: proven at once
            entry.proven = True
        self._entries[key] = entry
        self._bytes += entry.nbytes
        return entry

    def _grow(self, entry: LedgerEntry, nbytes: int) -> None:
        entry.nbytes += nbytes
        self._bytes += nbytes

    def _hit(self, entry: LedgerEntry) -> None:
        """Prove ``entry``: a serve read rows it had cached."""
        entry.proven = True

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes
            if key == self._unproven:
                self._unproven = None

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
            entry.count = needed
            self._grow(entry, entry.column.nbytes - held)
            if have > start:
                self._hit(entry)
            _record(
                suffix_extensions=1, rows_drawn=d,
                rows_reused=max(0, have - start),
                misses=int(have == 0), hits=int(have > 0 and have > start),
            )
        else:
            config.accounting.admit(0)  # the deadline still applies to cached serves
            self._hit(entry)
            _record(hits=1, rows_reused=n)
        self._evict(keep=entry.key)
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
            self._grow(entry, column.nbytes)
            _record(misses=1, rows_drawn=n)
        else:
            config.accounting.admit(0)
            self._hit(entry)
            _record(hits=1, rows_reused=n)
        self._evict(keep=entry.key)
        return column.copy()

    def _evict(self, keep) -> None:
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
            _record(evictions=1)
        if self.max_bytes <= 0:
            return
        while self._bytes > self.max_bytes:
            key = next(iter(self._entries))
            if key == keep:
                break
            self._drop(key)
            _record(evictions=1)


#: The process-global ledger every consumer serves from.
LEDGER = SampleLedger()


_metrics.register_gauges("ledger", LEDGER.state)


def clear_ledger() -> None:
    """Drop every cached sample column."""
    LEDGER.clear()
