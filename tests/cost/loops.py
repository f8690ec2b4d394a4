"""Warm canonical loops of the end-to-end paths, and what each query costs.

Wall time on a shared host does not resolve a few percent; what a query
does resolves exactly.  Each loop below runs one end-to-end path warm, on
freshly cleared caches, and :func:`measure` counts per query:

- ``calls``: Python calls into ``src/repro`` frames, counted with
  ``sys.setprofile``.  Code names that start with ``<`` (``<listcomp>``,
  ``<genexpr>``, ``<lambda>``, ...) are skipped: CPython 3.12 inlines
  comprehensions (PEP 709), so counting them would tie the count to the
  interpreter version;
- ``engine_calls`` and ``rows``: engine runs and the rows they drew;
- ``compiles`` and ``kernel_builds``: plan compiles and fused kernels built;
- ``peak_rows``: the largest traced allocation peak of one query, in n-row
  float64 arrays (n the rows one query draws), as
  ``tests/core/test_release.py`` measures one draw.  Only loops whose
  queries draw a fixed n report it: a life update draws 10 rows at a time,
  so its peak is graph objects, not rows.  The test allows it
  ``PEAK_SLACK`` above its committed value.

The life loops also report ``draw_calls``: per engine run, the calls made
by the draw callable a hypothesis test receives (its own frame included),
outside the engine's ``run``.  That is the plumbing between the
sequential test and the engine.  And ``sample_n``: the leaves' own
``sample_n`` calls per query.  A kernel draws each run of
Gaussian, Uniform or Exponential leaves with one generator call, so only
the NumPy engine's runs (a shape's cold runs) and leaves a kernel
delegates make them.

The collector is disabled while a loop runs, so no weak-reference
callback fires at a point that depends on the heap.

``PYTHONPATH=src python -m tests.cost.loops`` prints every loop's counts;
``--write`` stores them, rounded up to two decimals, in ``COUNTS.json``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import repro
from benchmarks.e2e import inputs
from repro import Uncertain, UncertainBool
from repro.core.conditionals import evaluation_config, get_config
from repro.core.engines import InterpreterEngine, NumpyEngine
from repro.core.fused import FusedEngine
from repro.core.sprt import SPRT
from repro.evaluate import clear_caches
from repro.life import BayesLife, SensorLife
from repro.life.engine import neighbor_states
from repro.runtime import reset_stats, stats
from repro.service import QueryRequest, evaluate_batch

COUNTS_PATH = Path(__file__).with_name("COUNTS.json")

_SRC = os.path.dirname(repro.__file__) + os.sep
_ENGINE_RUNS = frozenset(
    cls.run.__code__ for cls in (NumpyEngine, InterpreterEngine, FusedEngine)
)
_TEST_LOOP = SPRT._run.__code__
_TEST_OWN = SPRT.llr.__code__

# Where a frame sits: outside any test, the test loop itself, the draw
# callable the test called (and everything it calls), an engine run.
_OUT, _TEST, _DRAW, _ENGINE = range(4)


class CallCounter:
    """A ``sys.setprofile`` hook counting calls into ``src/repro``."""

    def __init__(self) -> None:
        self.calls = 0
        self.draw_calls = 0
        self.sample_n = 0
        self._where: dict = {}

    def __call__(self, frame, event, arg) -> None:
        if event == "return":
            self._where.pop(frame, None)
            return
        if event != "call":
            return
        code = frame.f_code
        mine = code.co_filename.startswith(_SRC)
        parent = self._where.get(frame.f_back, _OUT)
        if parent == _ENGINE or code in _ENGINE_RUNS:
            where = _ENGINE
        elif parent == _TEST:
            where = _DRAW if mine and code is not _TEST_OWN else _OUT
        elif parent == _DRAW:
            where = _DRAW
        else:
            where = _TEST if code is _TEST_LOOP else _OUT
        self._where[frame] = where
        if mine and not code.co_name.startswith("<"):
            self.calls += 1
            if where == _DRAW:
                self.draw_calls += 1
            if code.co_name == "sample_n":
                self.sample_n += 1


class LifeLoop:
    """200 cell updates of the life_sprt board's generation 1, on the
    default engine and configuration, as the benchmark runs them."""

    queries = 200
    rows = None
    variant = SensorLife

    def config(self):
        return evaluation_config(rng=np.random.default_rng([5, 1, 0]),
                                 max_samples=1000)

    def warm(self) -> None:
        self.board = inputs.life_boards(2)[1][0]
        self.decider = self.variant(0.3)
        with evaluation_config(rng=np.random.default_rng([5, 0, 0])) as config:
            self.update(0, config.rng)

    def update(self, cell: int, rng) -> None:
        r, c = divmod(cell, self.board.shape[1])
        self.decider.decide(bool(self.board[r, c]),
                            neighbor_states(self.board, r, c), rng)

    def steps(self):
        rng = get_config().rng
        return [lambda cell=cell: self.update(cell, rng)
                for cell in range(self.queries)]


class BayesLifeLoop(LifeLoop):
    variant = BayesLife


class Fig08Expectation:
    """50 ``expected_value(2000)`` of one warm Fig 8 speed graph on the
    fused engine, seeds cycling over 10 (with the ledger: misses, then
    re-created entries, then hits)."""

    queries = 50
    rows = 2000
    sample_cache = False

    def config(self):
        return evaluation_config(engine="fused", sample_cache=self.sample_cache)

    def warm(self) -> None:
        self.speed = Uncertain.from_node(inputs.fig08_root().parents[0])
        for seed in range(3):  # the third run builds the kernel
            self.speed.expected_value(self.rows, rng=10**6 + seed)

    def steps(self):
        return [lambda i=i: self.speed.expected_value(self.rows, rng=i % 10)
                for i in range(self.queries)]


class Fig08ExpectationLedger(Fig08Expectation):
    sample_cache = True


class Fig08SprtLedger:
    """50 Fig 8 walking tests ``test(0.5, rng=seed)`` of one warm graph on
    the fused engine with the ledger on, seeds cycling over 10 as in
    :class:`Fig08ExpectationLedger`.  A test draws as many rows as it
    takes to decide, so no peak is reported."""

    queries = 50
    rows = None

    def config(self):
        return evaluation_config(engine="fused", sample_cache=True)

    def warm(self) -> None:
        self.walking = UncertainBool.from_node(inputs.fig08_root())
        for seed in range(3):  # the third run builds the kernel
            self.walking.test(0.5, rng=10**6 + seed)

    def steps(self):
        return [lambda i=i: self.walking.test(0.5, rng=i % 10)
                for i in range(self.queries)]


class ShapeZooLoop:
    """500 seeded shape_zoo queries: a fresh graph of a Zipf-chosen recipe
    and ``expected_value(2000)`` on the fused engine."""

    queries = 500
    rows = 2000

    def config(self):
        return evaluation_config(engine="fused", sample_cache=False)

    def warm(self) -> None:
        self.recipes, self.order, self.seeds = inputs.shape_zoo_inputs(
            5, 2000, self.queries
        )
        warm = inputs.make_recipe(np.random.default_rng([5, 99]), 3, 4)
        for seed in range(3):  # the third run builds a kernel
            inputs.build_recipe(warm).expected_value(self.rows, rng=seed)

    def query(self, i: int) -> None:
        value = inputs.build_recipe(self.recipes[int(self.order[i])])
        value.expected_value(self.rows, rng=int(self.seeds[i]))

    def steps(self):
        return [lambda i=i: self.query(i) for i in range(self.queries)]


class PooledBatch:
    """One coalesced batch of 64 seedless speeding requests (a fresh walker
    graph each, ``pr`` over 500 samples) through ``evaluate_batch`` on the
    fused engine: one pooled run."""

    queries = 64
    samples = 500
    rows = queries * samples

    def config(self):
        return evaluation_config(engine="fused", sample_cache=False)

    def batch(self) -> None:
        requests = [QueryRequest(value=inputs.walker_query(), kind="pr",
                                 samples=self.samples)
                    for _ in range(self.queries)]
        for outcome in evaluate_batch(requests, pool_rng=self.pool_rng):
            if isinstance(outcome, BaseException):
                raise outcome

    def warm(self) -> None:
        self.pool_rng = np.random.default_rng(5)
        for _ in range(3):  # the third pooled run builds the kernel
            self.batch()

    def steps(self):
        return [self.batch]


LOOPS = {
    "sensor_life": LifeLoop,
    "bayes_life": BayesLifeLoop,
    "fig08_E": Fig08Expectation,
    "fig08_E_ledger": Fig08ExpectationLedger,
    "fig08_sprt_ledger": Fig08SprtLedger,
    "shape_zoo": ShapeZooLoop,
    "pooled_batch": PooledBatch,
}


def measure(loop) -> dict[str, float]:
    """Run ``loop`` warm on cleared caches; its counts per query."""
    clear_caches()
    counter = CallCounter()
    peak = 0
    try:
        with loop.config():
            loop.warm()
            steps = loop.steps()
            reset_stats()
            gc.collect()
            gc.disable()
            if loop.rows is not None:
                tracemalloc.start()
            sys.setprofile(counter)
            try:
                for step in steps:
                    if loop.rows is not None:
                        tracemalloc.reset_peak()
                        base = tracemalloc.get_traced_memory()[0]
                    step()
                    if loop.rows is not None:
                        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            finally:
                sys.setprofile(None)
                if loop.rows is not None:
                    tracemalloc.stop()
                gc.enable()
        snap = stats()
    finally:
        clear_caches()
    engines = snap["engines"].values()
    queries = loop.queries
    engine_calls = sum(e["batches"] for e in engines)
    counts = {
        "calls": counter.calls / queries,
        "engine_calls": engine_calls / queries,
        "rows": sum(e["samples"] for e in engines) / queries,
        "compiles": snap["plans"]["compiled"] / queries,
        "kernel_builds": snap["fused"]["kernels_built"] / queries,
    }
    if loop.rows is not None:
        counts["peak_rows"] = peak / (8 * loop.rows)
    if isinstance(loop, LifeLoop):
        counts["draw_calls"] = counter.draw_calls / max(engine_calls, 1)
        counts["sample_n"] = counter.sample_n / queries
    return counts


def ceiling(value: float) -> float:
    """``value`` rounded up to two decimals: the committed bound."""
    return math.ceil(round(value * 100, 6)) / 100


def main(argv: list[str]) -> int:
    measured = {name: measure(cls()) for name, cls in LOOPS.items()}
    for name, counts in measured.items():
        print(name, json.dumps({k: round(v, 4) for k, v in counts.items()}))
    if "--write" in argv:
        bounds = {name: {k: ceiling(v) for k, v in counts.items()}
                  for name, counts in measured.items()}
        COUNTS_PATH.write_text(json.dumps(bounds, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
