"""The four end-to-end workloads.

Each workload makes its inputs from the seed in :meth:`setup` (repeatable:
the harness clears every process-global cache and sets up several times to
measure set-up time), then :meth:`run` measures for the given number of
seconds and returns an :class:`Outcome`.  Answers needed by the
correctness oracle are kept in ``self.answers``.

The timed phase is cut into windows of ``WINDOW_S`` seconds.  Between two
windows the harness times :func:`host_probe`, a fixed piece of work, so the
report can tell how fast the shared host ran during each window.  With a
tracer, windows alternate between untraced and traced ones; each traced
window is one ``workload.<name>`` root span, and the CPU time per query in
the two kinds of window gives the tracing overhead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import sys
import traceback
from time import perf_counter, process_time

import numpy as np

from repro import Uncertain
from repro.core.conditionals import (
    EvaluationConfig,
    evaluation_config,
    get_config,
    set_config,
)
from repro.core.uncertain import UncertainBool
from repro.life import BayesLife, SensorLife
from repro.life.engine import neighbor_states, true_decision
from repro.runtime import trace as _trace
from repro.service import QueryRequest, Service

from benchmarks.e2e import inputs

WINDOW_S = 0.25
#: Below NumPy's threshold for releasing the interpreter lock, so that a
#: service worker thread cannot slow the probe down.
_PROBE_ROW = np.arange(256.0)


def host_probe() -> float:
    """Seconds that a fixed mix of interpreter and small-NumPy work takes
    (the faster of two tries).  The host is shared: other tenants slow it
    down by up to half for seconds at a time, and this work slows with it.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = 0.0
        for i in range(100):
            total += float((_PROBE_ROW * i + 1.0).sum())
        counts: dict = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        best = min(best, perf_counter() - start)
    return best


@dataclasses.dataclass
class Window:
    """One window of a timed phase."""

    start: float
    #: The slower of the host probes just before and just after the window.
    probe: float
    traced: bool
    stop: float = 0.0
    #: CPU seconds the process (every thread) spent in the window.
    cpu: float = 0.0
    #: Queries sent in the window.
    sent: int = 0
    #: Seconds per successful query.  Closed loop: the queries that
    #: completed in the window; open loop: those sent in it, timed from
    #: when they were due.
    latencies: list = dataclasses.field(default_factory=list)


class Windows:
    """Cuts a timed phase into windows with a host probe between them.

    With a tracer, every second window installs it and is one root span.
    """

    def __init__(self, tracer=None, root: str = "") -> None:
        self.tracer = tracer
        self.root = root
        self.done: list[Window] = []
        self.current: Window | None = None
        self._probe = host_probe()
        self._span = None
        self._cpu = 0.0

    def open(self) -> Window:
        traced = self.tracer is not None and len(self.done) % 2 == 1
        if traced:
            _trace.set_tracer(self.tracer)
            self._span = self.tracer.span(self.root)
            self._span.__enter__()
        self._cpu = process_time()
        self.current = Window(perf_counter(), self._probe, traced)
        return self.current

    def close(self) -> None:
        window, self.current = self.current, None
        window.stop = perf_counter()
        window.cpu = process_time() - self._cpu
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
            _trace.set_tracer(None)
        self._probe = host_probe()
        window.probe = max(window.probe, self._probe)
        self.done.append(window)


@dataclasses.dataclass
class Outcome:
    """What one timed phase measured."""

    windows: list
    #: Open loop: requests arrive on a schedule, and latency includes
    #: queueing and the service's batching window.
    open_loop: bool
    attempted: int
    failed: int
    #: Workload-specific results printed as ``name value unit`` lines.
    info: dict = dataclasses.field(default_factory=dict)


def _report_once(workload, exc: Exception) -> None:
    if not workload.failed:
        traceback.print_exception(exc, file=sys.stderr)


class Workload:
    """Inputs from ``seed``; a timed phase of ``seconds``."""

    name = "abstract"

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.answers: dict = {}
        self.failed = 0


class ClosedLoop(Workload):
    """A single caller issuing one query after another, under the
    evaluation configuration ``CONFIG`` (overrides of the defaults)."""

    CONFIG: dict = {}

    def query(self, i: int) -> None:
        raise NotImplementedError

    def run(self, tracer=None) -> Outcome:
        with evaluation_config(**self.CONFIG):
            return self._loop(tracer)

    def _loop(self, tracer) -> Outcome:
        windows = Windows(tracer, f"workload.{self.name}")
        end = perf_counter() + self.seconds
        i = 0
        while perf_counter() < end:
            window = windows.open()
            stop = min(window.start + WINDOW_S, end)
            while (start := perf_counter()) < stop:
                window.sent += 1
                try:
                    self.query(i)
                except Exception as exc:  # counted, reported once, run continues
                    _report_once(self, exc)
                    self.failed += 1
                else:
                    window.latencies.append(perf_counter() - start)
                i += 1
            windows.close()
        return Outcome(windows.done, False, i, self.failed)


class LifeSprt(ClosedLoop):
    """Fig 14: every cell update decides the rule cascade on a fresh graph,
    through the library's ``SensorLife`` and ``BayesLife``.

    The 25 generations of the exact board (the same under every seed, see
    ``inputs.LIFE_BOARD_SEED``), each decided by both variants, are 50
    blocks of 400 updates.  Queries visit the blocks round-robin, so every
    window holds the same mix of generations, which differ in cost.  Every
    block draws from its own stream, seeded by the run's seed; once each
    block has updated all its cells, the sequence repeats with fresh
    streams.  Config: numpy engine, optimizer on, ledger off.
    """

    name = "life_sprt"
    GENERATIONS = 25
    SIGMA = 0.3
    MAX_SAMPLES = 1000

    def setup(self) -> None:
        self.boards = inputs.life_boards(self.GENERATIONS)
        self.cells = self.boards[0][0].size
        self.variants = [SensorLife(self.SIGMA), BayesLife(self.SIGMA)]
        self.blocks = [(g, v) for g in range(self.GENERATIONS) for v in self.variants]
        self.wrong = 0
        self.samples = 0
        self.answers = {}  # block of generation 1, lap 0 -> [(decision, samples)]
        self._configs: list[EvaluationConfig] = []
        # Warm-up: one update of a cell on a throwaway stream.
        with evaluation_config(rng=np.random.default_rng([self.seed, 0]),
                               max_samples=self.MAX_SAMPLES) as config:
            board, _ = self.boards[-1]
            self.variants[0].decide(bool(board[0, 0]), neighbor_states(board, 0, 0),
                                    config.rng)

    def block_config(self, block: int, lap: int) -> EvaluationConfig:
        """The sample stream of one block of updates in one lap."""
        rng = np.random.default_rng([self.seed, block, lap])
        return EvaluationConfig(rng=rng, max_samples=self.MAX_SAMPLES)

    def update(self, block: int, cell: int) -> tuple[bool, int, bool]:
        """One cell update under the active configuration: (decision,
        joint samples, decision is right)."""
        generation, variant = self.blocks[block]
        board, counts = self.boards[generation]
        r, c = divmod(cell, board.shape[1])
        alive = bool(board[r, c])
        with _trace.span("query.update"):
            outcome = variant.decide(alive, neighbor_states(board, r, c), get_config().rng)
        right = outcome.will_be_alive == true_decision(alive, int(counts[r, c]))
        return outcome.will_be_alive, outcome.joint_samples, right

    def query(self, i: int) -> None:
        lap, k = divmod(i, len(self.blocks) * self.cells)
        cell, block = divmod(k, len(self.blocks))
        if k == 0:
            self._configs = [self.block_config(b, lap) for b in range(len(self.blocks))]
        set_config(self._configs[block])  # undone by run()
        decision, samples, right = self.update(block, cell)
        self.samples += samples
        self.wrong += not right
        if lap == 0 and self.blocks[block][0] == 0:
            self.answers.setdefault(block, []).append((decision, samples))

    def run(self, tracer=None) -> Outcome:
        outcome = super().run(tracer)
        updates = max(1, outcome.attempted)
        outcome.info["decision_error_rate"] = (self.wrong / updates, "fraction")
        outcome.info["joint_samples_per_update"] = (self.samples / updates, "samples")
        return outcome


class Fig08Analyst(ClosedLoop):
    """Analyst sessions over the 110-node Fig 8 network, one fresh graph
    per session: an SPRT test, ``E(1000)``, a 20 000-sample confidence
    interval and 20 000-sample percentiles.  Config: fused engine, sample
    ledger on (64 MiB)."""

    name = "fig08_analyst"
    CONFIG = {"engine": "fused", "sample_cache": True}
    KINDS = ("sprt", "E", "ci", "pct")
    SESSIONS = 5000
    TAIL = 20_000
    ORACLE_EVERY = 10

    def setup(self) -> None:
        self.sessions = inputs.analyst_sessions(self.seed, self.SESSIONS)
        self.answers = {}
        self._graph = None
        with evaluation_config(**self.CONFIG):
            walking, speed = self.build()
            for k in range(len(self.KINDS)):
                self.ask(walking, speed, k, 2**62 + k)  # a seed no session uses

    @staticmethod
    def build():
        node = inputs.fig08_root()
        return UncertainBool.from_node(node), Uncertain.from_node(node.parents[0])

    def ask(self, walking, speed, kind: int, seed: int):
        if kind == 0:
            result = walking.test(0.5, rng=seed)
            return (result.decision.value, result.samples_used, result.successes)
        if kind == 1:
            return float(speed.expected_value(1000, rng=seed))
        if kind == 2:
            return speed.confidence_interval(0.95, samples=self.TAIL, rng=seed)
        return speed.percentiles(20, samples=self.TAIL, rng=seed)

    @staticmethod
    def query_seed(session: int, kind: int) -> int:
        return session * 4 + kind

    def query(self, i: int) -> None:
        s, kind = divmod(i, len(self.KINDS))
        session = self.sessions[s % len(self.sessions)]
        with _trace.span(f"query.{self.KINDS[kind]}"):
            if kind == 0:
                with _trace.span("uncertain.build"):
                    self._graph = self.build()
            answer = self.ask(*self._graph, kind, self.query_seed(session, kind))
        if s % self.ORACLE_EVERY == 0:  # whole sessions, so every kind is checked
            self.answers[i] = (session, kind, answer)

    def parallel_over_numpy(self, draws: int = 10) -> float:
        """Throughput of ``ParallelEngine(workers=2)`` over the NumPy engine
        on this workload's 20 000-row draws (above 1: parallel is faster)."""
        from repro.runtime import ParallelEngine

        # Fork is safe here (this workload starts no thread) and, unlike
        # spawn, starts no resource-tracker process that outlives the run.
        engine = ParallelEngine(workers=2, mp_context="fork")
        speed = self.build()[1]
        seconds = {"numpy": 0.0, "parallel": 0.0}
        try:
            with evaluation_config(engine="numpy", sample_cache=False):
                speed.samples(self.TAIL, rng=0, engine=engine)  # pool start-up
                for i in range(draws):
                    for name, eng in (("numpy", "numpy"), ("parallel", engine)):
                        start = perf_counter()
                        speed.samples(self.TAIL, rng=i, engine=eng)
                        seconds[name] += perf_counter() - start
        finally:
            engine.shutdown()
            for child in multiprocessing.active_children():
                child.join(timeout=30)
        return seconds["numpy"] / seconds["parallel"]


class ShapeZoo(ClosedLoop):
    """Table 1 operator mix: Zipf(1.1) queries over 2 000 recipes, each
    query a fresh graph and ``expected_value(2000)`` on the fused engine.
    About 1 600 distinct shapes outgrow the structural LRU (512) and the
    kernel cache (256)."""

    name = "shape_zoo"
    CONFIG = {"engine": "fused"}
    RECIPES = 2000
    QUERIES = 20_000
    SAMPLES = 2000
    ORACLE_EVERY = 8

    def setup(self) -> None:
        self.recipes, self.order, self.seeds = inputs.shape_zoo_inputs(
            self.seed, self.RECIPES, self.QUERIES
        )
        self.answers = {}
        self._seen: set[int] = set()
        warm = inputs.make_recipe(np.random.default_rng([self.seed, 99]), 3, 4)
        with evaluation_config(**self.CONFIG):
            inputs.build_recipe(warm).expected_value(self.SAMPLES, rng=0)

    def query(self, i: int) -> None:
        j = i % self.QUERIES
        r = int(self.order[j])
        with _trace.span("query.E"):
            with _trace.span("uncertain.build"):
                value = inputs.build_recipe(self.recipes[r])
            answer = value.expected_value(self.SAMPLES, rng=int(self.seeds[j]))
        if i % self.ORACLE_EVERY == 0 or r not in self._seen:
            self.answers[i] = (r, int(self.seeds[j]), answer)
        self._seen.add(r)

    def run(self, tracer=None) -> Outcome:
        outcome = super().run(tracer)
        outcome.info["distinct_shapes"] = (len(self._seen), "count")
        return outcome


class GpsFlood(Workload):
    """Fig 4/13 speeding test through the service tier.

    Open-loop Poisson arrivals at ``RATE``, each request timed from when it
    was due.  Each request builds its own graph when it is sent (pre-built
    graphs make GC pauses dominate p99), and half of the requests are
    seeded.  One worker thread: ``Service(engine="fused", workers=1,
    window=0.002, max_batch=256, max_pending=4096)``.  The traced run adds
    a short untraced rate ladder for the highest rate whose p99 stays
    within 25 ms.
    """

    name = "gps_flood"
    RATE = 1000.0
    SAMPLES = 500
    REQUESTS = 1 << 17
    ORACLE_EVERY = 16
    LADDER = (500, 750, 1000, 1500, 2000, 3000, 4000)
    RUNG_S = 1.0
    P99_LIMIT_S = 0.025

    def service(self) -> Service:
        return Service(engine="fused", workers=1, window=0.002, max_batch=256,
                       max_pending=4096)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 13])
        self.gaps = rng.exponential(1.0 / self.RATE, self.REQUESTS)
        self.request_seeds = [
            int(s) if seeded else None
            for s, seeded in zip(rng.integers(0, 2**31, self.REQUESTS),
                                 rng.random(self.REQUESTS) < 0.5)
        ]
        self.answers = {"seeded": [], "seedless": []}
        self.service_stats = {}
        self._next = 0
        self._seeded = 0
        self.failed = 0

        async def warm():
            async with self.service() as svc:
                await svc.submit(QueryRequest(value=inputs.walker_query(), kind="pr",
                                              samples=self.SAMPLES, seed=0))

        asyncio.run(warm())

    async def _request(self, svc: Service, due: float, window: Window | None = None):
        """Send one request; return its latency from ``due`` (also kept in
        ``window``), or ``None`` when it failed."""
        k = self._next % self.REQUESTS
        self._next += 1
        seed = self.request_seeds[k]
        try:
            with _trace.span("uncertain.build"):
                value = inputs.walker_query()
            result = await svc.submit(QueryRequest(value=value, kind="pr",
                                                   samples=self.SAMPLES, seed=seed))
        except Exception as exc:  # counted, reported once, run continues
            _report_once(self, exc)
            self.failed += 1
            return None
        latency = perf_counter() - due
        if window is not None:
            window.latencies.append(latency)
        if seed is None:
            self.answers["seedless"].append(result.extra["evidence"])
        else:
            if self._seeded % self.ORACLE_EVERY == 0:
                self.answers["seeded"].append((seed, result.value, result.extra["evidence"]))
            self._seeded += 1
        return latency

    async def _send(self, svc, rate: float, duration: float, windows=None):
        """Poisson arrivals at ``rate`` for ``duration``: (request tasks,
        how late the generator sent each request).  With ``windows``, each
        request counts in the window it was sent in."""
        scale = self.RATE / rate
        tasks, late = [], []
        start = perf_counter()
        due = start
        while True:
            due += self.gaps[len(tasks) % self.REQUESTS] * scale
            if due - start >= duration:
                break
            if windows is not None and due >= windows.current.start + WINDOW_S:
                windows.close()
                windows.open()
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(perf_counter() - due)
            window = None if windows is None else windows.current
            if window is not None:
                window.sent += 1
            tasks.append(asyncio.create_task(self._request(svc, due, window)))
        return tasks, late

    async def _ladder(self, svc) -> float:
        """Highest rung with p99 <= 25 ms, no failure and no backlog left
        1 s after the last send (at most 4 000 requests per rung, below
        the shed bound)."""
        best = 0.0
        for rate in self.LADDER:
            failed = self.failed
            tasks, _late = await self._send(svc, rate, self.RUNG_S)
            drain_by = perf_counter() + 1.0
            while svc.queue_depth and perf_counter() < drain_by:
                await asyncio.sleep(0.005)
            drained = svc.queue_depth == 0
            latencies = [x for x in await asyncio.gather(*tasks) if x is not None]
            p99 = float(np.percentile(latencies, 99)) if latencies else float("inf")
            if self.failed > failed or not drained or p99 > self.P99_LIMIT_S:
                break
            best = float(rate)
        return best

    def run(self, tracer=None) -> Outcome:
        return asyncio.run(self._run(tracer))

    async def _run(self, tracer) -> Outcome:
        async with self.service() as svc:
            windows = Windows(tracer, f"workload.{self.name}")
            windows.open()
            tasks, late = await self._send(svc, self.RATE, self.seconds, windows)
            # Only the requests still in flight: gathering all of them queues
            # one callback per finished task, which would stall the last ones.
            await asyncio.gather(*(t for t in tasks if not t.done()))
            windows.close()
            self.service_stats = svc.stats()
            info = {"loadgen.late_p99_ms": (float(np.percentile(late, 99)) * 1e3, "ms")}
            if tracer is not None and not self.smoke:
                info["max_rate_qps"] = (await self._ladder(svc), "req/s")
        return Outcome(windows.done, True, self._next, self.failed, info)


WORKLOADS = {
    cls.name: cls for cls in (GpsFlood, LifeSprt, Fig08Analyst, ShapeZoo)
}
