"""Figure 3 bench: naive GPS speed computation produces absurd speeds.

Besides regenerating the figure's statistics, this bench exercises the
naive-vs-batched sampling comparison that motivates Section 4.2's batched
runtime, through the plan/engine layer: the same GPS speed network is
sampled one joint sample at a time (the naive strategy — a batch of one
per draw) and as single vectorized batches through its compiled plan.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_and_report
from repro.core.conditionals import evaluation_config
from repro.core.plan import compile_plan
from repro.gps.sensor import GpsSensor
from repro.gps.trace import WalkConfig, generate_walk
from repro.gps.walking import uncertain_speed_mph
from repro.rng import default_rng


def test_fig03_naive_speed(benchmark):
    run_and_report(benchmark, "fig03", fast=True)


def _speed_network():
    """The real Figure 5(b) speed network from two noisy fixes."""
    trace = generate_walk(WalkConfig(duration_s=30.0), rng=default_rng(5))
    sensor = GpsSensor(epsilon_m=4.0, rng=default_rng(6))
    fixes = [
        sensor.measure(pos, timestamp=t)
        for t, pos in zip(trace.timestamps[:2], trace.positions[:2])
    ]
    return uncertain_speed_mph(fixes[0], fixes[1])


def test_fig03_naive_vs_batched_sampling(benchmark):
    """Batched plan execution beats one-sample-at-a-time by a wide margin.

    The naive strategy draws each joint sample in its own batch of one —
    per-sample graph dispatch, n times.  The batched strategy replays the
    compiled plan once with vectorized numpy.  Both go through the engine
    layer, so the difference isolated here is per-draw overhead.
    """
    speed = _speed_network()
    plan = compile_plan(speed.node)
    assert len(plan) >= 5
    n = 2_000

    def naive(rng):
        return np.array([speed.sample(rng) for _ in range(n)])

    def batched(rng):
        return speed.samples(n, rng)

    with evaluation_config(engine="numpy"):
        # Warm-up compiles the plan and the program specialization.
        naive_out = naive(default_rng(1))
        batched_out = batched(default_rng(1))
        assert naive_out.shape == batched_out.shape == (n,)
        assert np.all(naive_out >= 0) and np.all(batched_out >= 0)

        naive_s = batched_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            naive(default_rng(2))
            naive_s = min(naive_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            batched(default_rng(2))
            batched_s = min(batched_s, time.perf_counter() - t0)

        result = benchmark.pedantic(
            lambda: batched(default_rng(3)), rounds=3, iterations=1
        )
    assert result.shape == (n,)
    print()
    print(
        f"fig03 sampling: naive {naive_s * 1e3:.1f} ms vs batched "
        f"{batched_s * 1e3:.2f} ms for n={n} ({naive_s / batched_s:.0f}x)"
    )
    # The paper's point: batching is orders of magnitude cheaper.  Keep a
    # conservative bound so the assertion is robust on slow machines.
    assert batched_s * 10 < naive_s
