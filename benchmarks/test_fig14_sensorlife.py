"""Figure 14 bench: SensorLife accuracy and sampling cost vs noise.

Also carries the SPRT-vs-fixed-test ablation: the goal-directed SPRT
should match a large fixed sample's accuracy at a fraction of its cost.
"""

import numpy as np

from benchmarks.conftest import run_and_report
from repro.core.conditionals import evaluation_config
from repro.core.sprt import FixedSampleTest
from repro.life.variants import SensorLife
from repro.life.engine import true_decision
from repro.rng import default_rng


def test_fig14_sensorlife(benchmark):
    run_and_report(benchmark, "fig14", fast=True)


def test_ablation_sprt_vs_fixed_sampling(benchmark):
    """Ablation: the paper's SPRT vs a fixed 500-sample pool per conditional.

    Both must be (nearly) as accurate; the SPRT should use far fewer
    samples on easy conditionals — its whole reason for existing
    (Section 4.3's "only taking as many samples as necessary").
    """
    sigma = 0.15
    states = np.array([1.0] * 3 + [0.0] * 5)
    cases = [(True, states)] * 20

    def run_with(test_factory):
        wrong = 0
        with evaluation_config(
            rng=default_rng(99), max_samples=2_000, test_factory=test_factory
        ) as cfg:
            for is_alive, neighbor_states in cases:
                outcome = SensorLife(sigma).decide(
                    is_alive, neighbor_states, default_rng(1)
                )
                wrong += outcome.will_be_alive != true_decision(is_alive, 3)
            return wrong, cfg.accounting.samples_drawn

    sprt_wrong, sprt_samples = benchmark(lambda: run_with(None))
    fixed_wrong, fixed_samples = run_with(
        lambda t: FixedSampleTest(t, n=500)
    )
    print(
        f"\nSPRT: {sprt_wrong} wrong, {sprt_samples} samples | "
        f"fixed-500: {fixed_wrong} wrong, {fixed_samples} samples"
    )
    assert sprt_wrong <= fixed_wrong + 1
    assert sprt_samples < fixed_samples / 2
