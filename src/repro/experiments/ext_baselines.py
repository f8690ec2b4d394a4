"""Extension experiment: related-work baselines, measured (Section 6)."""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.ces import ProbT
from repro.baselines import Interval
from repro.core.uncertain import Uncertain
from repro.dists import Gaussian
from repro.experiments.base import ExperimentResult, experiment
from repro.rng import default_rng


@experiment("ext_baselines")
def run(seed: int = 24, fast: bool = True) -> ExperimentResult:
    """Interval analysis and CES prob<T> vs Uncertain<T> on shared probes.

    Probes the paper's three critiques: intervals lose dependence (the
    ``x - x`` dependency problem) and cannot grade evidence; exact discrete
    representations blow up under computation and cannot express continuous
    error models at all.
    """
    rng = default_rng(seed)

    # Probe 1: dependence. x in [4, 6] (Uncertain: N(5, 0.5) truncated view).
    x_interval = Interval(4.0, 6.0)
    interval_self_diff = (x_interval - x_interval).width
    x_uncertain = Uncertain(Gaussian(5.0, 0.5))
    uncertain_self_diff = float(
        np.max(np.abs((x_uncertain - x_uncertain).samples(1_000, rng)))
    )

    # Probe 2: evidence. Mass location inside identical bounds.
    concentrated = Uncertain(Gaussian(50.9, 0.05))  # lives near 51
    spread = Uncertain(Gaussian(49.1, 0.05))  # lives near 49
    evidence_high = (concentrated > 50.0).evidence(5_000, rng)
    evidence_low = (spread > 50.0).evidence(5_000, rng)
    bounds = Interval(49.0, 51.0)
    interval_answer = bounds.possibly_greater(50.0)  # same for both variables

    # Probe 3: cost growth under repeated combination.
    values = [2, 3, 5, 7, 11, 13, 17, 19]
    chain = 4 if fast else 6
    ces = ProbT.uniform(values)
    t0 = time.perf_counter()
    ces_acc = ces
    for _ in range(chain):
        ces_acc = ces_acc * ProbT.uniform(values)
    ces_seconds = time.perf_counter() - t0
    ces_support = ces_acc.support_size

    from repro.core.graph import node_count

    t0 = time.perf_counter()
    unc_acc = Uncertain(Gaussian(1.0, 0.1))
    for _ in range(chain):
        unc_acc = unc_acc * Uncertain(Gaussian(1.0, 0.1))
    unc_acc.samples(1_000, rng)  # force evaluation so timing is honest
    uncertain_seconds = time.perf_counter() - t0
    uncertain_nodes = node_count(unc_acc.node)

    rows = [
        {
            "probe": "x - x (dependence)",
            "interval": f"width {interval_self_diff:g}",
            "ces_probt": "width 2 (independent copies)",
            "uncertain": f"max |sample| {uncertain_self_diff:g}",
        },
        {
            "probe": "evidence for > 50 inside [49, 51]",
            "interval": f"'possible' for both ({interval_answer})",
            "ces_probt": "exact, discrete only",
            "uncertain": f"{evidence_low:.3f} vs {evidence_high:.3f}",
        },
        {
            "probe": f"{chain} chained multiplications",
            "interval": "O(1) per op",
            "ces_probt": f"support {ces_support}, {ces_seconds * 1e3:.1f} ms",
            "uncertain": f"{uncertain_nodes} nodes, {uncertain_seconds * 1e3:.1f} ms for 1k samples",
        },
    ]
    claims = {
        "interval analysis suffers the dependency problem": interval_self_diff > 0,
        "Uncertain<T> keeps x - x identically zero": uncertain_self_diff == 0.0,
        "intervals cannot distinguish where the mass lies": interval_answer is True,
        "Uncertain<T> grades the same two cases decisively": evidence_high > 0.99
        and evidence_low < 0.01,
        "prob<T> support grows multiplicatively": ces_support
        >= len(values) ** 2,
        "Uncertain<T>'s representation grows linearly": uncertain_nodes
        == 2 * chain + 1,
    }
    return ExperimentResult(
        "ext_baselines", "related-work baselines, measured", rows, claims
    )
