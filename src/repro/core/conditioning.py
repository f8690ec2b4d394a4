"""Conditioning an uncertain value on uncertain evidence.

``posterior`` (Section 3.5) improves an estimate with an *external* prior
density.  This module covers the complementary Bayesian operation: given a
boolean condition over the *same* network, produce the conditional
distribution

    Pr[X | C]  where C shares variables with X.

Example: the speed distribution given that the user is inside the park, or
a sensor value given that a co-computed plausibility check passed.  Because
condition and value share graph nodes, they must be sampled under one
joint assignment — which is exactly what a shared :class:`SampleContext`
provides; conditioning is then rejection of the joint samples where the
evidence is false.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import Draw
from repro.core.uncertain import Uncertain, UncertainBool
from repro.dists.empirical import Empirical


def condition(
    value: Uncertain,
    evidence: UncertainBool,
    pool_size: int = 2_000,
    max_batches: int = 200,
    batch_size: int = 2_000,
    rng=None,
) -> Uncertain:
    """The conditional distribution of ``value`` given ``evidence`` is true.

    Draws joint samples of (value, evidence) under shared contexts and
    keeps the values where the evidence holds, until ``pool_size`` accepted
    samples are collected (or ``max_batches`` is exhausted — rare evidence
    raises rather than looping forever, mirroring the rejection-economics
    discussion around Figure 17).  ``rng=None`` draws from the ambient
    configuration's generator, like every other query.
    """
    if not isinstance(evidence, UncertainBool):
        raise TypeError(
            f"evidence must be an UncertainBool (a comparison), got "
            f"{type(evidence).__name__}"
        )
    if pool_size <= 0 or batch_size <= 0 or max_batches <= 0:
        raise ValueError("pool_size, batch_size and max_batches must be positive")
    # Both draws resolve once, on one generator (``rng=None``: the
    # config's); each batch shares one memo table so the evidence sees
    # the same joint assignment as the value.
    value_draw = Draw(value.plan, rng)
    evidence_draw = Draw(evidence.plan, value_draw.rng, config=value_draw.config)
    accepted: list[np.ndarray] = []
    total_accepted = 0
    for _ in range(max_batches):
        value_draw.memo = evidence_draw.memo = {}
        values = value_draw.sample(batch_size)
        holds = np.asarray(evidence_draw.sample(batch_size), dtype=bool)
        kept = values[holds]
        if len(kept):
            accepted.append(kept)
            total_accepted += len(kept)
        if total_accepted >= pool_size:
            break
    if total_accepted == 0:
        raise ValueError(
            "the evidence was never true in "
            f"{max_batches * batch_size} joint samples; conditioning on "
            "(near-)impossible evidence is not representable by rejection"
        )
    pool = np.concatenate(accepted)[:pool_size]
    return Uncertain(Empirical(pool), label="conditioned")


