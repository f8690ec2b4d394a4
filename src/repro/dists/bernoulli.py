"""Bernoulli and binomial distributions.

Every comparison in Uncertain<T> produces a Bernoulli random variable whose
parameter ``p`` is the evidence for the comparison (Section 3.4).  The SPRT
in :mod:`repro.core.sprt` tests hypotheses about exactly this parameter.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, Support


class Bernoulli(Distribution):
    """Bernoulli(p): 1 with probability ``p``, else 0."""

    discrete = True

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = float(p)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(n) < self.p).astype(np.int64)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(
                x == 1,
                np.log(self.p),
                np.where(x == 0, np.log1p(-self.p), -np.inf),
            )

    @property
    def mean(self) -> float:
        return self.p

    @property
    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    @property
    def support(self) -> Support:
        return Support(0, 1)


class Binomial(Distribution):
    """Binomial(n, p): number of successes in ``n`` Bernoulli(p) trials."""

    discrete = True

    def __init__(self, trials: int, p: float) -> None:
        if trials < 0:
            raise ValueError(f"trials must be non-negative, got {trials}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.trials = int(trials)
        self.p = float(p)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.binomial(self.trials, self.p, size=n)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        valid = (k == x) & (k >= 0) & (k <= self.trials)
        k = np.clip(k, 0, self.trials)
        if self.p in (0.0, 1.0):
            target = self.trials * self.p
            with np.errstate(divide="ignore"):
                return np.where(valid & (k == target), 0.0, -np.inf)
        from scipy.special import gammaln

        log_comb = (
            gammaln(self.trials + 1)
            - gammaln(k + 1)
            - gammaln(self.trials - k + 1)
        )
        lp = log_comb + k * math.log(self.p) + (self.trials - k) * math.log1p(-self.p)
        return np.where(valid, lp, -np.inf)

    @property
    def mean(self) -> float:
        return self.trials * self.p

    @property
    def variance(self) -> float:
        return self.trials * self.p * (1.0 - self.p)

    @property
    def support(self) -> Support:
        return Support(0, self.trials)
