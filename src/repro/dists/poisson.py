"""Poisson distribution."""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, NON_NEGATIVE, Support


class Poisson(Distribution):
    """Poisson(lam) counts."""

    discrete = True

    def __init__(self, lam: float) -> None:
        if lam < 0:
            raise ValueError(f"lam must be non-negative, got {lam}")
        self.lam = float(lam)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.poisson(self.lam, size=n)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        valid = (k == x) & (k >= 0)
        if self.lam == 0.0:
            with np.errstate(divide="ignore"):
                return np.where(valid & (k == 0), 0.0, -np.inf)
        from scipy.special import gammaln

        lp = k * math.log(self.lam) - self.lam - gammaln(k + 1)
        return np.where(valid, lp, -np.inf)

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def variance(self) -> float:
        return self.lam

    @property
    def support(self) -> Support:
        return NON_NEGATIVE
