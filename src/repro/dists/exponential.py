"""Exponential and Gamma distributions."""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, NON_NEGATIVE, Support


class Exponential(Distribution):
    """Exponential(rate) over non-negative reals; mean = 1/rate."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def bulk_draw_spec(self):
        # ``rng.exponential(scale, n)`` is ``scale * standard_exponential``
        # per value, so the affine form (loc 0) is bit-identical.
        return ("standard_exponential", 0.0, 1.0 / self.rate)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, math.log(self.rate) - self.rate * x, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-self.rate * x), 0.0)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    @property
    def support(self) -> Support:
        return NON_NEGATIVE


class Gamma(Distribution):
    """Gamma(shape, rate) with density proportional to x^(k-1) e^(-rate x)."""

    def __init__(self, shape: float, rate: float) -> None:
        if shape <= 0 or rate <= 0:
            raise ValueError(f"shape and rate must be positive, got {shape}, {rate}")
        self.shape = float(shape)
        self.rate = float(rate)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)

    def log_pdf(self, x):
        from scipy.special import gammaln

        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = (
                self.shape * math.log(self.rate)
                - gammaln(self.shape)
                + (self.shape - 1) * np.log(x)
                - self.rate * x
            )
        return np.where(x > 0, lp, -np.inf)

    def cdf(self, x):
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        return np.where(x > 0, gammainc(self.shape, self.rate * x), 0.0)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    @property
    def support(self) -> Support:
        return NON_NEGATIVE
