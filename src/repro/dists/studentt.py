"""Student's t distribution — heavy-tailed error model."""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, REAL_LINE, Support


class StudentT(Distribution):
    """Student-t with ``df`` degrees of freedom, location and scale.

    Useful as a robust alternative to Gaussian sensor noise; heavy tails
    stress the SPRT's sample-size adaptation in tests.
    """

    def __init__(self, df: float, loc: float = 0.0, scale: float = 1.0) -> None:
        if df <= 0:
            raise ValueError(f"df must be positive, got {df}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.df = float(df)
        self.loc = float(loc)
        self.scale = float(scale)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.loc + self.scale * rng.standard_t(self.df, size=n)

    def log_pdf(self, x):
        from scipy.special import gammaln

        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        df = self.df
        return (
            gammaln((df + 1) / 2)
            - gammaln(df / 2)
            - 0.5 * math.log(df * math.pi)
            - math.log(self.scale)
            - (df + 1) / 2 * np.log1p(z * z / df)
        )

    def cdf(self, x):
        from scipy.stats import t

        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return t.cdf(z, self.df)

    @property
    def mean(self) -> float:
        if self.df <= 1:
            raise NotImplementedError("mean undefined for df <= 1")
        return self.loc

    @property
    def variance(self) -> float:
        if self.df <= 2:
            raise NotImplementedError("variance undefined for df <= 2")
        return self.scale**2 * self.df / (self.df - 2)

    @property
    def support(self) -> Support:
        return REAL_LINE
