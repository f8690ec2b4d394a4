"""Beta distribution.

The paper notes (Section 5.2) that replacing SensorLife's Gaussian sensor
noise with a non-negative Beta noise model "does not appreciably change our
results"; we include Beta so that ablation is runnable.
"""

from __future__ import annotations

import numpy as np

from repro.dists.base import Distribution, Support, UNIT_INTERVAL


class Beta(Distribution):
    """Beta(a, b) on the unit interval."""

    def __init__(self, a: float, b: float) -> None:
        if a <= 0 or b <= 0:
            raise ValueError(f"a and b must be positive, got {a}, {b}")
        self.a = float(a)
        self.b = float(b)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.beta(self.a, self.b, size=n)

    def log_pdf(self, x):
        from scipy.special import betaln

        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = (
                (self.a - 1) * np.log(x)
                + (self.b - 1) * np.log1p(-x)
                - betaln(self.a, self.b)
            )
        return np.where((x > 0) & (x < 1), lp, -np.inf)

    def cdf(self, x):
        from scipy.special import betainc

        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return betainc(self.a, self.b, x)

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s**2 * (s + 1))

    @property
    def support(self) -> Support:
        return UNIT_INTERVAL
