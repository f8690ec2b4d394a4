"""Von Mises distribution — circular noise for headings and bearings.

GPS headings and compass readings are angles; Gaussian noise on a circle is
properly the von Mises distribution.  Included for heading-aware extensions
of the GPS case study.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, Support


class VonMises(Distribution):
    """VonMises(mu, kappa) on (-pi, pi]; kappa -> 0 is circular-uniform."""

    def __init__(self, mu: float, kappa: float) -> None:
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        self.mu = float(mu)
        self.kappa = float(kappa)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.vonmises(self.mu, self.kappa, size=n)

    def log_pdf(self, x):
        from scipy.special import i0

        x = np.asarray(x, dtype=float)
        return (
            self.kappa * np.cos(x - self.mu)
            - math.log(2 * math.pi)
            - np.log(i0(self.kappa))
        )

    @property
    def mean(self) -> float:
        """Circular mean direction."""
        return self.mu

    @property
    def variance(self) -> float:
        """Circular variance 1 - I1(k)/I0(k)."""
        if self.kappa == 0:
            return 1.0
        from scipy.special import i0, i1

        return 1.0 - float(i1(self.kappa) / i0(self.kappa))

    @property
    def support(self) -> Support:
        return Support(-math.pi, math.pi)
