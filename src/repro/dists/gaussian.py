"""Gaussian (normal) distributions, including truncated and multivariate."""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, REAL_LINE, Support


class Gaussian(Distribution):
    """Normal distribution N(mu, sigma^2).

    The workhorse error model of the paper: sensor noise in SensorLife
    (Section 5.2) and the Central-Limit-Theorem rationale for means
    (Section 3.2) are both Gaussian.
    """

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.sigma == 0.0:
            return np.full(n, self.mu)
        return rng.normal(self.mu, self.sigma, size=n)

    def bulk_draw_spec(self):
        # ``rng.normal(mu, sigma, n)`` computes ``mu + sigma * z`` per value
        # (numpy's random_normal), so the affine-over-standard_normal form
        # is bit-identical.  The degenerate sigma=0 path never draws.
        if self.sigma == 0.0:
            return None
        return ("standard_normal", self.mu, self.sigma)

    def log_pdf(self, x):
        if self.sigma == 0.0:
            raise NotImplementedError("degenerate Gaussian has no density")
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi)

    def cdf(self, x):
        if self.sigma == 0.0:
            return (np.asarray(x, dtype=float) >= self.mu).astype(float)
        z = (np.asarray(x, dtype=float) - self.mu) / (self.sigma * math.sqrt(2))
        from scipy.special import erf

        return 0.5 * (1 + erf(z))

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma**2

    @property
    def support(self) -> Support:
        return REAL_LINE


class TruncatedGaussian(Distribution):
    """Gaussian restricted (and renormalised) to ``[lower, upper]``.

    Used as the walking-speed prior in the GPS-Walking case study: humans
    are overwhelmingly likely to walk between 0 and ~6 mph.
    """

    def __init__(self, mu: float, sigma: float, lower: float, upper: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if not lower < upper:
            raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.lower = float(lower)
        self.upper = float(upper)
        self._a = (self.lower - self.mu) / self.sigma
        self._b = (self.upper - self.mu) / self.sigma
        from scipy import stats

        self._dist = stats.truncnorm(self._a, self._b, loc=self.mu, scale=self.sigma)

    # The frozen scipy distribution is derived state; these four define it.
    structural_fields = ("mu", "sigma", "lower", "upper")

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._dist.rvs(size=n, random_state=rng)

    def log_pdf(self, x):
        return self._dist.logpdf(np.asarray(x, dtype=float))

    def cdf(self, x):
        return self._dist.cdf(np.asarray(x, dtype=float))

    @property
    def mean(self) -> float:
        return float(self._dist.mean())

    @property
    def variance(self) -> float:
        return float(self._dist.var())

    @property
    def support(self) -> Support:
        return Support(self.lower, self.upper)


class MultivariateGaussian(Distribution):
    """Multivariate normal; samples are arrays of shape ``(n, d)``.

    The GPS sensor's planar error before conversion to the Rayleigh radial
    form is an isotropic 2-D Gaussian; this class backs that derivation and
    tests for it.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} incompatible with mean {mean.shape}")
        self.mu = mean
        self.cov = cov
        # Fail fast on non-PSD covariance.
        self._chol = np.linalg.cholesky(cov + 1e-12 * np.eye(mean.size))

    @property
    def dim(self) -> int:
        return self.mu.size

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(size=(n, self.dim))
        return self.mu + z @ self._chol.T

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_n(1, rng)[0]

    def log_pdf(self, x):
        from scipy import stats

        return stats.multivariate_normal(self.mu, self.cov).logpdf(x)

    @property
    def mean(self):
        return self.mu

    @property
    def variance(self):
        return self.cov
