"""Base class for distributions backed by sampling functions."""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Any

import numpy as np


@dataclasses.dataclass(frozen=True)
class Support:
    """Closed support interval of a scalar distribution.

    Infinite endpoints use ``±math.inf``.  Discrete distributions report the
    smallest interval containing their support.
    """

    lower: float
    upper: float

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)


REAL_LINE = Support(-math.inf, math.inf)
NON_NEGATIVE = Support(0.0, math.inf)
UNIT_INTERVAL = Support(0.0, 1.0)


class Distribution(abc.ABC):
    """A random variable represented by a sampling function.

    Subclasses must implement :meth:`sample_n`; everything else has sensible
    defaults.  Analytic structure (``pdf``, ``cdf``, ``mean``, ``variance``)
    is optional — distributions without closed forms raise
    ``NotImplementedError`` from the corresponding accessor, matching the
    paper's observation that sampling functions are the only universally
    available representation.
    """

    #: True when the distribution takes values on a countable set.
    discrete: bool = False

    #: Attribute names that define this distribution structurally.  ``None``
    #: (the default) means "every instance attribute" — right for simple
    #: parametric families; subclasses that cache derived state (frozen
    #: scipy objects, Cholesky factors, ...) narrow this to their defining
    #: parameters so structural hashing sees through the cached extras.
    structural_fields: "tuple[str, ...] | None" = None

    @abc.abstractmethod
    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` independent samples as a numpy array."""

    # -- structural metadata (plan compiler) -------------------------------

    def structural_params(self) -> "dict | None":
        """Parameters that determine this distribution's sample stream.

        Used by :mod:`repro.core.structural` to hash plan shapes: two leaf
        nodes whose distributions share a class and equal structural
        params are interchangeable.  Returns a plain mapping of raw values
        (canonicalisation happens in the structural module); return
        ``None`` to declare the distribution structurally opaque (never
        shared across plans).  The default reflects over the instance
        dict, restricted to :attr:`structural_fields` when set; values
        with no canonical form (callables, exotic objects) make the
        owning plan opaque automatically.
        """
        if self.structural_fields is not None:
            return {name: getattr(self, name) for name in self.structural_fields}
        return dict(getattr(self, "__dict__", {}))

    def bulk_draw_spec(self) -> "tuple[str, float, float] | None":
        """Affine reduction to a base generator draw, if one exists.

        ``("standard_normal", loc, scale)`` declares that ``sample_n(n,
        rng)`` is bit-identical to ``loc + scale * rng.standard_normal(n)``
        (likewise ``"random"`` and ``"standard_exponential"``).  The fused
        backend (:mod:`repro.core.fused`) uses this to coalesce runs of
        adjacent leaf draws into one base-generator call plus per-leaf
        affine slices — the single biggest win for leaf-heavy plans —
        without changing the consumed RNG stream.  ``None`` (the default)
        means "no such reduction"; generated kernels then call
        :meth:`sample_n` directly.  A claim is trusted only for the exact
        first-party classes listed in
        :data:`repro.analysis.certify.TRUSTED_BULK_FAMILIES`; kernels call
        every other distribution's :meth:`sample_n`, so a wrong spec
        cannot corrupt a stream.
        """
        return None

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a single sample (scalar for scalar distributions)."""
        return self.sample_n(1, rng)[0]

    # -- analytic structure ------------------------------------------------

    def pdf(self, x: Any) -> Any:
        """Density (or mass, for discrete distributions) at ``x``."""
        return np.exp(self.log_pdf(x))

    def log_pdf(self, x: Any) -> Any:
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form density"
        )

    def cdf(self, x: Any) -> Any:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form CDF")

    @property
    def mean(self) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form mean")

    @property
    def variance(self) -> float:
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form variance"
        )

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def support(self) -> Support:
        return REAL_LINE

    # -- convenience -------------------------------------------------------

    def empirical_mean(self, n: int, rng: np.random.Generator) -> float:
        """Monte-Carlo estimate of the mean from ``n`` samples."""
        return float(np.mean(self.sample_n(n, rng)))

    def resilient(self, **kwargs) -> "Distribution":
        """Wrap this distribution in a fault-tolerant sampling shell.

        Returns a :class:`~repro.resilience.ResilientSource` whose primary
        is this distribution; keyword arguments (``fallback``,
        ``max_retries``, ``backoff_s``, ``breaker``, ...) pass through.
        Convenience for hardening a flaky sensor/network-backed source::

            gps = FunctionDistribution(read_fix).resilient(
                fallback=last_good_fix, max_retries=3
            )
        """
        from repro.resilience.source import ResilientSource

        return ResilientSource(self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = getattr(self, "__dict__", {})
        inner = ", ".join(f"{k}={v!r}" for k, v in fields.items() if not k.startswith("_"))
        return f"{type(self).__name__}({inner})"
