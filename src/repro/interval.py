"""The closed interval ``[lower, upper]`` over the extended reals.

One class serves three roles:

- a distribution's declared support (exported as
  :class:`repro.dists.Support`): infinite endpoints use ``±math.inf``, and
  a discrete distribution reports the smallest interval containing its
  support;
- the abstract value of one plan slot in the interval analysis
  (:mod:`repro.analysis.intervals`): ``Interval(-inf, inf)`` is top and a
  point interval ``[v, v]`` a known constant;
- the interval-analysis baseline of Section 6 (Moore 1966,
  :mod:`repro.baselines`): ``+ − × ÷``, negation and ``abs`` propagate
  guaranteed bounds, and comparisons are tri-state.  The paper's critique:
  "intervals treat all random variables as having uniform distributions",
  and interval arithmetic ignores dependence, so ``x - x`` is
  ``[lower - upper, upper - lower]`` rather than zero.

The class rejects only ``lower > upper``.  A NaN endpoint is kept: an
:class:`~repro.dists.Empirical` of non-finite data reports ``[nan, nan]``.

Standard library only, so :mod:`repro.dists` can import it for free.
"""

from __future__ import annotations

import dataclasses
import math

_INF = math.inf


@dataclasses.dataclass(frozen=True)
class Interval:
    """A closed interval ``[lower, upper]`` over the extended reals."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @classmethod
    def point(cls, value: float) -> "Interval":
        value = float(value)
        return cls(value, value)

    @classmethod
    def from_center(cls, center: float, radius: float) -> "Interval":
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        return cls(center - radius, center + radius)

    # -- predicates --------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    @property
    def contains_zero(self) -> bool:
        return self.lower <= 0.0 <= self.upper

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper and math.isfinite(self.lower)

    @property
    def is_top(self) -> bool:
        return self.lower == -_INF and self.upper == _INF

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (the join of the lattice)."""
        return Interval(min(self.lower, other.lower), max(self.upper, other.upper))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Interval":
        return _t_add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return _t_sub(self, _coerce(other))

    def __rsub__(self, other) -> "Interval":
        return _t_sub(_coerce(other), self)

    def __mul__(self, other) -> "Interval":
        return _t_mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        return _checked_div(self, _coerce(other))

    def __rtruediv__(self, other) -> "Interval":
        return _checked_div(_coerce(other), self)

    def __neg__(self) -> "Interval":
        return _t_neg(self)

    def __abs__(self) -> "Interval":
        return _t_abs(self)

    # -- comparisons: tri-state, not evidence ---------------------------------

    def definitely_greater(self, threshold: float) -> bool:
        return self.lower > threshold

    def definitely_less(self, threshold: float) -> bool:
        return self.upper < threshold

    def possibly_greater(self, threshold: float) -> bool:
        return self.upper > threshold

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lower:g}, {self.upper:g}]"


TOP = Interval(-_INF, _INF)


def _coerce(other) -> Interval:
    return other if isinstance(other, Interval) else Interval.point(other)


def _checked_div(a: Interval, b: Interval) -> Interval:
    if b.contains_zero:
        raise ZeroDivisionError(f"divisor interval {b} contains zero")
    return _t_truediv(a, b)


# ---------------------------------------------------------------------------
# Extended-real helpers.  IEEE ``inf - inf`` and ``0 * inf`` are NaN, which
# would poison the analysis; interval arithmetic instead resolves them to
# the conservative bound (and ``0 * inf = 0``, the standard convention).
# ---------------------------------------------------------------------------


def _add(x: float, y: float, toward: float) -> float:
    """``x + y`` resolving ``inf + -inf`` toward the conservative bound."""
    if math.isinf(x) and math.isinf(y) and x != y:
        return toward
    return x + y


def _mul(x: float, y: float) -> float:
    """``x * y`` with the interval convention ``0 * inf = 0``."""
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _div(x: float, y: float) -> float:
    """``x / y`` for a divisor interval that excludes 0 (``y != 0``)."""
    if math.isinf(x) and math.isinf(y):
        # inf/inf could be anything of that sign; the caller widens to top
        # via the NaN check below, so return NaN deliberately.
        return math.nan
    if math.isinf(y):
        return 0.0
    return x / y


def _corners(vals: list[float]) -> Interval:
    """Interval hull of candidate extremal values, widening on NaN."""
    if any(math.isnan(v) for v in vals):
        return TOP
    return Interval(min(vals), max(vals))


# ---------------------------------------------------------------------------
# Transfer functions: sound bounds of each operation's result.
# ---------------------------------------------------------------------------


def _t_add(a: Interval, b: Interval) -> Interval:
    return Interval(_add(a.lower, b.lower, -_INF), _add(a.upper, b.upper, _INF))


def _t_sub(a: Interval, b: Interval) -> Interval:
    return Interval(_add(a.lower, -b.upper, -_INF), _add(a.upper, -b.lower, _INF))


def _t_mul(a: Interval, b: Interval) -> Interval:
    return _corners(
        [_mul(a.lower, b.lower), _mul(a.lower, b.upper),
         _mul(a.upper, b.lower), _mul(a.upper, b.upper)]
    )


def _t_truediv(a: Interval, b: Interval) -> Interval:
    if b.contains_zero:
        # Division may blow up anywhere; the analysis reports it (UNC101)
        # and stays sound.
        return TOP
    return _corners(
        [_div(a.lower, b.lower), _div(a.lower, b.upper),
         _div(a.upper, b.lower), _div(a.upper, b.upper)]
    )


def _t_neg(a: Interval) -> Interval:
    return Interval(-a.upper, -a.lower)


def _t_abs(a: Interval) -> Interval:
    if a.lower >= 0:
        return a
    if a.upper <= 0:
        return _t_neg(a)
    return Interval(0.0, max(-a.lower, a.upper))


__all__ = ["Interval", "TOP"]
