"""Interval abstract interpretation over compiled evaluation plans.

Every distribution in :mod:`repro.dists` declares a closed support, an
:class:`~repro.interval.Interval`; every compiled
:class:`~repro.core.plan.EvaluationPlan` is a flat, topologically ordered
slot program.  Together they make a textbook abstract interpretation
possible: seed each leaf slot with its distribution's support, then push
intervals forward through one transfer function per operator symbol.  The
result is a *sound over-approximation* of every slot's reachable values —
if the abstract interpreter says slot 7 lies in ``[0, 2]``, no concrete
joint sample can ever put it outside ``[0, 2]``.

Soundness is the property the diagnostics in
:mod:`repro.analysis.diagnostics` rely on: "the divisor's interval
contains 0" is a *may* warning, while "the threshold lies outside the
operand's interval" is a *must* fact (the comparison is statically
decidable).  The property tests in ``tests/analysis/test_intervals.py``
check the envelope claim directly: sampled min/max of every op always
falls inside the inferred interval.

Precision notes:

- Shared subexpressions share slots, so ``x - x`` still infers the naive
  ``[lo-hi, hi-lo]`` rather than ``[0, 0]``: intervals are non-relational.
  That loses precision but never soundness.
- :class:`~repro.core.graph.ApplyNode` is an arbitrary lifted function;
  we fall back to top unless its label names a well-known unary function
  (``sqrt``, ``log``, ``exp``, ...) — which is exactly what
  ``lift(math.sqrt)`` produces.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import EvaluationPlan
from repro.interval import (
    TOP,
    Interval,
    _corners,
    _t_abs,
    _t_add,
    _t_mul,
    _t_neg,
    _t_sub,
    _t_truediv,
)

_INF = math.inf

#: Booleans embed as ``[0, 1]``: ``[0, 0]`` is definitely false and
#: ``[1, 1]`` definitely true.
TRUE = Interval(1.0, 1.0)
FALSE = Interval(0.0, 0.0)
BOOL = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Binary transfer functions, keyed by the operator symbol that
# ``Uncertain``'s dunders record on the node label.  ``+ - * /`` and the
# unary ``neg``/``abs`` are the interval type's own arithmetic
# (:mod:`repro.interval`).
# ---------------------------------------------------------------------------


def _floor(x: float) -> float:
    return x if math.isinf(x) else float(math.floor(x))


def _t_floordiv(a: Interval, b: Interval) -> Interval:
    quotient = _t_truediv(a, b)
    if quotient.is_top:
        return TOP
    return Interval(_floor(quotient.lower), _floor(quotient.upper))


def _t_mod(a: Interval, b: Interval) -> Interval:
    if b.contains_zero:
        return TOP
    # Python/numpy ``%`` takes the divisor's sign and |result| < |divisor|.
    if b.lower > 0:
        return Interval(0.0, b.upper)
    return Interval(b.lower, 0.0)


def _is_integer_point(b: Interval) -> bool:
    return b.is_point and float(b.lower).is_integer()


def _pow_corner(base: float, exp: float) -> float:
    try:
        result = base ** exp
    except (OverflowError, ZeroDivisionError):
        return _INF
    if isinstance(result, complex):
        return math.nan
    return float(result)


def _t_pow(a: Interval, b: Interval) -> Interval:
    if a.lower >= 0:
        corners = [
            _pow_corner(a.lower, b.lower), _pow_corner(a.lower, b.upper),
            _pow_corner(a.upper, b.lower), _pow_corner(a.upper, b.upper),
        ]
        # 0**negative diverges; x**y for x in (0,1) peaks at the exponent
        # extremes already covered by the corners.  1 is an interior
        # extremum when the exponent spans a sign change.
        if b.lower < 0 < b.upper:
            corners.append(1.0)
        if a.lower == 0 and b.lower < 0:
            corners.append(_INF)
        return _corners(corners)
    if _is_integer_point(b):
        p = float(b.lower)
        corners = [_pow_corner(a.lower, p), _pow_corner(a.upper, p)]
        if p >= 0 and p % 2 == 0 and a.contains_zero:
            corners.append(0.0)
        if p < 0:
            # Negative base to a negative power: poles only at 0, which a
            # negative-crossing base interval contains.
            if a.contains_zero:
                return TOP
            corners = [_pow_corner(a.lower, p), _pow_corner(a.upper, p)]
        return _corners(corners)
    # Negative base with a non-integer (or uncertain) exponent: NaN-land.
    # UNC102 reports it; abstractly we know nothing.
    return TOP


def _definitely(result: bool) -> Interval:
    return TRUE if result else FALSE


def _t_lt(a: Interval, b: Interval) -> Interval:
    if a.upper < b.lower:
        return TRUE
    if a.lower >= b.upper:
        return FALSE
    return BOOL


def _t_le(a: Interval, b: Interval) -> Interval:
    if a.upper <= b.lower:
        return TRUE
    if a.lower > b.upper:
        return FALSE
    return BOOL


def _t_gt(a: Interval, b: Interval) -> Interval:
    return _t_lt(b, a)


def _t_ge(a: Interval, b: Interval) -> Interval:
    return _t_le(b, a)


def _t_eq(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point and a.lower == b.lower:
        return TRUE
    if a.upper < b.lower or b.upper < a.lower:
        return FALSE
    return BOOL


def _t_ne(a: Interval, b: Interval) -> Interval:
    result = _t_eq(a, b)
    if result is TRUE:
        return FALSE
    if result is FALSE:
        return TRUE
    return BOOL


def _truthy(a: Interval) -> bool | None:
    """Definite truth value of an interval, or None if undecided."""
    if not a.contains_zero:
        return True
    if a.lower == 0.0 == a.upper:
        return False
    return None


def _t_and(a: Interval, b: Interval) -> Interval:
    ta, tb = _truthy(a), _truthy(b)
    if ta is False or tb is False:
        return FALSE
    if ta is True and tb is True:
        return TRUE
    return BOOL


def _t_or(a: Interval, b: Interval) -> Interval:
    ta, tb = _truthy(a), _truthy(b)
    if ta is True or tb is True:
        return TRUE
    if ta is False and tb is False:
        return FALSE
    return BOOL


def _t_xor(a: Interval, b: Interval) -> Interval:
    ta, tb = _truthy(a), _truthy(b)
    if ta is None or tb is None:
        return BOOL
    return _definitely(ta != tb)


BINARY_TRANSFER: dict[str, Callable[[Interval, Interval], Interval]] = {
    "+": _t_add,
    "-": _t_sub,
    "*": _t_mul,
    "/": _t_truediv,
    "//": _t_floordiv,
    "%": _t_mod,
    "**": _t_pow,
    "<": _t_lt,
    "<=": _t_le,
    ">": _t_gt,
    ">=": _t_ge,
    "==": _t_eq,
    "!=": _t_ne,
    "and": _t_and,
    "or": _t_or,
    "xor": _t_xor,
}

#: Comparison symbols — the ops whose result is evidence (UncertainBool).
COMPARISON_SYMBOLS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: Division-like symbols whose right operand must exclude zero.
DIVISION_SYMBOLS = frozenset({"/", "//", "%"})


# ---------------------------------------------------------------------------
# Unary transfer functions.  Keyed by symbol; ``lift(math.sqrt)`` builds an
# ApplyNode labelled "sqrt", so the same table serves recognised applies.
# ---------------------------------------------------------------------------


def _t_not(a: Interval) -> Interval:
    t = _truthy(a)
    if t is None:
        return BOOL
    return _definitely(not t)


def _t_sqrt(a: Interval) -> Interval:
    # Operand values below 0 yield NaN at runtime; the abstract result
    # describes the non-NaN outcomes (UNC102 reports the violation).
    lo = max(a.lower, 0.0)
    hi = max(a.upper, 0.0)
    return Interval(math.sqrt(lo), _INF if math.isinf(hi) else math.sqrt(hi))


def _t_log(a: Interval) -> Interval:
    lo = -_INF if a.lower <= 0 else math.log(a.lower)
    hi = _INF if math.isinf(a.upper) else (math.log(a.upper) if a.upper > 0 else -_INF)
    if hi < lo:
        return TOP
    return Interval(lo, hi)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _t_exp(a: Interval) -> Interval:
    lo = 0.0 if a.lower == -_INF else _safe_exp(a.lower)
    hi = _INF if a.upper == _INF else _safe_exp(a.upper)
    return Interval(lo, hi)


def _t_sin(a: Interval) -> Interval:
    # Phase tracking is not worth the complexity; the range bound alone
    # already lets downstream ops stay finite.
    return Interval(-1.0, 1.0)


def _t_floor_u(a: Interval) -> Interval:
    return Interval(_floor(a.lower), _floor(a.upper))


def _ceil(x: float) -> float:
    return x if math.isinf(x) else float(math.ceil(x))


def _t_ceil_u(a: Interval) -> Interval:
    return Interval(_ceil(a.lower), _ceil(a.upper))


UNARY_TRANSFER: dict[str, Callable[[Interval], Interval]] = {
    "neg": _t_neg,
    "abs": _t_abs,
    "absolute": _t_abs,  # np.abs.__name__
    "fabs": _t_abs,
    "not": _t_not,
    "sqrt": _t_sqrt,
    "log": _t_log,
    "log2": lambda a: _scale_log(a, math.log(2.0)),
    "log10": lambda a: _scale_log(a, math.log(10.0)),
    "log1p": lambda a: _t_log(_t_add(a, Interval(1.0, 1.0))),
    "exp": _t_exp,
    "sin": _t_sin,
    "cos": _t_sin,
    "floor": _t_floor_u,
    "ceil": _t_ceil_u,
}


def _scale_log(a: Interval, base_log: float) -> Interval:
    inner = _t_log(a)
    if inner.is_top:
        return TOP
    return Interval(inner.lower / base_log, inner.upper / base_log)


#: Symbols with a restricted real domain, mapped to a predicate over the
#: operand interval that is True when the interval *escapes* the domain
#: (so runtime samples can produce NaN/-inf).  Used by rule UNC102.
DOMAIN_BOUNDARIES: dict[str, Callable[[Interval], bool]] = {
    "sqrt": lambda a: a.lower < 0,
    "log": lambda a: a.lower <= 0,
    "log2": lambda a: a.lower <= 0,
    "log10": lambda a: a.lower <= 0,
    "log1p": lambda a: a.lower <= -1,
}


# ---------------------------------------------------------------------------
# The abstract interpreter proper: one forward pass over the plan.
# ---------------------------------------------------------------------------


def _leaf_interval(node: LeafNode) -> Interval:
    try:
        support = node.dist.support
    except NotImplementedError:
        return TOP
    return Interval(float(support.lower), float(support.upper))


def _point_interval(node: PointMassNode) -> Interval:
    value = node.value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, (int, float)) and math.isfinite(float(value)):
        return Interval.point(float(value))
    return TOP


def infer_intervals(plan: EvaluationPlan) -> list[Interval]:
    """Infer one sound interval per plan slot (indexed like ``plan.steps``).

    Leaves are seeded from ``Distribution.support`` / point-mass values;
    inner slots apply the transfer function matching their operator
    symbol; anything unrecognised (``ApplyNode`` with an unknown label,
    exotic node classes) widens to top.
    """
    intervals: list[Interval] = [TOP] * len(plan.steps)
    for step in plan.steps:
        node = step.node
        if isinstance(node, LeafNode):
            intervals[step.slot] = _leaf_interval(node)
        elif isinstance(node, PointMassNode):
            intervals[step.slot] = _point_interval(node)
        elif isinstance(node, BinaryOpNode):
            transfer = BINARY_TRANSFER.get(node.label)
            if transfer is not None:
                a, b = (intervals[s] for s in step.parent_slots)
                intervals[step.slot] = transfer(a, b)
        elif isinstance(node, (UnaryOpNode, ApplyNode)) and len(step.parent_slots) == 1:
            transfer = UNARY_TRANSFER.get(node.label)
            if transfer is not None:
                intervals[step.slot] = transfer(intervals[step.parent_slots[0]])
        # Everything else stays top.
    return intervals
