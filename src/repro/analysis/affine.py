"""Affine-form (zonotope) abstract interpretation over compiled plans.

The interval domain in :mod:`repro.analysis.intervals` is non-relational:
it cannot see that the two operands of ``x - x`` are the *same* random
variable, so it infers ``[lo-hi, hi-lo]`` instead of ``[0, 0]``.  This
module layers a second, dependence-tracking domain on top of it.  Each
slot's abstract value is an *affine form*

    ``center + sum(coeffs[s] * eta_s) + residual``

where ``eta_s`` is one *noise symbol* per stochastic leaf slot ``s`` —
the (joint-sample) value drawn at that leaf, ranging over the leaf's
declared support (possibly unbounded) — and ``residual`` is an interval
soundly bounding every term the linear part cannot express.  Because the
coefficients are carried symbolically, linear arithmetic cancels
*exactly*: ``x - x`` has every coefficient equal to zero and concretizes
to ``[0, 0]`` even for a Gaussian with infinite support, and
``(a + b) - a`` keeps exactly ``b``'s support.

Soundness and relative precision are both by construction:

- every transfer function over-approximates the concrete operation
  (multiplication bounds its nonlinear cross term with the interval
  product of the operands' deviations), and
- every result range is *clamped* by the interval domain's answer for
  the same slot (the meet of two sound bounds is sound), so the affine
  range is never wider than the interval range.

Both properties are fuzzed over randomized fig08-style plans in
``tests/analysis/test_affine.py``.

The domain powers graph rules UNC106/UNC107
(:mod:`repro.analysis.diagnostics`), the ``UNC100`` static bound report
in ``Uncertain.diagnose(bounds=True)``, and second-moment reasoning via
:func:`sd_bounds`: for independent leaves,
``sd <= sqrt(sum(c_s**2 * Var[eta_s])) + rad(residual)``, tightened by
Popoviciu's inequality whenever the clamped range is bounded.
"""

from __future__ import annotations

import math

from repro.analysis.intervals import (
    BOOL,
    COMPARISON_SYMBOLS,
    FALSE,
    TRUE,
    Interval,
    infer_intervals,
)
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import EvaluationPlan

_INF = math.inf
_ZERO = Interval(0.0, 0.0)

__all__ = [
    "AffineForm",
    "infer_affine",
    "decide_comparison",
    "leaf_variances",
    "sd_bounds",
]


def _meet(a: Interval, b: Interval) -> Interval:
    """Intersection of two sound bounds (still sound).

    An empty meet can only arise from float-rounding skew between the
    two domains; in that case keep ``b`` (the interval domain's answer),
    which is sound on its own.
    """
    lo = max(a.lower, b.lower)
    hi = min(a.upper, b.upper)
    if lo > hi:
        return b
    return Interval(lo, hi)


def _scaled(iv: Interval, k: float) -> Interval:
    return iv * k if k != 1.0 else iv


class AffineForm:
    """One slot's abstract value: ``center + Σ coeffs[s]·η_s + residual``.

    ``coeffs`` maps stochastic leaf slots to their exact first-order
    coefficients (zeros are dropped); ``range`` is the concretization
    clamped by the interval domain's result for the same slot.
    """

    __slots__ = ("center", "coeffs", "residual", "range")

    def __init__(self, center: float, coeffs: dict[int, float],
                 residual: Interval, range_: Interval) -> None:
        self.center = center
        self.coeffs = coeffs
        self.residual = residual
        self.range = range_

    @classmethod
    def from_interval(cls, interval: Interval) -> "AffineForm":
        """Degenerate form carrying no dependence information."""
        return cls(0.0, {}, interval, interval)

    @classmethod
    def constant(cls, value: float) -> "AffineForm":
        return cls(float(value), {}, _ZERO, Interval(float(value), float(value)))

    @property
    def symbols(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    @property
    def is_linear(self) -> bool:
        return self.residual.is_point and self.residual.lower == 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = "".join(f" + {c!r}*eta{s}" for s, c in sorted(self.coeffs.items()))
        return f"<AffineForm {self.center!r}{terms} + {self.residual!r} in {self.range!r}>"


def _concretize(center: float, coeffs: dict[int, float], residual: Interval,
                symbol_ranges: dict[int, Interval]) -> Interval:
    if not math.isfinite(center):
        return Interval(-_INF, _INF)
    out = Interval(center, center)
    for s, c in coeffs.items():
        out = out + _scaled(symbol_ranges[s], c)
    return out + residual


def _finish(center: float, coeffs: dict[int, float], residual: Interval,
            clamp: Interval, symbol_ranges: dict[int, Interval]) -> AffineForm:
    coeffs = {s: c for s, c in coeffs.items() if c != 0.0}
    if not math.isfinite(center) or any(math.isnan(c) for c in coeffs.values()):
        return AffineForm.from_interval(clamp)
    rng = _meet(_concretize(center, coeffs, residual, symbol_ranges), clamp)
    return AffineForm(center, coeffs, residual, rng)


# -- linear transfer -------------------------------------------------------


def _lin(x: AffineForm, y: AffineForm, sign: float):
    """Exact linear combination ``x + sign*y`` (sign in {+1.0, -1.0})."""
    center = x.center + sign * y.center
    coeffs = dict(x.coeffs)
    for s, c in y.coeffs.items():
        coeffs[s] = coeffs.get(s, 0.0) + sign * c
    residual = x.residual + _scaled(y.residual, sign)
    return center, coeffs, residual


def _aff_mul(x: AffineForm, y: AffineForm, clamp: Interval,
             symbol_ranges: dict[int, Interval]) -> AffineForm:
    cx, cy = x.center, y.center
    if not (math.isfinite(cx) and math.isfinite(cy)):
        return AffineForm.from_interval(clamp)
    coeffs = {s: cy * c for s, c in x.coeffs.items()}
    for s, c in y.coeffs.items():
        coeffs[s] = coeffs.get(s, 0.0) + cx * c
    # x = cx + Dx, y = cy + Dy with Dx = (linear + residual) deviations, so
    # x*y = cx*cy + cx*Dy + cy*Dx + Dx*Dy; the linear parts of cx*Dy and
    # cy*Dx stay symbolic, everything else lands in the residual.
    dx = x.range - cx
    dy = y.range - cy
    residual = _scaled(y.residual, cx) + _scaled(x.residual, cy) + dx * dy
    return _finish(cx * cy, coeffs, residual, clamp, symbol_ranges)


def _aff_scale(x: AffineForm, k: float, clamp: Interval,
               symbol_ranges: dict[int, Interval]) -> AffineForm:
    coeffs = {s: c * k for s, c in x.coeffs.items()}
    return _finish(x.center * k, coeffs, _scaled(x.residual, k),
                   clamp, symbol_ranges)


def decide_comparison(symbol: str, diff_range: Interval) -> Interval:
    """Decide ``left <sym> right`` from a sound range of ``left - right``."""
    lo, hi = diff_range.lower, diff_range.upper
    if symbol == "<":
        return TRUE if hi < 0.0 else FALSE if lo >= 0.0 else BOOL
    if symbol == "<=":
        return TRUE if hi <= 0.0 else FALSE if lo > 0.0 else BOOL
    if symbol == ">":
        return TRUE if lo > 0.0 else FALSE if hi <= 0.0 else BOOL
    if symbol == ">=":
        return TRUE if lo >= 0.0 else FALSE if hi < 0.0 else BOOL
    if symbol == "==":
        if lo == 0.0 == hi:
            return TRUE
        return FALSE if not diff_range.contains_zero else BOOL
    if symbol == "!=":
        if lo == 0.0 == hi:
            return FALSE
        return TRUE if not diff_range.contains_zero else BOOL
    return BOOL


def _aff_compare(symbol: str, x: AffineForm, y: AffineForm, clamp: Interval,
                 symbol_ranges: dict[int, Interval]) -> AffineForm:
    center, coeffs, residual = _lin(x, y, -1.0)
    coeffs = {s: c for s, c in coeffs.items() if c != 0.0}
    diff = _meet(_concretize(center, coeffs, residual, symbol_ranges),
                 x.range - y.range)
    decision = _meet(decide_comparison(symbol, diff), clamp)
    return AffineForm.from_interval(decision)


def _aff_binary(symbol: str, x: AffineForm, y: AffineForm, clamp: Interval,
                symbol_ranges: dict[int, Interval]) -> AffineForm:
    if symbol == "+":
        return _finish(*_lin(x, y, 1.0), clamp, symbol_ranges)
    if symbol == "-":
        return _finish(*_lin(x, y, -1.0), clamp, symbol_ranges)
    if symbol == "*":
        return _aff_mul(x, y, clamp, symbol_ranges)
    if symbol == "/" and y.range.is_point and y.range.lower != 0.0:
        # y's range is a sound point => y is the constant k on every joint
        # sample, so division is an exact linear rescale.
        return _aff_scale(x, 1.0 / y.range.lower, clamp, symbol_ranges)
    if symbol in COMPARISON_SYMBOLS:
        return _aff_compare(symbol, x, y, clamp, symbol_ranges)
    # **, //, %, logical ops, division by a genuinely uncertain divisor:
    # fall back to the (already computed) interval result.
    return AffineForm.from_interval(clamp)


def _aff_unary(label: str, x: AffineForm, clamp: Interval,
               symbol_ranges: dict[int, Interval]) -> AffineForm:
    if label == "neg":
        coeffs = {s: -c for s, c in x.coeffs.items()}
        return _finish(-x.center, coeffs, _scaled(x.residual, -1.0),
                       clamp, symbol_ranges)
    if label in {"abs", "absolute", "fabs"}:
        if x.range.lower >= 0.0:
            return AffineForm(x.center, dict(x.coeffs), x.residual, x.range)
        if x.range.upper <= 0.0:
            coeffs = {s: -c for s, c in x.coeffs.items()}
            return _finish(-x.center, coeffs, _scaled(x.residual, -1.0),
                           clamp, symbol_ranges)
    return AffineForm.from_interval(clamp)


# -- the interpreter -------------------------------------------------------


def infer_affine(plan: EvaluationPlan,
                 intervals: list[Interval] | None = None) -> list[AffineForm]:
    """One :class:`AffineForm` per plan slot, clamped by the interval pass."""
    if intervals is None:
        intervals = infer_intervals(plan)
    forms: list[AffineForm] = [None] * len(plan.steps)  # type: ignore[list-item]
    symbol_ranges: dict[int, Interval] = {}
    for step in plan.steps:
        node, slot = step.node, step.slot
        clamp = intervals[slot]
        if isinstance(node, LeafNode):
            symbol_ranges[slot] = clamp
            forms[slot] = AffineForm(0.0, {slot: 1.0}, _ZERO, clamp)
        elif isinstance(node, PointMassNode):
            forms[slot] = (AffineForm.constant(clamp.lower) if clamp.is_point
                           else AffineForm.from_interval(clamp))
        elif isinstance(node, BinaryOpNode) and len(step.parent_slots) == 2:
            a, b = step.parent_slots
            forms[slot] = _aff_binary(node.label, forms[a], forms[b],
                                      clamp, symbol_ranges)
        elif (isinstance(node, (UnaryOpNode, ApplyNode))
              and len(step.parent_slots) == 1):
            forms[slot] = _aff_unary(node.label, forms[step.parent_slots[0]],
                                     clamp, symbol_ranges)
        else:
            forms[slot] = AffineForm.from_interval(clamp)
    return forms


# -- second moments --------------------------------------------------------


def leaf_variances(plan: EvaluationPlan) -> dict[int, float]:
    """Per-leaf-slot variance: analytic when declared, else Popoviciu.

    A bounded support ``[lo, hi]`` bounds the variance by
    ``((hi - lo) / 2) ** 2``; an unbounded support without a declared
    variance yields ``inf``.
    """
    out: dict[int, float] = {}
    for step in plan.steps:
        node = step.node
        if not isinstance(node, LeafNode):
            continue
        var = _INF
        try:
            var = float(node.dist.variance)
        except Exception:
            try:
                support = node.dist.support
                lo, hi = float(support.lower), float(support.upper)
                if math.isfinite(lo) and math.isfinite(hi):
                    var = ((hi - lo) / 2.0) ** 2
            except Exception:
                pass
        out[step.slot] = var
    return out


def sd_bounds(plan: EvaluationPlan,
              forms: list[AffineForm] | None = None) -> list[float]:
    """A sound standard-deviation upper bound per slot (may be ``inf``).

    Distinct leaves are independent, so the linear part contributes
    ``sqrt(sum(c**2 * Var[eta_s]))``; the residual is a bounded shift
    contributing at most its radius; a bounded clamped range tightens via
    Popoviciu regardless.
    """
    if forms is None:
        forms = infer_affine(plan)
    variances = leaf_variances(plan)
    bounds: list[float] = []
    for form in forms:
        linear_var = 0.0
        for s, c in form.coeffs.items():
            var = variances.get(s, _INF)
            if var == _INF:
                linear_var = _INF
                break
            linear_var += c * c * var
        sd = math.sqrt(linear_var) if linear_var < _INF else _INF
        sd += form.residual.width / 2.0 if form.residual.is_bounded else _INF
        if form.range.is_bounded:
            sd = min(sd, form.range.width / 2.0)
        bounds.append(sd)
    return bounds
