"""Interval domain unit tests + the sampled-envelope soundness property.

The soundness property is the acceptance criterion for the abstract
interpreter: for *every* binary/unary operator transfer function, the
min/max of a large batch of joint samples must lie inside the inferred
interval.  We drive it over a grid of distributions (bounded, half-
bounded, unbounded, discrete, point masses) crossed with every operator
symbol the library's dunders can produce.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.intervals import (
    BINARY_TRANSFER,
    BOOL,
    FALSE,
    TOP,
    TRUE,
    UNARY_TRANSFER,
    Interval,
    infer_intervals,
)
from repro.core.lifting import lift
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists import Bernoulli, Beta, Exponential, Gaussian, Poisson, Uniform
from repro.rng import default_rng


def _root_interval(value: Uncertain) -> Interval:
    plan = compile_plan(value.node)
    return infer_intervals(plan)[plan.root_slot]


def _assert_envelope(value: Uncertain, n: int = 4_000, seed: int = 0) -> None:
    interval = _root_interval(value)
    samples = np.asarray(value.samples(n, default_rng(seed)), dtype=float)
    finite = samples[np.isfinite(samples)]
    if finite.size == 0:
        return  # all-NaN/inf batches (e.g. log of negatives) have no envelope
    assert finite.min() >= interval.lower - 1e-9, (
        f"sampled min {finite.min()} below inferred lower {interval.lower}"
    )
    assert finite.max() <= interval.upper + 1e-9, (
        f"sampled max {finite.max()} above inferred upper {interval.upper}"
    )


# A representative spread of supports: bounded, unit, half-line, real
# line, discrete, and point.
OPERANDS = {
    "uniform": lambda: Uncertain(Uniform(-2.0, 3.0)),
    "unit": lambda: Uncertain(Beta(2.0, 3.0)),
    "positive": lambda: Uncertain(Exponential(1.0)),
    "real": lambda: Uncertain(Gaussian(0.0, 1.0)),
    "counts": lambda: Uncertain(Poisson(3.0)),
    "point": lambda: Uncertain.pointmass(2.5),
    "negative_point": lambda: Uncertain.pointmass(-1.5),
}

ARITHMETIC = ["+", "-", "*", "/", "//", "%", "**"]
COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]


def _combine(left: Uncertain, right: Uncertain, symbol: str) -> Uncertain:
    ops = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "//": lambda a, b: a // b,
        "%": lambda a, b: a % b,
        "**": lambda a, b: a ** b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }
    return ops[symbol](left, right)


class TestBinaryEnvelopes:
    @pytest.mark.parametrize("symbol", ARITHMETIC + COMPARISONS)
    @pytest.mark.parametrize("left_name", sorted(OPERANDS))
    @pytest.mark.parametrize("right_name", ["uniform", "positive", "point"])
    def test_sampled_envelope_within_interval(self, symbol, left_name, right_name):
        left = OPERANDS[left_name]()
        right = OPERANDS[right_name]()
        if symbol == "**":
            # Restrict to cases numpy can evaluate without complex results;
            # the analysis of NaN-producing pow is covered by UNC102 tests.
            if left_name in ("uniform", "real", "negative_point"):
                right = Uncertain.pointmass(2.0)
        value = _combine(left, right, symbol)
        _assert_envelope(value)

    @pytest.mark.parametrize("symbol", ["and", "or", "xor"])
    def test_logical_envelope(self, symbol):
        a = Uncertain(Gaussian(0, 1)) > 0.0
        b = Uncertain(Uniform(0, 1)) > 0.5
        value = {"and": a & b, "or": a | b, "xor": a ^ b}[symbol]
        _assert_envelope(value)

    def test_shared_subexpression_is_sound_but_imprecise(self):
        # x - x is exactly 0 concretely; the non-relational domain infers a
        # wider interval.  Soundness (0 inside) is required, precision not.
        x = Uncertain(Uniform(0.0, 1.0))
        interval = _root_interval(x - x)
        assert interval.contains(0.0)


class TestUnaryEnvelopes:
    @pytest.mark.parametrize("make", [
        lambda x: -x,
        lambda x: abs(x),
        lambda x: lift(math.sqrt)(abs(x) + 0.1),
        lambda x: lift(math.log)(abs(x) + 0.1),
        lambda x: lift(math.exp)(x),
        lambda x: lift(math.sin)(x),
        lambda x: lift(math.cos)(x),
        lambda x: lift(math.floor)(x),
        lambda x: lift(math.ceil)(x),
        lambda x: lift(math.log10)(abs(x) + 0.1),
        lambda x: lift(math.log2)(abs(x) + 0.1),
        lambda x: lift(math.log1p)(abs(x)),
    ])
    @pytest.mark.parametrize("operand", ["uniform", "positive", "real", "unit"])
    def test_sampled_envelope_within_interval(self, make, operand):
        value = make(OPERANDS[operand]())
        _assert_envelope(value)

    def test_not_envelope(self):
        cond = ~(Uncertain(Gaussian(0, 1)) > 0.0)
        _assert_envelope(cond)


class TestIntervalAlgebra:
    def test_point_and_top(self):
        assert Interval.point(3.0).is_point
        assert TOP.is_top and not TOP.is_bounded
        assert Interval(0.0, 1.0).is_bounded

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_hull(self):
        assert Interval(0, 1).hull(Interval(5, 6)) == Interval(0, 6)

    def test_contains_zero(self):
        assert Interval(-1, 1).contains_zero
        assert not Interval(0.5, 2).contains_zero
        assert Interval(0.0, 2).contains_zero  # boundary counts

    def test_support_round_trip(self):
        # A support is an interval: one class, three exported names.
        from repro.baselines import Interval as BaselineInterval
        from repro.dists import Support

        assert Support is Interval is BaselineInterval
        assert Support(0.0, 5.0) == Interval(0.0, 5.0)

    def test_nonfinite_empirical_support_is_nan(self):
        from repro.dists import Empirical

        dist = Empirical([1.0, float("nan"), 3.0], allow_nonfinite=True)
        support = dist.support
        assert math.isnan(support.lower) and math.isnan(support.upper)
        assert Uncertain(dist).diagnose() == []

    def test_division_by_zero_crossing_is_top(self):
        result = BINARY_TRANSFER["/"](Interval(1, 2), Interval(-1, 1))
        assert result.is_top

    def test_division_by_positive(self):
        result = BINARY_TRANSFER["/"](Interval(2, 4), Interval(1, 2))
        assert result == Interval(1.0, 4.0)

    def test_mod_sign_follows_divisor(self):
        assert BINARY_TRANSFER["%"](TOP, Interval(1, 5)) == Interval(0.0, 5.0)
        assert BINARY_TRANSFER["%"](TOP, Interval(-5, -1)) == Interval(-5.0, 0.0)

    def test_pow_even_exponent_includes_zero(self):
        result = BINARY_TRANSFER["**"](Interval(-2, 3), Interval.point(2.0))
        assert result == Interval(0.0, 9.0)

    def test_pow_negative_base_fractional_exponent_is_top(self):
        result = BINARY_TRANSFER["**"](Interval(-2, 3), Interval.point(0.5))
        assert result.is_top

    def test_comparison_decided(self):
        assert BINARY_TRANSFER["<"](Interval(0, 1), Interval(2, 3)) is TRUE
        assert BINARY_TRANSFER[">"](Interval(0, 1), Interval(2, 3)) is FALSE
        assert BINARY_TRANSFER["<"](Interval(0, 1), Interval(0.5, 3)) is BOOL

    def test_equality_of_identical_points(self):
        assert BINARY_TRANSFER["=="](Interval.point(2), Interval.point(2)) is TRUE
        assert BINARY_TRANSFER["!="](Interval.point(2), Interval.point(2)) is FALSE
        assert BINARY_TRANSFER["=="](Interval(0, 1), Interval(2, 3)) is FALSE

    def test_inf_minus_inf_resolves_conservatively(self):
        result = BINARY_TRANSFER["-"](TOP, TOP)
        assert result.is_top

    def test_unary_abs(self):
        assert UNARY_TRANSFER["abs"](Interval(-3, 2)) == Interval(0.0, 3.0)
        assert UNARY_TRANSFER["abs"](Interval(1, 2)) == Interval(1, 2)
        assert UNARY_TRANSFER["abs"](Interval(-4, -2)) == Interval(2, 4)

    def test_unary_log_of_nonpositive_lower(self):
        result = UNARY_TRANSFER["log"](Interval(-1.0, math.e))
        assert result.lower == -math.inf
        assert result.upper == pytest.approx(1.0)

    def test_unary_sqrt_unbounded_upper_stays_unbounded(self):
        result = UNARY_TRANSFER["sqrt"](Interval(0.0, math.inf))
        assert result == Interval(0.0, math.inf)

    def test_unary_exp_overflow_widens_to_inf(self):
        result = UNARY_TRANSFER["exp"](Interval(0.0, 1e6))
        assert result.upper == math.inf and result.lower == 1.0


class TestTransferAudit:
    """Direct audit of the tricky transfer functions at zero crossings.

    The envelope tests above exercise transfers through whole plans; this
    class hits ``**``, ``//``, ``%``, and ``abs`` head-on with randomized
    operand intervals (biased toward sign changes and zero endpoints) and
    checks every point of a dense concrete grid lands inside the inferred
    interval.
    """

    @staticmethod
    def _random_interval(rng: np.random.Generator) -> Interval:
        kind = rng.integers(0, 5)
        if kind == 0:  # zero-crossing
            return Interval(float(-rng.uniform(0.1, 4)), float(rng.uniform(0.1, 4)))
        if kind == 1:  # touches zero from above
            return Interval(0.0, float(rng.uniform(0.1, 4)))
        if kind == 2:  # touches zero from below
            return Interval(float(-rng.uniform(0.1, 4)), 0.0)
        if kind == 3:  # strictly positive
            lo = float(rng.uniform(0.1, 3))
            return Interval(lo, lo + float(rng.uniform(0.1, 3)))
        hi = float(-rng.uniform(0.05, 3))  # strictly negative
        return Interval(hi - float(rng.uniform(0.1, 3)), hi)

    @staticmethod
    def _grid(interval: Interval, n: int = 41) -> np.ndarray:
        pts = np.linspace(interval.lower, interval.upper, n)
        return np.append(pts, [interval.lower, interval.upper, 0.0]) if (
            interval.contains_zero) else pts

    @pytest.mark.parametrize("symbol", ["//", "%", "**"])
    @pytest.mark.parametrize("seed", range(20))
    def test_binary_transfer_contains_concrete_grid(self, symbol, seed):
        rng = np.random.default_rng(seed)
        left = self._random_interval(rng)
        right = self._random_interval(rng)
        if symbol == "**":
            # Match runtime semantics: float pow of a negative base with a
            # non-integer exponent is NaN, which has no envelope; audit
            # the real-valued region (integer exponents or positive base).
            if left.lower < 0:
                right = Interval.point(float(rng.integers(0, 4)))
        result = BINARY_TRANSFER[symbol](left, right)
        with np.errstate(all="ignore"):
            lx, ly = np.meshgrid(self._grid(left), self._grid(right))
            concrete = {
                "//": lambda a, b: a // b,
                "%": lambda a, b: np.mod(a, b),
                "**": lambda a, b: np.power(a, b),
            }[symbol](lx, ly).ravel()
        finite = concrete[np.isfinite(concrete)]
        if finite.size == 0:
            return
        assert finite.min() >= result.lower - 1e-9, (
            f"{left} {symbol} {right}: concrete min {finite.min()} "
            f"escapes inferred {result}"
        )
        assert finite.max() <= result.upper + 1e-9, (
            f"{left} {symbol} {right}: concrete max {finite.max()} "
            f"escapes inferred {result}"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_abs_transfer_contains_concrete_grid(self, seed):
        rng = np.random.default_rng(seed)
        operand = self._random_interval(rng)
        result = UNARY_TRANSFER["abs"](operand)
        concrete = np.abs(self._grid(operand))
        assert concrete.min() >= result.lower - 1e-12
        assert concrete.max() <= result.upper + 1e-12

    def test_abs_zero_crossing_lower_is_zero(self):
        # The tight answer at a sign change is [0, max(|lo|, hi)], not the
        # naive endpoint image [|hi|, |lo|] hull.
        assert UNARY_TRANSFER["abs"](Interval(-2.0, 5.0)) == Interval(0.0, 5.0)
        assert UNARY_TRANSFER["abs"](Interval(-5.0, 2.0)) == Interval(0.0, 5.0)

    def test_floordiv_zero_crossing_divisor_is_top(self):
        assert BINARY_TRANSFER["//"](Interval(1, 2), Interval(-1, 1)).is_top

    def test_mod_zero_point_divisor(self):
        # x % 0 is NaN at runtime; the transfer must stay sound (any
        # superset of the empty concrete set), not crash.
        result = BINARY_TRANSFER["%"](Interval(1, 2), Interval.point(0.0))
        assert isinstance(result, Interval)

    def test_pow_zero_base_negative_exponent_widens_to_inf(self):
        # 0 ** -1 is inf at runtime: the result must include it.
        result = BINARY_TRANSFER["**"](
            Interval(0.0, 2.0), Interval.point(-1.0))
        assert result.upper == math.inf


class TestSeeding:
    def test_leaf_seeded_from_support(self):
        value = Uncertain(Uniform(2.0, 5.0))
        assert _root_interval(value) == Interval(2.0, 5.0)

    def test_point_mass_seeded_as_point(self):
        assert _root_interval(Uncertain.pointmass(7)) == Interval.point(7.0)

    def test_bool_point_mass(self):
        assert _root_interval(Uncertain.pointmass(True)) is TRUE
        assert _root_interval(Uncertain.pointmass(False)) is FALSE

    def test_non_numeric_point_mass_is_top(self):
        assert _root_interval(Uncertain.pointmass("hello")).is_top

    def test_bernoulli_is_unit_interval(self):
        interval = _root_interval(Uncertain(Bernoulli(0.3)))
        assert interval == Interval(0.0, 1.0)

    def test_opaque_apply_is_top(self):
        value = Uncertain(Uniform(0, 1)).map(lambda v: v * 100, label="mystery")
        assert _root_interval(value).is_top

    def test_recognised_apply_label_uses_transfer(self):
        value = lift(math.sqrt)(Uncertain(Uniform(0.0, 4.0)))
        assert _root_interval(value) == Interval(0.0, 2.0)
