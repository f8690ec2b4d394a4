"""Tests for the interval-analysis baseline."""

import math

import pytest

from repro.baselines import Interval


class TestConstruction:
    def test_from_value(self):
        i = Interval.point(3.0)
        assert i.lower == i.upper == 3.0
        assert i.width == 0.0

    def test_from_center(self):
        i = Interval.from_center(5.0, 2.0)
        assert i.lower == 3.0 and i.upper == 7.0
        assert i.midpoint == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval.from_center(0.0, -1.0)
        # Only ``lower > upper`` is rejected: a NaN endpoint is kept, as
        # the support of non-finite data is ``[nan, nan]``.
        assert math.isnan(Interval(float("nan"), 1.0).lower)


class TestArithmetic:
    def test_paper_example(self):
        # "if X = [4, 6], then X/2 = [2, 3]" (Section 6).
        x = Interval(4.0, 6.0)
        half = x / 2.0
        assert half.lower == 2.0 and half.upper == 3.0

    def test_add_sub(self):
        a, b = Interval(1.0, 2.0), Interval(10.0, 20.0)
        assert (a + b) == Interval(11.0, 22.0)
        assert (b - a) == Interval(8.0, 19.0)

    def test_mul_sign_handling(self):
        a = Interval(-2.0, 3.0)
        b = Interval(-1.0, 4.0)
        assert (a * b) == Interval(-8.0, 12.0)

    def test_division_by_zero_straddling(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / Interval(-1.0, 1.0)

    def test_scalar_coercion(self):
        assert (1.0 + Interval(0.0, 1.0)) == Interval(1.0, 2.0)
        assert (10.0 - Interval(1.0, 2.0)) == Interval(8.0, 9.0)
        assert (6.0 / Interval(2.0, 3.0)) == Interval(2.0, 3.0)

    def test_abs(self):
        assert abs(Interval(-3.0, 2.0)) == Interval(0.0, 3.0)
        assert abs(Interval(1.0, 2.0)) == Interval(1.0, 2.0)
        assert abs(Interval(-2.0, -1.0)) == Interval(1.0, 2.0)

    def test_dependency_problem(self):
        # The baseline's known weakness: x - x is not zero.
        x = Interval(4.0, 6.0)
        diff = x - x
        assert diff.width == 4.0  # [-2, 2] — Uncertain<T> gets exactly 0


class TestComparisons:
    def test_tristate(self):
        i = Interval(3.0, 5.0)
        assert i.definitely_greater(2.0)
        assert i.definitely_less(6.0)
        assert not i.definitely_greater(4.0)
        assert i.possibly_greater(4.0)

    def test_no_evidence_available(self):
        # Intervals cannot grade: a threshold inside the interval is simply
        # "possible", regardless of where the mass lies.
        wide = Interval(0.0, 100.0)
        narrow = Interval(49.0, 51.0)
        assert wide.possibly_greater(50.0) == narrow.possibly_greater(50.0)

    def test_contains(self):
        assert Interval(1.0, 2.0).contains(1.5)
        assert not Interval(1.0, 2.0).contains(2.5)
