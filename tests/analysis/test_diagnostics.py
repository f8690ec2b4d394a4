"""Positive and negative tests for every graph rule (UNC101-UNC105),
plus the library wiring: ``Uncertain.diagnose()``, the ``analyze=``
compile hook, and ``evaluation_config(plan_analyzer=warn_on_diagnostics)``."""

from __future__ import annotations

import math
import warnings

import pytest

from repro.analysis import (
    Diagnostic,
    UncertaintyWarning,
    analyze,
    analyze_plan,
    inferred_supports,
    warn_on_diagnostics,
)
from repro.core.conditionals import evaluation_config
from repro.core.lifting import lift
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists import Exponential, Gaussian, Uniform


def rules_of(value) -> list[str]:
    return [d.rule for d in analyze(value)]


class TestUNC101Division:
    def test_positive_truediv(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
        assert rules_of(bad) == ["UNC101"]

    def test_positive_floordiv_and_mod(self):
        zero_crossing = Uncertain(Uniform(-1, 1))
        assert rules_of(Uncertain(Uniform(0, 10)) // zero_crossing) == ["UNC101"]
        assert rules_of(Uncertain(Uniform(0, 10)) % zero_crossing) == ["UNC101"]

    def test_positive_divisor_touching_zero(self):
        # A support with lower == 0 still contains 0.
        assert rules_of(1.0 / Uncertain(Uniform(0.0, 1.0))) == ["UNC101"]

    def test_negative_positive_divisor(self):
        safe = Uncertain(Uniform(0, 10)) / Uncertain(Uniform(1.0, 2.0))
        assert rules_of(safe) == []

    def test_negative_exponential_shifted(self):
        safe = 1.0 / (Uncertain(Exponential(1.0)) + 1.0)
        assert rules_of(safe) == []

    def test_diagnostic_payload(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Uniform(-2.0, 3.0))
        (diag,) = analyze(bad)
        assert diag.severity == "error"
        assert diag.data["divisor_support"] == [-2.0, 3.0]
        assert diag.node_label == "/"
        assert "contains 0" in diag.message


class TestUNC102Domains:
    def test_positive_log(self):
        bad = lift(math.log)(Uncertain(Gaussian(2.0, 1.0)))
        assert rules_of(bad) == ["UNC102"]

    def test_positive_sqrt(self):
        bad = lift(math.sqrt)(Uncertain(Uniform(-1.0, 4.0)))
        assert rules_of(bad) == ["UNC102"]

    def test_positive_fractional_pow(self):
        bad = Uncertain(Uniform(-1.0, 4.0)) ** 0.5
        assert rules_of(bad) == ["UNC102"]

    def test_negative_log_of_positive(self):
        safe = lift(math.log)(Uncertain(Exponential(1.0)) + 1.0)
        assert rules_of(safe) == []

    def test_negative_sqrt_of_nonnegative(self):
        safe = lift(math.sqrt)(Uncertain(Uniform(0.0, 4.0)))
        assert rules_of(safe) == []

    def test_negative_integer_pow_of_negative_base(self):
        safe = Uncertain(Uniform(-2.0, 2.0)) ** 2
        assert rules_of(safe) == []


class TestUNC103DecidedComparisons:
    def test_positive_always_false(self):
        decided = Uncertain(Uniform(0.0, 1.0)) > 2.0
        (diag,) = analyze(decided)
        assert diag.rule == "UNC103"
        assert diag.data["decided"] is False
        assert diag.severity == "warning"

    def test_positive_always_true(self):
        decided = Uncertain(Uniform(3.0, 4.0)) > 2.0
        (diag,) = analyze(decided)
        assert diag.rule == "UNC103" and diag.data["decided"] is True

    def test_positive_between_disjoint_supports(self):
        decided = Uncertain(Uniform(0, 1)) < Uncertain(Uniform(5, 6))
        assert rules_of(decided) == ["UNC103"]

    def test_negative_overlapping(self):
        undecided = Uncertain(Uniform(0.0, 3.0)) > 2.0
        assert rules_of(undecided) == []

    def test_negative_gaussian_never_decided(self):
        assert rules_of(Uncertain(Gaussian(0, 1)) > 1e9) == []


class TestUNC104SelfComparison:
    def test_positive_eq(self):
        x = Uncertain(Gaussian(0, 1))
        (diag,) = analyze(x == x)
        assert diag.rule == "UNC104" and diag.data["decided"] is True

    def test_positive_lt_always_false(self):
        x = Uncertain(Gaussian(0, 1))
        (diag,) = analyze(x < x)
        assert diag.rule == "UNC104" and diag.data["decided"] is False

    def test_negative_distinct_nodes_same_distribution(self):
        # Two independent Gaussians are NOT a self-comparison.
        a = Uncertain(Gaussian(0, 1))
        b = Uncertain(Gaussian(0, 1))
        assert rules_of(a == b) == []

    def test_self_comparison_not_double_reported_as_unc103(self):
        x = Uncertain.pointmass(2.0)
        rules = [d.rule for d in analyze(x == x)]
        assert "UNC104" in rules
        assert "UNC103" not in rules  # self-comparison owns the finding
        # (UNC105 legitimately fires too: the whole graph is constant.)


class TestUNC105ConstantFolding:
    def test_positive_constant_subdag(self):
        const = Uncertain.pointmass(3600.0) / Uncertain.pointmass(1609.344)
        speed = Uncertain(Gaussian(1.5, 0.3)) * const
        (diag,) = analyze(speed)
        assert diag.rule == "UNC105"
        assert diag.data["slots_saved"] == 2
        assert diag.severity == "info"

    def test_positive_reports_maximal_node_only(self):
        c = (Uncertain.pointmass(2.0) + 1.0) * 3.0
        mixed = Uncertain(Gaussian(0, 1)) + c
        diags = [d for d in analyze(mixed) if d.rule == "UNC105"]
        assert len(diags) == 1
        assert diags[0].node_label == "*"
        assert diags[0].data["slots_saved"] == 4

    def test_positive_constant_root(self):
        const = (Uncertain.pointmass(1.0) + 2.0) * 3.0
        diags = [d for d in analyze(const) if d.rule == "UNC105"]
        assert len(diags) == 1

    def test_negative_bare_point_mass(self):
        assert rules_of(Uncertain.pointmass(5.0)) == []

    def test_negative_mixed_subdag(self):
        value = Uncertain(Gaussian(0, 1)) + 1.0
        assert rules_of(value) == []


class TestUNC106CorrelatedComparisons:
    def test_positive_shared_gaussian_shift(self):
        # Interval analysis sees TOP > TOP; the affine domain cancels the
        # shared symbol and proves the comparison — the acceptance case.
        x = Uncertain(Gaussian(0, 1))
        diags = [d for d in analyze((x + 1.0) > x) if d.rule == "UNC106"]
        assert len(diags) == 1
        assert diags[0].data["decided"] is True
        assert diags[0].data["shared_leaf_slots"]
        assert diags[0].severity == "warning"

    def test_positive_shared_ancestor_difference(self):
        a = Uncertain(Gaussian(0, 1))
        b = Uncertain(Uniform(1.0, 2.0))
        diags = [d for d in analyze((a + b) - a > 0.5)
                 if d.rule == "UNC106"]
        assert len(diags) == 1 and diags[0].data["decided"] is True

    def test_negative_interval_decided_owns_the_finding(self):
        # When intervals already decide, UNC103 fires — not UNC106.
        decided = Uncertain(Uniform(0, 1)) > 2.0
        rules = rules_of(decided)
        assert "UNC103" in rules and "UNC106" not in rules

    def test_negative_self_comparison_owned_by_unc104(self):
        x = Uncertain(Gaussian(0, 1))
        rules = rules_of(x == x)
        assert "UNC104" in rules and "UNC106" not in rules

    def test_negative_independent_operands(self):
        a = Uncertain(Gaussian(0, 1))
        b = Uncertain(Gaussian(0, 1))
        assert "UNC106" not in rules_of(a > b)


class TestUNC107SpuriousIndependence:
    def test_positive_reconstructed_subexpression(self):
        lhs = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        rhs = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        diags = [d for d in analyze(lhs > rhs) if d.rule == "UNC107"]
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert diags[0].data["left_leaf_slots"] != diags[0].data[
            "right_leaf_slots"]

    def test_positive_on_subtraction(self):
        lhs = Uncertain(Gaussian(0, 1)) * 2.0
        rhs = Uncertain(Gaussian(0, 1)) * 2.0
        assert "UNC107" in rules_of(lhs - rhs)

    def test_negative_bare_leaf_pair(self):
        # Two iid leaves compared directly are idiomatic (two independent
        # measurements), not a reconstruction smell.
        a = Uncertain(Gaussian(0, 1))
        b = Uncertain(Gaussian(0, 1))
        assert rules_of(a == b) == []

    def test_negative_shared_subexpression(self):
        shared = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        assert "UNC107" not in rules_of(shared > shared + 1.0)

    def test_negative_structurally_different_operands(self):
        lhs = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        rhs = Uncertain(Gaussian(0, 1)) * Uncertain(Uniform(0, 0.5))
        assert "UNC107" not in rules_of(lhs > rhs)

    @pytest.mark.parametrize("left, right", [
        (Gaussian(0, 1), Gaussian(50, 3)),
        (Uniform(0, 1), Uniform(2, 5)),
        (Exponential(1.0), Exponential(4.0)),
    ], ids=["gaussian", "uniform", "exponential"])
    def test_negative_differently_parameterised_operands(self, left, right):
        # Same program, other values: two different quantities, not one
        # rebuilt.  The shape key drops these leaves' values, the check
        # must not.
        assert "UNC107" not in rules_of(
            Uncertain(left) * 2.0 - Uncertain(right) * 2.0)

    def test_negative_addition_of_iid_terms(self):
        # Summing iid terms is the normal idiom; only comparison-like ops
        # (and - and /) suggest the operands were meant to be one value.
        lhs = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        rhs = Uncertain(Gaussian(0, 1)) + Uncertain(Uniform(0, 0.5))
        assert "UNC107" not in rules_of(lhs + rhs)


class TestAnalyzeEntryPoints:
    def test_analyze_accepts_uncertain_and_node(self):
        x = Uncertain(Uniform(0, 1)) / Uncertain(Uniform(-1, 1))
        assert [d.rule for d in analyze(x.node)] == [d.rule for d in analyze(x)]

    def test_analyze_rejects_other_types(self):
        with pytest.raises(TypeError):
            analyze(42)

    def test_diagnose_method(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
        diags = bad.diagnose()
        assert [d.rule for d in diags] == ["UNC101"]
        assert all(isinstance(d, Diagnostic) for d in diags)

    def test_diagnose_clean_graph(self):
        assert (Uncertain(Gaussian(0, 1)) + 1.0).diagnose() == []

    def test_inferred_supports_exposes_every_node(self):
        x = Uncertain(Uniform(2.0, 3.0))
        y = x + 1.0
        supports = inferred_supports(y)
        assert supports[x.node.uid].lower == 2.0
        assert supports[y.node.uid].lower == 3.0
        assert supports[y.node.uid].upper == 4.0

    def test_as_dict_round_trip(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
        (diag,) = analyze(bad)
        payload = diag.as_dict()
        assert payload["rule"] == "UNC101"
        assert payload["slot"] == diag.slot
        assert "path" not in payload


class TestCompileHook:
    def test_analyze_hook_called_once_per_fresh_compile(self):
        calls = []
        x = (Uncertain(Gaussian(0, 1)) + 1.0).node
        compile_plan(x, analyze=calls.append)
        compile_plan(x, analyze=calls.append)  # cache hit: no re-analysis
        assert len(calls) == 1

    def test_warn_on_diagnostics_warns_for_errors(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
        with pytest.warns(UncertaintyWarning, match="UNC101"):
            warn_on_diagnostics(compile_plan(bad.node))

    def test_warn_on_diagnostics_silent_below_floor(self):
        decided = Uncertain(Uniform(0, 1)) > 2.0  # warning-severity only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = warn_on_diagnostics(compile_plan(decided.node))
        assert [d.rule for d in diags] == ["UNC103"]

    def test_enable_plan_analysis_end_to_end(self):
        with evaluation_config(plan_analyzer=warn_on_diagnostics):
            bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
            with pytest.warns(UncertaintyWarning, match="UNC101"):
                bad.samples(10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # cache hit: must stay silent
                bad.samples(10)

    def test_enable_plan_analysis_covers_conditional_path(self):
        # bool() compiles its plan inside the SPRT path, not in a
        # samples() call — the analyzer must fire on that compile too.
        with evaluation_config(plan_analyzer=warn_on_diagnostics):
            cond = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1)) > 0.0
            with pytest.warns(UncertaintyWarning, match="UNC101"):
                bool(cond)

    def test_analysis_off_by_default(self):
        with evaluation_config() as cfg:
            assert cfg.plan_analyzer is None
            bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bad.samples(10)


class TestAnalyzePlanOrdering:
    def test_multiple_findings_sorted_by_slot(self):
        zero_crossing = Uncertain(Gaussian(0, 1))
        bad = (Uncertain(Uniform(0, 1)) / zero_crossing) + (
            lift(math.log)(zero_crossing)
        )
        rules = [d.rule for d in analyze(bad)]
        assert sorted(rules) == ["UNC101", "UNC102"]
        diags = analyze(bad)
        assert diags == sorted(diags, key=lambda d: (d.slot, d.rule))

    def test_analyze_plan_matches_analyze(self):
        bad = Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1, 1))
        assert [d.rule for d in analyze_plan(compile_plan(bad.node))] == ["UNC101"]
