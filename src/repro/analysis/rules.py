"""The rule catalogue shared by both static passes.

``UNC1xx`` rules are graph diagnostics produced by abstract interpretation
of a compiled plan (:mod:`repro.analysis.diagnostics`); ``UNC2xx`` rules
are source-level lints produced by the AST checker
(:mod:`repro.analysis.lint`); ``UNC3xx`` rules are runtime findings
produced by probing a plan with actual samples
(``Uncertain.diagnose(samples=...)`` via :mod:`repro.resilience`).
``docs/analysis.md`` is the narrative catalogue; this module is the
machine-readable one.
"""

from __future__ import annotations

import dataclasses

#: Severities, in increasing order of concern.
INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITY_ORDER = {INFO: 0, WARNING: 1, ERROR: 2}


def severity_at_least(severity: str, floor: str) -> bool:
    return _SEVERITY_ORDER[severity] >= _SEVERITY_ORDER[floor]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One diagnosable uncertainty-bug pattern."""

    id: str
    severity: str
    title: str
    #: True for rules that only run when explicitly selected.
    opt_in: bool = False


GRAPH_RULES = {
    "UNC100": Rule("UNC100", INFO,
                   "static bound report: affine-inferred support and "
                   "standard-deviation upper bound for a slot",
                   opt_in=True),
    "UNC101": Rule("UNC101", ERROR,
                   "division by a quantity whose support contains zero"),
    "UNC102": Rule("UNC102", ERROR,
                   "domain-restricted function applied to a support crossing "
                   "its domain boundary"),
    "UNC103": Rule("UNC103", WARNING,
                   "comparison is statically decidable: Pr is provably 0 or "
                   "1, so the hypothesis test is wasted work"),
    "UNC104": Rule("UNC104", WARNING,
                   "tautological self-comparison of a shared node"),
    "UNC105": Rule("UNC105", INFO,
                   "constant (point-mass-only) sub-DAG: a re-evaluation "
                   "cost on every joint sample"),
    "UNC106": Rule("UNC106", WARNING,
                   "correlation-collapsed comparison: decided by the "
                   "dependence-tracking affine domain but invisible to "
                   "intervals, so the hypothesis test is wasted work"),
    "UNC107": Rule("UNC107", WARNING,
                   "spurious independence: structurally identical operand "
                   "sub-DAGs built from disjoint stochastic leaves, "
                   "typically a reconstruction of a value that should "
                   "share its ancestors"),
}

RUNTIME_RULES = {
    "UNC301": Rule("UNC301", WARNING,
                   "plan slot produced non-finite samples in a runtime "
                   "probe; see repro.resilience for policies"),
}

LINT_RULES = {
    "UNC201": Rule("UNC201", ERROR,
                   "float()/int()/bool() coercion collapses an uncertain "
                   "value to a fact"),
    "UNC202": Rule("UNC202", WARNING,
                   "branching on expected_value() treats an estimate as a "
                   "fact; compare the uncertain value and branch on evidence"),
    "UNC203": Rule("UNC203", WARNING,
                   "math.* call on an uncertain operand; use "
                   "repro.lift(math.fn) so uncertainty propagates"),
    "UNC204": Rule("UNC204", INFO,
                   "implicit conditional inside a loop; prefer an explicit "
                   ".pr(alpha) with a stated evidence threshold",
                   opt_in=True),
    "UNC205": Rule("UNC205", ERROR,
                   "chained comparison on an uncertain operand desugars "
                   "through an implicit bool(); write (a < x) & (x < b)"),
}

#: ``UNC4xx`` rules are compiler-certification findings produced by the
#: static stream-safety certifier (:mod:`repro.analysis.certify`).
CERTIFY_RULES = {
    "UNC401": Rule("UNC401", ERROR,
                   "fused kernel could not be certified "
                   "stream-safe: its RNG consumption sequence is not "
                   "provably identical to the reference plan"),
}

ALL_RULES = {**GRAPH_RULES, **RUNTIME_RULES, **LINT_RULES, **CERTIFY_RULES}
