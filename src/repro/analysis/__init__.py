"""Static diagnostics for uncertain computations.

Two complementary passes over the two representations every
``Uncertain`` program has:

1. **Graph diagnostics** (:mod:`repro.analysis.diagnostics`) — interval
   abstract interpretation over a compiled
   :class:`~repro.core.plan.EvaluationPlan`, reporting division by
   zero-crossing supports (UNC101), domain-boundary violations (UNC102),
   statically decided comparisons (UNC103), tautological self-comparisons
   (UNC104), and foldable constant sub-DAGs (UNC105).
2. **Source lint** (:mod:`repro.analysis.lint`) — an AST checker for the
   paper's uncertainty anti-patterns in user code: coercing estimates to
   facts (UNC201), branching on point estimates (UNC202), un-lifted
   ``math.*`` calls (UNC203), implicit conditionals in loops
   (UNC204, opt-in), and chained comparisons on uncertain operands
   (UNC205).

The graph pass layers a dependence-tracking **affine domain**
(:mod:`repro.analysis.affine`) on top of the intervals, which powers the
correlation-aware rules (UNC106, UNC107) and the opt-in static bounds
report (UNC100).  A third pass, **stream-safety certification**
(:mod:`repro.analysis.certify`), proves optimizer rewrites and fused
kernels RNG-stream-equivalent to the reference engine (UNC401 on
failure), so the runtime admits them without executing them.

Entry points: ``python -m repro.analysis`` (CLI),
``Uncertain.diagnose()`` (per-value), and
``evaluation_config(plan_analyzer=warn_on_diagnostics)`` (warn at compile
time).
See ``docs/analysis.md`` for the full rule catalogue.
"""

from repro.analysis.affine import (
    AffineForm,
    infer_affine,
    leaf_variances,
    sd_bounds,
)
from repro.analysis.certify import (
    CertificationRecord,
    DrawEvent,
    certification_records,
    certify_kernel,
    certify_rewrite,
    certify_value,
    plan_draw_sequence,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    UncertaintyWarning,
    analyze,
    analyze_plan,
    inferred_supports,
    warn_on_diagnostics,
)
from repro.analysis.intervals import Interval, infer_intervals
from repro.analysis.lint import (
    LintSummary,
    default_selection,
    lint_paths,
    lint_source,
)
from repro.analysis.report import (
    render_certification_json,
    render_certification_text,
    render_json,
    render_text,
)
from repro.analysis.rules import (
    ALL_RULES,
    CERTIFY_RULES,
    GRAPH_RULES,
    LINT_RULES,
    Rule,
)

__all__ = [
    "AffineForm",
    "CertificationRecord",
    "Diagnostic",
    "DrawEvent",
    "UncertaintyWarning",
    "Interval",
    "Rule",
    "ALL_RULES",
    "CERTIFY_RULES",
    "GRAPH_RULES",
    "LINT_RULES",
    "analyze",
    "analyze_plan",
    "certification_records",
    "certify_kernel",
    "certify_rewrite",
    "certify_value",
    "infer_affine",
    "infer_intervals",
    "inferred_supports",
    "leaf_variances",
    "plan_draw_sequence",
    "sd_bounds",
    "warn_on_diagnostics",
    "lint_source",
    "lint_paths",
    "default_selection",
    "LintSummary",
    "render_text",
    "render_json",
    "render_certification_text",
    "render_certification_json",
]
