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

from repro._lazy import lazy_exports

_LAZY = {
    "AffineForm": "repro.analysis.affine",
    "infer_affine": "repro.analysis.affine",
    "leaf_variances": "repro.analysis.affine",
    "sd_bounds": "repro.analysis.affine",
    "CertificationRecord": "repro.analysis.certify",
    "DrawEvent": "repro.analysis.certify",
    "certification_records": "repro.analysis.certify",
    "certify_kernel": "repro.analysis.certify",
    "certify_rewrite": "repro.analysis.certify",
    "certify_value": "repro.analysis.certify",
    "plan_draw_sequence": "repro.analysis.certify",
    "Diagnostic": "repro.analysis.diagnostics",
    "UncertaintyWarning": "repro.analysis.diagnostics",
    "analyze": "repro.analysis.diagnostics",
    "analyze_plan": "repro.analysis.diagnostics",
    "inferred_supports": "repro.analysis.diagnostics",
    "warn_on_diagnostics": "repro.analysis.diagnostics",
    "Interval": "repro.analysis.intervals",
    "infer_intervals": "repro.analysis.intervals",
    "LintSummary": "repro.analysis.lint",
    "default_selection": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "render_certification_json": "repro.analysis.report",
    "render_certification_text": "repro.analysis.report",
    "render_json": "repro.analysis.report",
    "render_text": "repro.analysis.report",
    "ALL_RULES": "repro.analysis.rules",
    "CERTIFY_RULES": "repro.analysis.rules",
    "GRAPH_RULES": "repro.analysis.rules",
    "LINT_RULES": "repro.analysis.rules",
    "Rule": "repro.analysis.rules",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = list(_LAZY)
