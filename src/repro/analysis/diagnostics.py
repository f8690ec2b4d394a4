"""Pass 1: graph diagnostics over a compiled evaluation plan.

:func:`analyze_plan` runs the interval abstract interpreter
(:mod:`repro.analysis.intervals`) over an
:class:`~repro.core.plan.EvaluationPlan` and reports the uncertainty bugs
that are visible *before any sampling runs*:

- **UNC101** — ``/``, ``//`` or ``%`` whose divisor's support contains 0:
  joint samples will silently produce ``inf``/NaN (the paper's Section 2
  "silently compounding error" bug, in its sharpest form).
- **UNC102** — ``log``/``sqrt``-family functions whose operand support
  crosses the domain boundary, so some samples are NaN.
- **UNC103** — a comparison whose operands' supports are ordered or
  disjoint: ``Pr[cond]`` is provably 0 or 1, so the SPRT at every
  conditional on it is wasted work (and an explicit ``.pr(alpha)`` can
  never change the answer).
- **UNC104** — a self-comparison of the *same* node (``x == x``):
  shared-variable semantics (Figure 8) make it a tautology.
- **UNC105** — a sub-DAG built only from point masses: every joint sample
  recomputes a constant; computing it in Python before lifting it would
  shrink the plan (reported with the estimated slot saving).
- **UNC106** — a comparison the interval domain reports as undecided but
  the affine (dependence-tracking) domain decides: correlation between
  the operands collapses the difference to one side of zero, so the SPRT
  is wasted work and only visible as such with dependence tracking.
- **UNC107** — spurious independence: the two operands of a comparison,
  ``-`` or ``/`` are *structurally identical* sub-DAGs drawing from
  *disjoint* stochastic leaves — almost always a reconstruction of a
  value that was meant to share its ancestors (the inverse of the
  Figure 8 bug).

Diagnostics are data, not text: the same records feed the text/JSON
reporters, ``Uncertain.diagnose()``, and the opt-in compile-time hook
(:func:`warn_on_diagnostics`).
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any

from repro.analysis.intervals import (
    BOOL,
    COMPARISON_SYMBOLS,
    DIVISION_SYMBOLS,
    DOMAIN_BOUNDARIES,
    Interval,
    infer_intervals,
)
from repro.analysis.rules import ALL_RULES, ERROR, severity_at_least
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import EvaluationPlan, compile_plan


class UncertaintyWarning(UserWarning):
    """Runtime warning carrying a compile-time uncertainty diagnostic."""


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding from either static pass.

    Graph diagnostics carry ``slot``/``node_uid``/``node_label``; source
    lints carry ``path``/``line``/``col``.  ``data`` holds rule-specific
    structured extras (intervals, estimated savings, ...).
    """

    rule: str
    severity: str
    message: str
    # -- graph pass location -----------------------------------------------
    slot: int | None = None
    node_uid: int | None = None
    node_label: str | None = None
    # -- lint pass location ------------------------------------------------
    path: str | None = None
    line: int | None = None
    col: int | None = None
    data: dict[str, Any] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out = {"rule": self.rule, "severity": self.severity, "message": self.message}
        if self.path is not None:
            out.update(path=self.path, line=self.line, col=self.col)
        else:
            out.update(slot=self.slot, node_uid=self.node_uid,
                       node_label=self.node_label)
        if self.data:
            out["data"] = dict(self.data)
        return out

    def location(self) -> str:
        if self.path is not None:
            return f"{self.path}:{self.line}:{self.col}"
        return f"slot {self.slot} ({self.node_label!r} #{self.node_uid})"


def _diag(rule_id: str, message: str, step, **data: Any) -> Diagnostic:
    rule = ALL_RULES[rule_id]
    return Diagnostic(
        rule=rule.id,
        severity=rule.severity,
        message=message,
        slot=step.slot,
        node_uid=step.node.uid,
        node_label=step.node.label,
        data=data,
    )


# ---------------------------------------------------------------------------
# Individual rule checks.  Each takes the plan plus the inferred intervals
# and yields diagnostics; analyze_plan stitches them together.
# ---------------------------------------------------------------------------


def _check_division(plan: EvaluationPlan, intervals: list[Interval]):
    for step in plan.steps:
        node = step.node
        if isinstance(node, BinaryOpNode) and node.label in DIVISION_SYMBOLS:
            divisor = intervals[step.parent_slots[1]]
            if divisor.contains_zero:
                yield _diag(
                    "UNC101",
                    f"divisor of {node.label!r} has support "
                    f"{divisor} which contains 0; samples can be inf/NaN",
                    step,
                    divisor_support=[divisor.lower, divisor.upper],
                )


def _check_domains(plan: EvaluationPlan, intervals: list[Interval]):
    for step in plan.steps:
        node = step.node
        if isinstance(node, (UnaryOpNode, ApplyNode)) and len(step.parent_slots) == 1:
            escapes = DOMAIN_BOUNDARIES.get(node.label)
            if escapes is not None:
                operand = intervals[step.parent_slots[0]]
                if escapes(operand):
                    yield _diag(
                        "UNC102",
                        f"{node.label!r} applied to support {operand}, which "
                        "crosses the function's domain boundary; some "
                        "samples will be NaN",
                        step,
                        operand_support=[operand.lower, operand.upper],
                    )
        elif isinstance(node, BinaryOpNode) and node.label == "**":
            base = intervals[step.parent_slots[0]]
            exponent = intervals[step.parent_slots[1]]
            fractional = not (
                exponent.is_point and float(exponent.lower).is_integer()
            )
            if base.lower < 0 and fractional:
                yield _diag(
                    "UNC102",
                    f"'**' with base support {base} (negative values) and a "
                    "non-integer exponent; some samples will be NaN",
                    step,
                    base_support=[base.lower, base.upper],
                    exponent_support=[exponent.lower, exponent.upper],
                )


def _check_decidable(plan: EvaluationPlan, intervals: list[Interval]):
    for step in plan.steps:
        node = step.node
        if not (isinstance(node, BinaryOpNode) and node.label in COMPARISON_SYMBOLS):
            continue
        left, right = node.parents
        if left is right:
            # UNC104 owns the self-comparison case.
            continue
        result = intervals[step.slot]
        if result.is_point:
            verdict = "true" if result.lower == 1.0 else "false"
            yield _diag(
                "UNC103",
                f"comparison {node.label!r} is statically {verdict}: operand "
                f"supports {intervals[step.parent_slots[0]]} vs "
                f"{intervals[step.parent_slots[1]]} never overlap the "
                "other way, so Pr is exactly "
                f"{'1' if verdict == 'true' else '0'} and the SPRT is "
                "wasted work",
                step,
                decided=verdict == "true",
            )


_ALWAYS_TRUE_SELF = frozenset({"==", "<=", ">="})
_ALWAYS_FALSE_SELF = frozenset({"<", ">", "!="})


def _check_self_comparison(plan: EvaluationPlan, intervals: list[Interval]):
    for step in plan.steps:
        node = step.node
        if not (isinstance(node, BinaryOpNode) and node.label in COMPARISON_SYMBOLS):
            continue
        left, right = node.parents
        if left is not right:
            continue
        verdict = node.label in _ALWAYS_TRUE_SELF
        yield _diag(
            "UNC104",
            f"self-comparison 'x {node.label} x' on a shared node is always "
            f"{str(verdict).lower()} under joint-sample semantics (Figure 8)",
            step,
            decided=verdict,
        )


def _check_constant_folding(plan: EvaluationPlan, intervals: list[Interval]):
    # A node is constant when its whole sub-DAG is point masses combined by
    # deterministic ops (Binary/Unary/Apply draw no randomness: their
    # evaluate_batch never touches the rng).
    constant: dict[int, bool] = {}
    subtree_slots: dict[int, int] = {}
    for step in plan.steps:
        node = step.node
        if isinstance(node, PointMassNode):
            constant[step.slot] = True
            subtree_slots[step.slot] = 1
        elif isinstance(node, (BinaryOpNode, UnaryOpNode, ApplyNode)) and step.parent_slots:
            if all(constant.get(s, False) for s in step.parent_slots):
                constant[step.slot] = True
                # Count distinct slots in the constant sub-DAG.
                seen: set[int] = set()
                stack = [step.slot]
                while stack:
                    s = stack.pop()
                    if s in seen:
                        continue
                    seen.add(s)
                    stack.extend(plan.steps[s].parent_slots)
                subtree_slots[step.slot] = len(seen)
            else:
                constant[step.slot] = False
        else:
            constant[step.slot] = False
    # Maximal constant nodes: constant, non-leaf, and not consumed solely
    # by other constant nodes (or they are the root).
    consumers: dict[int, list[int]] = {}
    for step in plan.steps:
        for parent_slot in step.parent_slots:
            consumers.setdefault(parent_slot, []).append(step.slot)
    for step in plan.steps:
        slot = step.slot
        if not constant.get(slot) or isinstance(step.node, PointMassNode):
            continue
        used_by = consumers.get(slot, [])
        if used_by and all(constant.get(c, False) for c in used_by):
            continue
        saving = subtree_slots[slot] - 1
        value = intervals[slot]
        value_note = f" (value {value.lower:g})" if value.is_point else ""
        yield _diag(
            "UNC105",
            f"sub-DAG rooted at {step.node.label!r} is built only from "
            f"point masses{value_note}; folding it to one constant would "
            f"save {saving} slot(s) per joint sample: compute the constant "
            "in Python before lifting it",
            step,
            slots_saved=saving,
        )


def _check_correlated_comparisons(plan: EvaluationPlan,
                                  intervals: list[Interval], forms):
    """UNC106: comparisons only the dependence-tracking domain decides."""
    for step in plan.steps:
        node = step.node
        if not (isinstance(node, BinaryOpNode) and node.label in COMPARISON_SYMBOLS):
            continue
        left, right = node.parents
        if left is right:
            continue  # UNC104 owns self-comparisons.
        if intervals[step.slot].is_point:
            continue  # UNC103 owns interval-decidable comparisons.
        result = forms[step.slot].range
        if not result.is_point:
            continue
        a, b = step.parent_slots
        shared = sorted(forms[a].symbols & forms[b].symbols)
        verdict = "true" if result.lower == 1.0 else "false"
        yield _diag(
            "UNC106",
            f"comparison {node.label!r} is statically {verdict}, but only "
            "the dependence-tracking affine domain can see it: the operands "
            f"share {len(shared)} stochastic leaf slot(s) and their "
            "difference collapses to one side of zero, so Pr is exactly "
            f"{'1' if verdict == 'true' else '0'} and the SPRT is wasted "
            "work (invisible to interval analysis)",
            step,
            decided=verdict == "true",
            shared_leaf_slots=shared,
        )


def _stochastic_leaf_slots(plan: EvaluationPlan) -> list[frozenset[int]]:
    out: list[frozenset[int]] = [frozenset()] * len(plan.steps)
    for step in plan.steps:
        if step.parent_slots:
            acc: set[int] = set()
            for s in step.parent_slots:
                acc |= out[s]
            out[step.slot] = frozenset(acc)
        elif not isinstance(step.node, PointMassNode):
            out[step.slot] = frozenset((step.slot,))
    return out


def _subtree_fingerprint(plan: EvaluationPlan, slot: int, cache: dict):
    """An exact local fingerprint of the sub-DAG below ``slot``.

    Reachable slots are renumbered locally (ascending slot order is a
    valid topological order), so two sub-DAGs get equal fingerprints iff
    they are isomorphic *as DAGs* — unlike Merkle-style subtree hashing
    this distinguishes ``x + x`` from ``x1 + x2``.  A leaf's token keeps
    its values, which ``node_token`` drops for the trusted families.
    Returns ``None`` for
    structurally opaque nodes (unhashable params or callables).
    """
    if slot in cache:
        return cache[slot]
    from repro.core.structural import StructuralOpaque, dist_token, node_token

    reachable: set[int] = set()
    stack = [slot]
    while stack:
        s = stack.pop()
        if s in reachable:
            continue
        reachable.add(s)
        stack.extend(plan.steps[s].parent_slots)
    ordered = sorted(reachable)
    local = {s: i for i, s in enumerate(ordered)}
    tokens = []
    try:
        for s in ordered:
            step = plan.steps[s]
            parents = tuple(local[p] for p in step.parent_slots)
            if type(step.node) is LeafNode:
                tokens.append(("leaf", dist_token(step.node.dist)))
            else:
                tokens.append(node_token(step.node, parents))
        fingerprint = tuple(tokens)
    except StructuralOpaque:
        fingerprint = None
    cache[slot] = fingerprint
    return fingerprint


_UNC107_SYMBOLS = COMPARISON_SYMBOLS | {"-", "/"}


def _check_spurious_independence(plan: EvaluationPlan,
                                 intervals: list[Interval]):
    """UNC107: identical reconstructions compared as if independent."""
    stochastic = _stochastic_leaf_slots(plan)
    cache: dict = {}
    for step in plan.steps:
        node = step.node
        if not (isinstance(node, BinaryOpNode) and node.label in _UNC107_SYMBOLS):
            continue
        if len(step.parent_slots) != 2:
            continue
        a, b = step.parent_slots
        if a == b:
            continue
        # Both operands must be composite (an iid leaf pair like
        # Gaussian - Gaussian is idiomatic, not a bug) and stochastic.
        if not plan.steps[a].parent_slots or not plan.steps[b].parent_slots:
            continue
        if not stochastic[a] or not stochastic[b]:
            continue
        if stochastic[a] & stochastic[b]:
            continue  # genuinely shared ancestors: dependence is modeled.
        fp_a = _subtree_fingerprint(plan, a, cache)
        if fp_a is None or fp_a != _subtree_fingerprint(plan, b, cache):
            continue
        yield _diag(
            "UNC107",
            f"operands of {node.label!r} are structurally identical "
            f"sub-DAGs ({len(fp_a)} node(s) each) built from disjoint "
            "stochastic leaves; if they are meant to be the same quantity, "
            "reuse one value so the dependence is modeled (rebuilding it "
            "samples an independent copy and silently changes the "
            "distribution of the result)",
            step,
            subtree_nodes=len(fp_a),
            left_leaf_slots=sorted(stochastic[a]),
            right_leaf_slots=sorted(stochastic[b]),
        )


def analyze_plan(plan: EvaluationPlan) -> list[Diagnostic]:
    """Run every graph rule over ``plan``; returns diagnostics in slot order."""
    from repro.analysis.affine import infer_affine

    intervals = infer_intervals(plan)
    forms = infer_affine(plan, intervals)
    diagnostics: list[Diagnostic] = []
    for check in (
        _check_division,
        _check_domains,
        _check_decidable,
        _check_self_comparison,
        _check_constant_folding,
    ):
        diagnostics.extend(check(plan, intervals))
    diagnostics.extend(_check_correlated_comparisons(plan, intervals, forms))
    diagnostics.extend(_check_spurious_independence(plan, intervals))
    diagnostics.sort(key=lambda d: (d.slot or 0, d.rule))
    return diagnostics


def analyze(value) -> list[Diagnostic]:
    """Analyze an ``Uncertain`` value or raw graph ``Node``.

    Compiles (or reuses) the evaluation plan for the value's network and
    runs :func:`analyze_plan` over it.
    """
    node = getattr(value, "node", value)
    if not isinstance(node, Node):
        raise TypeError(
            f"expected an Uncertain or Node, got {type(value).__name__}"
        )
    return analyze_plan(compile_plan(node))


def warn_on_diagnostics(plan: EvaluationPlan, floor: str = ERROR) -> list[Diagnostic]:
    """``analyze=`` hook for :func:`~repro.core.plan.compile_plan`.

    Emits one :class:`UncertaintyWarning` per diagnostic at or above
    ``floor`` severity.  Because ``compile_plan`` only invokes the hook on
    fresh compiles (cache misses), each cached plan warns at most once.
    """
    diagnostics = analyze_plan(plan)
    for diagnostic in diagnostics:
        if severity_at_least(diagnostic.severity, floor):
            warnings.warn(
                UncertaintyWarning(
                    f"{diagnostic.rule} at {diagnostic.location()}: "
                    f"{diagnostic.message}"
                ),
                stacklevel=3,
            )
    return diagnostics


def inferred_supports(value) -> dict[int, Interval]:
    """Map node uid -> inferred interval for an ``Uncertain``/``Node``.

    Exposed for the CLI's ``graph`` subcommand and for tests; ``BOOL``
    intervals mark evidence-valued slots.
    """
    node = getattr(value, "node", value)
    plan = compile_plan(node)
    intervals = infer_intervals(plan)
    return {step.node.uid: intervals[step.slot] for step in plan.steps}


__all__ = [
    "Diagnostic",
    "UncertaintyWarning",
    "analyze",
    "analyze_plan",
    "inferred_supports",
    "warn_on_diagnostics",
    "BOOL",
]
