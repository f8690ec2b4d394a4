"""Retired: the plan rewrite optimizer.

Every engine runs the plan :func:`~repro.core.plan.compile_plan` returns.
:func:`optimize_plan` is kept only because the end-to-end benchmark's
tracer wraps it; it returns the plan unchanged with no records.
"""

from __future__ import annotations


def optimize_plan(plan):
    """Return ``(plan, ())``: no pass rewrites a plan."""
    return plan, ()


__all__ = ["optimize_plan"]
