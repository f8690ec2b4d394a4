"""Numerical-health enforcement for engine batches.

The evaluation pipeline computes with IEEE floats, so a single leaf that
emits NaN (a dropped sensor reading, a division by a zero-crossing
support) silently poisons every downstream statistic.  This module gives
that failure a policy: :func:`enforce` runs after every engine run of a
:class:`~repro.core.sampling.Draw` when the active
configuration's ``on_nonfinite`` is not ``"propagate"``, detects
non-finite rows in the root batch, *attributes* them to the first slot of
the compiled plan that introduced them, and applies the configured policy
(warn / raise / bounded resample).

Attribution walks the plan's slot program in topological order: a slot is
blamed for exactly the rows that are non-finite in its output but finite
in every earlier slot, which pinpoints the leaf or operator where the
corruption began (surfaced in :meth:`Uncertain.diagnose`, runtime
metrics, and trace events).

Layering: this module is imported by ``repro.core.engines``, so it may
not import anything from ``repro.core`` — plans and engines arrive
duck-typed.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from repro.resilience.policies import NonFiniteError, NonFiniteWarning
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace


@dataclasses.dataclass(frozen=True)
class NonFiniteAttribution:
    """Rows of one batch first corrupted at one plan slot."""

    slot: int
    kind: str
    label: str
    rows: int
    first_row: int

    def describe(self) -> str:
        return (
            f"slot {self.slot} ({self.kind} {self.label!r}) introduced "
            f"{self.rows} non-finite sample(s), first at row {self.first_row}"
        )


def nonfinite_mask(batch) -> "np.ndarray | None":
    """Per-row non-finite mask for a batch, or ``None`` when the batch's
    dtype has no notion of finiteness (bool/int/object samples)."""
    if not isinstance(batch, np.ndarray):
        return None
    if batch.dtype.kind not in "fc":
        return None
    finite = np.isfinite(batch)
    if batch.ndim > 1:
        finite = finite.reshape(batch.shape[0], -1).all(axis=1)
    bad = ~finite
    return bad if bad.any() else None


def attribute_nonfinite(plan, values) -> list[NonFiniteAttribution]:
    """Blame each non-finite row on the first slot that produced it.

    ``values`` is the engine's slot vector (entries may be ``None`` when a
    memo pre-seeded part of the plan).  Slots are visited in topological
    order, so "first" is well-defined.
    """
    attributions: list[NonFiniteAttribution] = []
    blamed: np.ndarray | None = None
    for step in plan.steps:
        batch = values[step.slot]
        if batch is None:
            continue
        mask = nonfinite_mask(batch)
        if mask is None:
            continue
        fresh = mask if blamed is None else (mask & ~blamed)
        introduced = int(fresh.sum())
        if introduced:
            attributions.append(
                NonFiniteAttribution(
                    slot=step.slot,
                    kind=step.kind,
                    label=step.node.label,
                    rows=introduced,
                    first_row=int(np.argmax(fresh)),
                )
            )
        blamed = mask if blamed is None else (blamed | mask)
    return attributions


def _record(policy: str, rows: int, attributions, resamples: int = 0) -> None:
    sink = _metrics.active()
    if sink is not None:
        sink.record_nonfinite(policy, rows=rows, resamples=resamples)
    _trace.event(
        "health.nonfinite",
        policy=policy,
        rows=rows,
        resamples=resamples,
        slots=[a.slot for a in attributions],
    )


def _summary(attributions, rows: int, n: int) -> str:
    where = "; ".join(a.describe() for a in attributions) or "unattributable"
    return f"{rows}/{n} non-finite sample(s) in batch: {where}"


def enforce(engine, plan, values, n: int, rng, config, allow_resample: bool = True):
    """Apply the active ``on_nonfinite`` policy to a freshly run batch.

    Returns the (possibly repaired) root batch.  Called by ``Draw.run``
    only when the policy is not ``"propagate"``, so the default path pays
    nothing beyond one string comparison.  ``allow_resample=False`` marks draws that cannot be
    repaired row-wise (shared-context draws, where replacing rows of one
    root would desynchronise the memoised joint assignment); the
    ``"resample"`` policy then raises instead of silently desyncing.
    """
    policy = config.on_nonfinite
    root = values[plan.root_slot]
    bad = nonfinite_mask(root)
    if bad is None:
        return root
    attributions = attribute_nonfinite(plan, values)
    rows = int(bad.sum())
    if policy == "warn":
        _record(policy, rows, attributions)
        warnings.warn(
            NonFiniteWarning(_summary(attributions, rows, n)), stacklevel=3
        )
        return root
    if policy == "raise":
        _record(policy, rows, attributions)
        raise NonFiniteError(_summary(attributions, rows, n), attributions)
    if not allow_resample:
        _record(policy, rows, attributions)
        raise NonFiniteError(
            "on_nonfinite='resample' cannot repair a shared-context draw "
            "(replacing rows of one root would desynchronise the memoised "
            "joint assignment): " + _summary(attributions, rows, n),
            attributions,
        )
    # policy == "resample": redraw replacements for the poisoned rows only,
    # bounded by the configured retry cap.  Each redraw is a fresh run of
    # the same plan with the caller's generator, so the repaired batch is
    # still a pure function of (plan, n, seed, policy).  The sample
    # ledger serves no draw under "resample", so a repair neither reads
    # nor feeds a cached column.
    root = np.array(root, copy=True)
    resamples = 0
    while True:
        if resamples >= config.nonfinite_retries:
            _record(policy, rows, attributions, resamples=resamples)
            raise NonFiniteError(
                f"on_nonfinite='resample' exhausted its retry cap of "
                f"{config.nonfinite_retries}: "
                + _summary(attributions, int(bad.sum()), n),
                attributions,
            )
        k = int(bad.sum())
        replacement_values = engine.run(plan, k, rng)
        resamples += 1
        root[bad] = replacement_values[plan.root_slot]
        bad_replacement = nonfinite_mask(root[bad])
        if bad_replacement is None:
            break
        still_bad = np.zeros_like(bad)
        still_bad[np.flatnonzero(bad)[bad_replacement]] = True
        bad = still_bad
    _record(policy, rows, attributions, resamples=resamples)
    return root
