"""Correctness oracle: re-evaluate a seeded subset on the reference path.

Runs after the timed phase.  The reference is the interpreter engine with
the optimizer and the sample ledger off, so a mismatch means some layer
between the graph and the answer (coalescer, plan cache, optimizer,
certifier, fused kernel, ledger, service) changed a sample stream.  The
subset:

- gps_flood: every 16th seeded request, bit for bit; the seedless answers'
  mean evidence must lie within 4 standard errors of a 200 000-sample
  interpreter estimate.
- life_sprt: generation 1 of each variant (the cells the timed phase
  reached), replayed from the same stream; the decision vector and the
  sample count must be identical.
- fig08_analyst: every 10th session (all four queries).
- shape_zoo: every 8th query plus the first query of each shape.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.conditionals import evaluation_config, get_config, set_config
from repro.service import QueryRequest, evaluate_request

from benchmarks.e2e import inputs

SEEDLESS_SE = 4.0
SEEDLESS_REFERENCE = 200_000


def _same(a, b) -> bool:
    """Bit-for-bit equality of answers (NaN equals NaN)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))


def _reference():
    return evaluation_config(engine="interpreter", optimize=0, sample_cache=False)


def check(workload) -> tuple[int, int]:
    """``(checked, mismatches)`` for the answers a workload kept."""
    with _reference():
        return _CHECKS[workload.name](workload)


def _gps(wl) -> tuple[int, int]:
    checked = mismatches = 0
    for seed, value, evidence in wl.answers["seeded"]:
        request = QueryRequest(value=inputs.walker_query(), kind="pr",
                               samples=wl.SAMPLES, seed=seed)
        solo = evaluate_request(request)
        checked += 1
        mismatches += not (solo.value == value and _same(solo.extra["evidence"], evidence))
    seedless = wl.answers["seedless"]
    if seedless:
        p = inputs.walker_query().evidence(SEEDLESS_REFERENCE, rng=wl.seed)
        mean = float(np.mean(seedless))
        se = math.sqrt(max(p * (1 - p), 1e-12)
                       * (1 / (wl.SAMPLES * len(seedless)) + 1 / SEEDLESS_REFERENCE))
        checked += 1
        mismatches += abs(mean - p) > SEEDLESS_SE * se
    return checked, mismatches


def _life(wl) -> tuple[int, int]:
    checked = mismatches = 0
    base = get_config()
    for block, answers in wl.answers.items():
        set_config(dataclasses.replace(wl.block_config(block, 0),
                                       engine="interpreter", optimize=0))
        try:
            replay = [wl.update(block, cell)[:2] for cell in range(len(answers))]
        finally:
            set_config(base)
        checked += 1
        mismatches += [d for d, _ in replay] != [d for d, _ in answers]
        checked += 1
        mismatches += sum(s for _, s in replay) != sum(s for _, s in answers)
    return checked, mismatches


def _fig08(wl) -> tuple[int, int]:
    checked = mismatches = 0
    current = None  # (session index, its fresh graph)
    for i, (session, kind, answer) in sorted(wl.answers.items()):
        s = i // len(wl.KINDS)
        if current is None or current[0] != s:
            current = (s, wl.build())
        reference = wl.ask(*current[1], kind, wl.query_seed(session, kind))
        checked += 1
        mismatches += not _same(reference, answer)
    return checked, mismatches


def _shape_zoo(wl) -> tuple[int, int]:
    checked = mismatches = 0
    for r, seed, answer in wl.answers.values():
        reference = inputs.build_recipe(wl.recipes[r]).expected_value(wl.SAMPLES, rng=seed)
        checked += 1
        mismatches += not _same(reference, answer)
    return checked, mismatches


_CHECKS = {
    "gps_flood": _gps,
    "life_sprt": _life,
    "fig08_analyst": _fig08,
    "shape_zoo": _shape_zoo,
}
