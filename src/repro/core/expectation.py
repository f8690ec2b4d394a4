"""The expected-value operator ``E`` (Table 1, Section 4.3).

Hypothesis tests cannot drive ``E`` — there is no alternative to compare
against — so the paper's implementation draws a fixed number of samples and
returns their mean.  The paper anticipates "a more intelligent adaptive
sampling process, sampling until the mean converges"; we provide that too as
:func:`expected_value_adaptive`, which grows the sample until the CLT
confidence interval of the running mean is narrower than a tolerance.
``expected_value(..., adaptive=True)`` reaches it through the unified
estimator surface (``Uncertain.E`` is a true alias of
``Uncertain.expected_value``).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.plan import compile_plan
from repro.core.sampling import Draw
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace


def _draw(uncertain, rng) -> Draw:
    """The draw of the operand's cached evaluation plan.

    ``uncertain`` is normally an :class:`~repro.core.uncertain.Uncertain`
    (whose ``plan`` property carries the compiled program), but raw nodes
    are accepted too for internal callers.
    """
    plan = getattr(uncertain, "plan", None)
    if plan is None:
        node = getattr(uncertain, "node", uncertain)
        plan = compile_plan(node)
    return Draw(plan, rng)


def reduce_samples(
    kind: str, values, *, level: float = 0.95, divisions: int = 100
) -> Any:
    """The one reduction of a sample batch per estimator, shared by the
    ``Uncertain`` methods and the service's ``reduce_query``.

    ``"expected_value"`` is per component for vector rows and ``+`` then
    ``/ n`` from the first row for object rows (``GeoCoordinate``);
    ``"evidence"`` is the truthy share; ``"percentiles"`` and
    ``"confidence_interval"`` are the quantile grid and central interval.
    """
    if kind == "expected_value":
        values = np.asarray(values)
        if values.dtype == object:
            total = values[0]
            for v in values[1:]:
                total = total + v
            return total / len(values)
        return float(np.mean(values)) if values.ndim == 1 else values.mean(axis=0)
    if kind == "evidence":
        return float(np.asarray(values, dtype=bool).mean())
    values = np.asarray(values, dtype=float)
    if kind == "percentiles":
        return np.quantile(values, np.linspace(0.0, 1.0, int(divisions) + 1))
    if kind == "confidence_interval":
        tail = (1.0 - level) / 2.0
        low, high = np.quantile(values, [tail, 1.0 - tail])
        return float(low), float(high)
    raise ValueError(f"unknown reduction {kind!r}")


def expected_value(
    uncertain,
    n: int | None = None,
    rng=None,
    adaptive: bool = False,
    **adaptive_options,
) -> Any:
    """Fixed-sample-size Monte-Carlo mean (the paper's ``E``).

    Works for any base type with ``+`` and ``/`` (numbers, vectors,
    ``GeoCoordinate``), because the mean of objects is their sample sum
    scaled by ``1/n``; a vector value's mean is per component
    (:func:`reduce_samples`).

    With ``adaptive=True`` the fixed sample size is replaced by the
    CLT stopping rule of :func:`expected_value_adaptive` (keyword options
    — ``tolerance``, ``confidence``, ``batch_size``, ``max_samples`` —
    pass through); the return value is still just the mean.  Call
    :func:`expected_value_adaptive` directly to also get the number of
    samples the rule consumed.
    """
    if adaptive:
        if n is not None:
            raise TypeError(
                "expected_value(adaptive=True) sizes its own sample; pass "
                "max_samples=/tolerance= instead of n="
            )
        return expected_value_adaptive(uncertain, rng=rng, **adaptive_options)[0]
    if adaptive_options:
        unexpected = ", ".join(sorted(adaptive_options))
        raise TypeError(
            f"unexpected keyword argument(s) {unexpected}; adaptive "
            "stopping options require adaptive=True"
        )
    draw = _draw(uncertain, rng)
    if n is None:
        n = draw.config.expectation_samples
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    with _trace.span("expectation.fixed", n=int(n)):
        values = draw.sample(n)
        sink = _metrics.active()
        if sink is not None:
            sink.record_expectation("fixed", n)
        return reduce_samples("expected_value", values)


def expected_value_adaptive(
    uncertain,
    tolerance: float = 1e-2,
    confidence: float = 0.95,
    batch_size: int = 100,
    max_samples: int = 100_000,
    rng=None,
) -> tuple[float, int]:
    """Adaptive mean: sample until the running mean's CI half-width is small.

    Returns ``(mean, samples_used)``.  The stopping rule is the CLT interval
    ``z * s / sqrt(n) <= tolerance`` at the requested confidence, evaluated
    after every batch.  This is the paper's anticipated improvement over the
    fixed-size ``E``; the ablation bench compares their sample economics.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if batch_size < 2 or max_samples < batch_size:
        raise ValueError("need batch_size >= 2 and max_samples >= batch_size")
    draw = _draw(uncertain, rng).run
    from scipy import stats

    z = float(stats.norm.isf((1.0 - confidence) / 2.0))
    total = 0.0
    total_sq = 0.0
    count = 0
    with _trace.span("expectation.adaptive", tolerance=tolerance) as span_attrs:
        while count < max_samples:
            k = min(batch_size, max_samples - count)
            values = np.asarray(draw(k), dtype=float)
            total += float(values.sum())
            total_sq += float((values**2).sum())
            count += k
            mean = total / count
            var = max(total_sq / count - mean**2, 0.0)
            half_width = z * math.sqrt(var / count)
            if count >= 2 * batch_size and half_width <= tolerance:
                break
        span_attrs["samples"] = count
    sink = _metrics.active()
    if sink is not None:
        sink.record_expectation("adaptive", count)
    return total / count, count
