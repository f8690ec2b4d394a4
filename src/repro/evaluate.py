"""The unified evaluation API: one namespace for "how do I run this".

Historically the runtime's knobs were scattered: engine selection on
``execute_plan``, sample sizes hard-coded in estimators, telemetry on a
separate object, and three module-level sampling entry points.  This
module is the single blessed surface for controlling evaluation:

- **configure** — :class:`EvaluationConfig` carries every knob in one
  constructor (``engine=``, ``sample_budget=``, ``deadline=``,
  ``metrics=``, plus the statistical parameters); scope overrides with
  :func:`config` (the ``evaluation_config`` context manager)::

      from repro import evaluate

      with evaluate.config(engine="parallel", sample_budget=2_000_000):
          if speed > 4:          # SPRT batches draw through the pool
              ...

- **draw** — values are sampled through their own methods
  (``Uncertain.sample`` / ``samples`` / ``sample_with``), every one
  accepting an ``engine=`` override; the long-deprecated module-level
  ``sample_once`` / ``sample_batch`` / ``execute_plan`` were removed in
  v2.0 (migration notes in ``docs/api.md``).
- **estimate** — :func:`expected_value` (with ``adaptive=``) and
  :func:`expected_value_adaptive`, plus the ergonomic query surface
  mirrored from the value methods: :func:`percentiles`,
  :func:`confidence_interval`, :func:`is_probable` — the same four
  queries the async service tier (:mod:`repro.service`) accepts over
  its request schema.
- **observe** — :func:`stats` / :func:`reset_stats` for the runtime
  counters, :class:`Tracer` / :func:`tracing` for span traces
  (``docs/runtime.md`` documents both schemas).
- **extend** — :func:`register_engine` / :func:`get_engine` /
  :func:`available_engines` for custom execution engines;
  :class:`ParallelEngine` is the built-in process-pool engine.
"""

from __future__ import annotations

from repro.core.conditionals import (
    EvaluationConfig,
    evaluation_config,
    evaluation_config as config,
    get_config,
    set_config,
)
from repro.core.engines import (
    ExecutionEngine,
    InterpreterEngine,
    NumpyEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.core.expectation import expected_value, expected_value_adaptive
from repro.core.sampling import (
    DeadlineExceeded,
    SampleBudgetExceeded,
    SampleContext,
    SamplingError,
)
from repro.runtime import (
    RuntimeMetrics,
    Tracer,
    reset_stats,
    set_tracer,
    stats,
    tracing,
)
from repro.runtime.parallel import ParallelEngine


def percentiles(value, n=None, *, samples=None, rng=None, engine=None):
    """Percentile curve of an uncertain value — ``Uncertain.percentiles``.

    Module-level spelling so estimation code can stay in the façade
    namespace; identical semantics (cached plans, ambient budgets,
    ``engine=`` override) to the method.
    """
    return value.percentiles(n, samples=samples, rng=rng, engine=engine)


def confidence_interval(value, level=0.95, *, samples=None, rng=None, engine=None):
    """Central credible interval — ``Uncertain.confidence_interval``."""
    return value.confidence_interval(
        level, samples=samples, rng=rng, engine=engine
    )


def is_probable(value, threshold=0.5, rng=None):
    """Hypothesis-tested truthiness — ``Uncertain.is_probable``."""
    return value.is_probable(threshold, rng=rng)


def clear_caches() -> None:
    """Drop every process-global evaluation cache in one call.

    Clears, in dependency order: the per-root compiled-plan cache and the
    sample-ledger entries it keys (:func:`repro.core.plan.clear_plan_cache`),
    the structural plan LRU with the fused kernels its shape entries hold,
    and — explicitly, in case entries outlive their plans — the cross-query
    sample ledger.  After this call no evaluation state survives: every
    future draw recompiles, regenerates kernels, and redraws samples.
    """
    from repro.core.ledger import clear_ledger
    from repro.core.plan import clear_plan_cache
    from repro.core.structural import clear_structural_cache

    clear_plan_cache()
    clear_structural_cache()
    clear_ledger()


__all__ = [
    # configure
    "EvaluationConfig",
    "config",
    "evaluation_config",
    "get_config",
    "set_config",
    # draw
    "SampleContext",
    "SamplingError",
    "SampleBudgetExceeded",
    "DeadlineExceeded",
    # estimate
    "expected_value",
    "expected_value_adaptive",
    "percentiles",
    "confidence_interval",
    "is_probable",
    # observe
    "clear_caches",
    "stats",
    "reset_stats",
    "RuntimeMetrics",
    "Tracer",
    "tracing",
    "set_tracer",
    # extend
    "ExecutionEngine",
    "NumpyEngine",
    "InterpreterEngine",
    "ParallelEngine",
    "register_engine",
    "get_engine",
    "available_engines",
]
