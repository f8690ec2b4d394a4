"""The noisy-sensor Game of Life case study (Section 5.2, Figure 14).

Conway's Game of Life supplies ground truth: each cell senses its
neighbours through sensors we artificially corrupt with zero-mean Gaussian
noise, and we measure how often each strategy makes the wrong
survive/die/birth decision.

- :mod:`repro.life.engine` — the exact Game of Life (the "discrete perfect
  sensors" that define ground truth).
- :mod:`repro.life.sensors` — the noisy sensor layer and BayesLife's
  MAP-corrected sensor.
- :mod:`repro.life.variants` — NaiveLife, SensorLife and BayesLife cell
  deciders.
- :mod:`repro.life.evaluation` — the Figure 14 sweep: decision-error rates
  and samples per cell update across noise amplitudes.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "Board": "repro.life.engine",
    "random_board": "repro.life.engine",
    "step_board": "repro.life.engine",
    "true_decision": "repro.life.engine",
    "noisy_sensor_readings": "repro.life.sensors",
    "sensor_sum": "repro.life.sensors",
    "corrected_sensor_sum": "repro.life.sensors",
    "LifeVariant": "repro.life.variants",
    "NaiveLife": "repro.life.variants",
    "SensorLife": "repro.life.variants",
    "BayesLife": "repro.life.variants",
    "UpdateOutcome": "repro.life.variants",
    "LifePoint": "repro.life.evaluation",
    "evaluate_variants": "repro.life.evaluation",
    "run_generation": "repro.life.evaluation",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = list(_LAZY)
