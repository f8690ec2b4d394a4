"""NaiveLife, SensorLife and BayesLife cell deciders (Section 5.2).

Each variant answers: given a cell's current state and its noisy neighbour
sensors, will the cell be alive next generation?  The structure mirrors the
paper's listing::

    bool WillBeAlive = IsAlive;
    Uncertain<double> NumLive = CountLiveNeighbors(me);
    if (IsAlive && NumLive < 2)                     WillBeAlive = false;
    else if (IsAlive && 2 <= NumLive && NumLive <= 3) WillBeAlive = true;
    else if (IsAlive && NumLive > 3)                WillBeAlive = false;
    else if (!IsAlive && NumLive == 3)              WillBeAlive = true;

On real-valued noisy sums, ``NumLive == 3`` is read as "within half a count
of 3" (the nearest-integer band (2.5, 3.5)); a literal float equality would
be identically false, making births impossible.  For SensorLife and
BayesLife each comparison runs a hypothesis test; inconclusive tests leave
``WillBeAlive`` at its default — the ternary logic of Section 3.4 — which
is also why boundary counts (e.g. a live cell with exactly 2 neighbours,
where Pr[NumLive < 2] = 0.5) degrade gracefully instead of flipping coins
the way NaiveLife does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.conditionals import get_config
from repro.core.uncertain import Uncertain
from repro.life.sensors import (
    corrected_sensor_sum,
    noisy_sensor_readings,
    sensor_sum,
)


@dataclasses.dataclass(frozen=True)
class UpdateOutcome:
    """One cell-update decision plus its sampling cost."""

    will_be_alive: bool
    sensor_samples: int  # physical sensor reads consumed
    joint_samples: int  # joint draws of the NumLive network


class LifeVariant:
    """Base class: a strategy for deciding one cell update."""

    name = "abstract"

    def __init__(self, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def decide(
        self, is_alive: bool, neighbor_states: np.ndarray, rng: np.random.Generator
    ) -> UpdateOutcome:
        raise NotImplementedError


class NaiveLife(LifeVariant):
    """Reads each sensor once and applies the rules to the raw sum."""

    name = "NaiveLife"

    def decide(self, is_alive, neighbor_states, rng) -> UpdateOutcome:
        readings = noisy_sensor_readings(neighbor_states, self.sigma, rng)
        num_live = float(readings.sum())
        will_be_alive = is_alive
        if is_alive and num_live < 2:
            will_be_alive = False
        elif is_alive and 2 <= num_live <= 3:
            will_be_alive = True
        elif is_alive and num_live > 3:
            will_be_alive = False
        elif not is_alive and abs(num_live - 3) < 0.5:
            will_be_alive = True
        return UpdateOutcome(will_be_alive, len(neighbor_states), 1)


class _UncertainRuleMixin:
    """Shared conditional cascade for the Uncertain-based variants."""

    @staticmethod
    def _apply_rules(is_alive: bool, num_live: Uncertain) -> tuple[bool, int]:
        """Run the paper's conditional cascade; return (decision, joint samples).

        Python's short-circuit ``and`` on the crisp ``is_alive`` flag means
        only the relevant hypothesis tests execute, matching the C# code.
        """
        accounting = get_config().accounting
        before = accounting.samples_drawn
        will_be_alive = is_alive
        if is_alive and (num_live < 2):
            will_be_alive = False
        elif is_alive and ((2 <= num_live) & (num_live <= 3)):
            will_be_alive = True
        elif is_alive and (num_live > 3):
            will_be_alive = False
        elif not is_alive and ((2.5 < num_live) & (num_live < 3.5)):
            will_be_alive = True
        return will_be_alive, accounting.samples_drawn - before


class SensorLife(_UncertainRuleMixin, LifeVariant):
    """Wraps each sensor with Uncertain<T> and tests the rule conditionals."""

    name = "SensorLife"

    def decide(self, is_alive, neighbor_states, rng) -> UpdateOutcome:
        num_live = sensor_sum(neighbor_states, self.sigma)
        decision, joint = self._apply_rules(is_alive, num_live)
        return UpdateOutcome(decision, joint * len(neighbor_states), joint)


class BayesLife(_UncertainRuleMixin, LifeVariant):
    """SensorLife with MAP-corrected sensors (domain knowledge)."""

    name = "BayesLife"

    def decide(self, is_alive, neighbor_states, rng) -> UpdateOutcome:
        num_live = corrected_sensor_sum(neighbor_states, self.sigma)
        decision, joint = self._apply_rules(is_alive, num_live)
        return UpdateOutcome(decision, joint * len(neighbor_states), joint)
