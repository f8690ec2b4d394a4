"""Related-work baselines the paper contrasts Uncertain<T> against
(Section 6), implemented so the comparisons are measurable:

- :class:`Interval` — interval analysis (Moore 1966), the library's one
  interval type (:mod:`repro.interval`): simple and fast, but treats
  every variable as bounds with no distributional structure, so it cannot
  express evidence and its bounds explode under dependent computation.
- :mod:`repro.baselines.ces` — CES-style ``prob<T>`` (Thrun 2000): exact
  discrete distributions as (value, probability) lists; expressive for
  small discrete domains but the support size multiplies under every
  binary operation and continuous distributions are out of reach.
"""

from repro.baselines.ces import ProbT
from repro.interval import Interval

__all__ = ["Interval", "ProbT"]
