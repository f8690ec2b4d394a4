"""Quickstart: the Uncertain<T> programming model in five minutes.

Run with::

    python examples/quickstart.py
"""

from repro import Uncertain
from repro.core.conditionals import evaluation_config
from repro.dists import Gaussian
from repro.rng import default_rng


def main() -> None:
    # An estimate is a distribution, not a number.  A GPS-style speed
    # estimate: the sensor thinks we move at 3.5 mph, give or take 1 mph.
    speed = Uncertain(Gaussian(3.5, 1.0))

    # Computing with estimates propagates their uncertainty (Section 3.3):
    # operators build a Bayesian network instead of evaluating eagerly.
    km_per_h = speed * 1.609344
    pace_min_per_km = 60.0 / km_per_h

    rng = default_rng(1)
    print("speed          E =", round(speed.expected_value(rng=rng), 3), "mph")
    print("km/h           E =", round(km_per_h.expected_value(rng=rng), 3))
    print("pace           E =", round(pace_min_per_km.expected_value(rng=rng), 2), "min/km")
    lo, hi = km_per_h.ci(0.95, rng=rng)
    print(f"km/h        95% CI = [{lo:.2f}, {hi:.2f}]")

    # Conditionals evaluate *evidence* (Section 3.4).  The implicit form
    # asks "more likely than not?"; the runtime answers with a sequential
    # hypothesis test, drawing only as many samples as it needs.
    with evaluation_config(rng=default_rng(2)) as cfg:
        if speed > 2.0:
            print(f"probably moving   ({cfg.accounting.samples_drawn} samples used)")

        # The explicit form lets you demand stronger evidence, trading
        # false positives for false negatives.
        if (speed > 4.0).pr(0.9):
            print("very confident you are fast")
        else:
            print("not enough evidence that speed > 4 mph at the 90% level")

    # Evidence itself is a first-class quantity.
    print("Pr[speed > 4] ~", round((speed > 4.0).evidence(20_000, default_rng(3)), 3))

    # Dependence is tracked through shared subexpressions (Section 3.3):
    # speed - speed is *exactly* zero, not a wider distribution.
    assert (speed - speed).sd(1_000, default_rng(4)) == 0.0
    print("speed - speed == 0 exactly (shared-variable semantics)")


if __name__ == "__main__":
    main()
