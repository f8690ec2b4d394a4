"""Named demo graphs for ``python -m repro.analysis graph <demo>``.

Each demo builds a small, self-contained uncertain computation that
exercises one or more graph rules, so the CLI can show the abstract
interpreter working end-to-end without the user writing code first.
``resolve_target`` also accepts a ``module.path:callable`` spec whose
callable returns an ``Uncertain`` (or raw ``Node``), which is how users
point the analyzer at their own graphs.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable

from repro.core.uncertain import Uncertain


def _demo_quickstart() -> Uncertain:
    """The quickstart pace computation.

    Deliberately instructive: a Gaussian speed has support ``(-inf, inf)``
    even though physical speed is positive, so the pace division trips
    UNC101 — exactly the silent inf/NaN samples the paper's Section 2
    warns about.  A truncated or Rayleigh speed model fixes it.
    """
    from repro.dists import Gaussian

    speed = Uncertain(Gaussian(3.5, 1.0), label="speed")
    km_per_h = speed * 1.609344
    return 60.0 / km_per_h


def _demo_div_by_zero() -> Uncertain:
    """Division by a zero-crossing Gaussian — the UNC101 poster child."""
    from repro.dists import Gaussian, Uniform

    distance = Uncertain(Uniform(0.0, 100.0), label="distance_m")
    dt = Uncertain(Gaussian(1.0, 0.5), label="dt_s")
    return distance / dt


def _demo_log_domain() -> Uncertain:
    """``log`` of a support that dips below zero — UNC102."""
    from repro.dists import Gaussian

    from repro.core.lifting import lift

    x = Uncertain(Gaussian(2.0, 1.0), label="x")
    return lift(math.log, vectorized=False)(x)


def _demo_decided() -> Uncertain:
    """A comparison the SPRT can never change — UNC103."""
    from repro.dists import Uniform

    x = Uncertain(Uniform(0.0, 1.0), label="x")
    return x > 2.0


def _demo_self_compare() -> Uncertain:
    """``x == x`` on a shared node — UNC104."""
    from repro.dists import Gaussian

    x = Uncertain(Gaussian(0.0, 1.0), label="x")
    return x == x


def _demo_const_fold() -> Uncertain:
    """A point-mass-only subexpression — UNC105."""
    from repro.dists import Gaussian

    mph_per_mps = Uncertain.pointmass(3600.0) / Uncertain.pointmass(1609.344)
    speed_mps = Uncertain(Gaussian(1.5, 0.3), label="speed_mps")
    return speed_mps * mph_per_mps


def _demo_fig08() -> Uncertain:
    """Figure 8's shared-subexpression diamond — clean."""
    from repro.dists import Gaussian

    x = Uncertain(Gaussian(0.0, 1.0), label="X")
    y = Uncertain(Gaussian(0.0, 1.0), label="Y")
    return (y + x) + x


def _demo_correlated_compare() -> Uncertain:
    """A comparison only dependence tracking decides — UNC106.

    ``x + 1 > x`` is always true, but the operands share the Gaussian's
    infinite support, so interval analysis sees ``(-inf, inf) >
    (-inf, inf)`` and shrugs; the affine domain cancels the shared
    symbol and proves the difference is exactly 1.
    """
    from repro.dists import Gaussian

    x = Uncertain(Gaussian(0.0, 1.0), label="x")
    return (x + 1.0) > x


def _demo_iid_reconstruction() -> Uncertain:
    """A reconstructed (not shared) subexpression — UNC107.

    Both operands compute "sensor + offset", but each side builds its
    *own* leaves, so the comparison samples two independent copies of a
    quantity that was presumably meant to be one shared value.
    """
    from repro.dists import Gaussian, Uniform

    lhs = Uncertain(Gaussian(0.0, 1.0), label="sensor") + Uncertain(
        Uniform(0.0, 0.5), label="offset")
    rhs = Uncertain(Gaussian(0.0, 1.0), label="sensor") + Uncertain(
        Uniform(0.0, 0.5), label="offset")
    return lhs > rhs


DEMOS: dict[str, Callable[[], Uncertain]] = {
    "quickstart": _demo_quickstart,
    "div-by-zero": _demo_div_by_zero,
    "log-domain": _demo_log_domain,
    "decided-comparison": _demo_decided,
    "self-compare": _demo_self_compare,
    "const-fold": _demo_const_fold,
    "fig08": _demo_fig08,
    "correlated-compare": _demo_correlated_compare,
    "iid-reconstruction": _demo_iid_reconstruction,
}


# ---------------------------------------------------------------------------
# The certification corpus: the plans `python -m repro.analysis certify`
# checks by default.  Mirrors the benchmark workloads (benchmarks/ is not
# an importable package) plus every demo above, so the CI gate covers the
# same shapes the performance suite runs.
# ---------------------------------------------------------------------------


def _corpus_gps_window() -> Uncertain:
    """The fig08-style GPS sliding-window workload (scaled-down mirror of
    ``benchmarks/e2e/inputs.py::fig08_root``): coalesced
    same-family Gaussian fix draws, shared window sums, constant-fold and
    CSE bait, a lifted ``np.sqrt``, and a threshold comparison."""
    import numpy as np

    from repro.dists import Exponential, Gaussian, Uniform

    window = 8

    def sliding_means(fixes):
        middle = fixes[1]
        for fix in fixes[2:-1]:
            middle = middle + fix
        scale = Uncertain.pointmass(float(window))
        prev = (fixes[0] + middle) / scale
        cur = (middle + fixes[-1]) / scale
        return prev, cur

    lat = [Uncertain(Gaussian(47.6097, 2.5e-5)) for _ in range(window + 1)]
    lon = [Uncertain(Gaussian(-122.3331, 2.5e-5)) for _ in range(window + 1)]
    prev_lat, cur_lat = sliding_means(lat)
    prev_lon, cur_lon = sliding_means(lon)
    dt = Uncertain(Uniform(0.9, 1.1))
    drift = Uncertain(Exponential(4.0))
    deg2rad = Uncertain.pointmass(math.pi) / Uncertain.pointmass(180.0)
    earth_r = Uncertain.pointmass(6_371_008.8)
    cos_lat = Uncertain.pointmass(0.6756)
    dy = (cur_lat * deg2rad - prev_lat * deg2rad) * earth_r
    dx = (cur_lon * deg2rad - prev_lon * deg2rad) * (earth_r * cos_lat)
    dist_m = (dx * dx + dy * dy).map(np.sqrt, vectorized=True)
    speed_mps = (dist_m + drift) / dt
    walk_limit = Uncertain.pointmass(4.0) * (
        Uncertain.pointmass(1609.344) / Uncertain.pointmass(3600.0))
    return speed_mps > walk_limit


def _corpus_sprt_sum() -> Uncertain:
    """The SPRT-shaped benchmark network: a 12-leaf Gaussian sum compared
    against one of its own (shared) leaves."""
    from repro.dists import Gaussian

    leaves = [Uncertain(Gaussian(0.0, 1.0)) for _ in range(12)]
    acc = leaves[0]
    for leaf in leaves[1:]:
        acc = acc + leaf
    return acc > leaves[0]


CERTIFY_CORPUS: dict[str, Callable[[], Uncertain]] = {
    **DEMOS,
    "gps-window": _corpus_gps_window,
    "sprt-sum": _corpus_sprt_sum,
}


def resolve_target(spec: str, registry: dict | None = None) -> Uncertain:
    """Build the graph named by ``spec``.

    ``spec`` is either a name from ``registry`` (:data:`DEMOS` by
    default; the ``certify`` subcommand passes :data:`CERTIFY_CORPUS`)
    or a ``module.path:callable`` reference to a zero-argument function
    returning an ``Uncertain`` or ``Node``.
    """
    if registry is None:
        registry = DEMOS
    if spec in registry:
        return registry[spec]()
    if ":" in spec:
        module_name, _, attr = spec.partition(":")
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
        value = factory()
        return value if isinstance(value, Uncertain) else Uncertain(value)
    raise SystemExit(
        f"unknown demo {spec!r}; choose one of "
        f"{', '.join(sorted(registry))} or pass a 'module.path:callable' "
        "spec"
    )
