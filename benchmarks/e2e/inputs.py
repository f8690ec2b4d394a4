"""Seeded inputs and graph builders for the four end-to-end workloads.

Everything a workload feeds the library is made here from the run's seed:
the GPS walker query, the Figure 8 sliding-window network, the Game of
Life boards, and the Table 1 expression recipes.  The
graph builders are copies of the ones in ``benchmarks/test_service_load.py``
and ``benchmarks/test_plan_compilation.py`` rather than imports, so that an
edit to those pytest benchmarks cannot silently change what this benchmark
measures.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import Uncertain
from repro.dists import Exponential, Gaussian, Uniform
from repro.life.engine import neighbor_counts, random_board, step_board

# -- gps_flood: the Fig 4/13 speeding test --------------------------------

#: GPS error model: ~4 m 95% CEP over a 1 s resample interval, in mph.
_SIGMA_MPH = 2.0 * 2.23693629
_WALK_MPH = 3.1
SPEED_LIMIT_MPH = 4.0


def walker_query():
    """One walker's "am I speeding?" conditional, built fresh per request."""
    v_east = Uncertain(Gaussian(_WALK_MPH * 0.6, _SIGMA_MPH), label="vE")
    v_north = Uncertain(Gaussian(_WALK_MPH * 0.8, _SIGMA_MPH), label="vN")
    speed = (v_east * v_east + v_north * v_north) ** 0.5
    return speed > SPEED_LIMIT_MPH


# -- fig08_analyst: the 110-node Fig 8 sliding window ---------------------

_WINDOW = 16  # GPS fixes per moving-average window (1 Hz receiver)


def _sliding_means(fixes):
    """Previous/current window means sharing the common middle sum."""
    w = float(len(fixes) - 1)
    common = fixes[1]
    for f in fixes[2:-1]:
        common = common + f
    return (fixes[0] + common) / w, (common + fixes[-1]) / w


def fig08_root():
    """GPS walking-speed detection in the Figure 8 dependence shape.

    Two 16-fix moving averages per coordinate share their 15-fix middle
    sum (the ``(y + x) + x`` pattern at scale), unit conversions are
    point-mass chains (constant-fold bait), and the distance goes through
    a lifted ``np.sqrt``.  Returns the root node of ``speed > 4 mph``; its
    first parent is the speed estimate.
    """
    lat_fixes = [Uncertain(Gaussian(47.6097, 2.5e-5)) for _ in range(_WINDOW + 1)]
    lon_fixes = [Uncertain(Gaussian(-122.3331, 2.5e-5)) for _ in range(_WINDOW + 1)]
    prev_lat, cur_lat = _sliding_means(lat_fixes)
    prev_lon, cur_lon = _sliding_means(lon_fixes)
    dt = Uncertain(Uniform(0.9, 1.1))
    drift = Uncertain(Exponential(4.0))
    deg2rad = Uncertain.pointmass(np.pi) / Uncertain.pointmass(180.0)
    earth_r = (
        Uncertain.pointmass(2.0) * Uncertain.pointmass(6_378_137.0)
        + Uncertain.pointmass(6_356_752.3)
    ) / Uncertain.pointmass(3.0)
    cos_lat = Uncertain.pointmass(0.6756)
    dy = (cur_lat * deg2rad - prev_lat * deg2rad) * earth_r
    dx = (cur_lon * deg2rad - prev_lon * deg2rad) * (earth_r * cos_lat)
    dist_m = (dx * dx + dy * dy).map(np.sqrt, vectorized=True)
    speed_mps = (dist_m + drift) / dt
    threshold_mps = (
        Uncertain.pointmass(4.0)
        * (Uncertain.pointmass(1.609344) * Uncertain.pointmass(1000.0))
        / Uncertain.pointmass(3600.0)
    )
    return (speed_mps > threshold_mps).node


def analyst_sessions(seed: int, count: int, hot_seeds: int = 8) -> list[int]:
    """Session seeds: half repeat one of ``hot_seeds`` seeds, half are fresh."""
    rng = np.random.default_rng([seed, 8])
    hot = [int(s) for s in rng.integers(0, 2**31, hot_seeds)]
    return [
        hot[int(rng.integers(hot_seeds))] if rng.random() < 0.5
        else 2**31 + seed * 1_000_003 + i
        for i in range(count)
    ]


# -- life_sprt: the Fig 14 noisy Game of Life -----------------------------


#: The initial board does not vary with the run's seed, which sets only the
#: sample streams.  How a board evolves decides how many cells sit near a
#: rule's threshold, where the SPRT draws up to ``max_samples``: in the
#: first 5 000 updates of ten seeded boards the joint samples per update
#: ranged from 36 to 69, and throughput followed.  This board's 49 was the
#: median of those ten.
LIFE_BOARD_SEED = 1


def life_boards(generations: int, size: int = 20,
                density: float = 0.35) -> list[tuple[np.ndarray, np.ndarray]]:
    """The exact board of every generation with its live-neighbour counts."""
    rng = np.random.default_rng([LIFE_BOARD_SEED, 14])
    board = random_board(size, size, density, rng)
    boards = []
    for _ in range(generations):
        boards.append((board, neighbor_counts(board)))
        board = step_board(board)
    return boards


# -- shape_zoo: a Table 1 operator mix ------------------------------------

_BINARY_OPS = ("+", "-", "*", "/")


@dataclasses.dataclass(frozen=True)
class Recipe:
    """A seeded expression: leaves, then operations over a growing pool.

    ``leaves`` holds ``(kind, a, b)`` tuples; ``ops`` holds ``(op, i, j, c)``
    where ``i``/``j`` index the pool of leaves and earlier results and ``c``
    is the scalar of a ``scalar`` op.  ``compare`` is ``None`` or
    ``(symbol, threshold)`` applied to the last result.
    """

    leaves: tuple
    ops: tuple
    compare: "tuple | None"


def make_recipe(rng: np.random.Generator, n_leaves: int, n_ops: int) -> Recipe:
    """A valid program: arithmetic only on numbers, at most one comparison,
    and every leaf used (unused leaves are folded into the first ops)."""
    leaves = []
    for k in range(n_leaves):
        kind = ("gauss", "uniform", "exp", "point")[int(rng.integers(4))]
        if k == 0 and kind == "point":
            kind = "gauss"  # at least one stochastic leaf
        if kind == "gauss":
            leaves.append((kind, round(rng.uniform(-3, 3), 2), round(rng.uniform(0.5, 2), 2)))
        elif kind == "uniform":
            low = round(rng.uniform(-2, 2), 2)
            leaves.append((kind, low, round(low + rng.uniform(0.5, 3), 2)))
        elif kind == "exp":
            leaves.append((kind, round(rng.uniform(0.5, 3), 2), 0.0))
        else:
            leaves.append((kind, round(rng.uniform(-3, 3), 2), 0.0))
    ops = []
    acc = 0
    pool = n_leaves
    unused = list(range(1, n_leaves))
    for _ in range(n_ops):
        if unused:
            op = _BINARY_OPS[int(rng.integers(4))]
            other = unused.pop(0)
        else:
            op = ("+", "-", "*", "/", "scalar", "sqrt")[int(rng.integers(6))]
            other = int(rng.integers(pool))
        ops.append((op, acc, other, round(rng.uniform(0.5, 2.5), 2)))
        acc = pool
        pool += 1
    compare = None
    if rng.random() < 0.5:
        compare = (">" if rng.random() < 0.5 else "<", round(rng.uniform(-2, 2), 2))
    return Recipe(tuple(leaves), tuple(ops), compare)


def build_recipe(recipe: Recipe) -> Uncertain:
    """A fresh graph for ``recipe`` (new node objects every call)."""
    pool: list[Uncertain] = []
    for kind, a, b in recipe.leaves:
        if kind == "gauss":
            pool.append(Uncertain(Gaussian(a, b)))
        elif kind == "uniform":
            pool.append(Uncertain(Uniform(a, b)))
        elif kind == "exp":
            pool.append(Uncertain(Exponential(a)))
        else:
            pool.append(Uncertain.pointmass(a))
    for op, i, j, c in recipe.ops:
        x, y = pool[i], pool[j]
        if op == "+":
            out = x + y
        elif op == "-":
            out = x - y
        elif op == "*":
            out = x * y
        elif op == "/":
            out = x / y
        elif op == "scalar":
            out = x * c
        else:
            out = abs(x).map(np.sqrt, vectorized=True)
        pool.append(out)
    value = pool[-1]
    if recipe.compare is not None:
        symbol, threshold = recipe.compare
        value = value > threshold if symbol == ">" else value < threshold
    return value


def shape_zoo_inputs(seed: int, recipes: int, queries: int,
                     zipf_a: float = 1.1) -> tuple[list[Recipe], np.ndarray, np.ndarray]:
    """``recipes`` expressions and a Zipf(``zipf_a``) query stream over them.

    Recipe ``r`` has ``2 + r % 5`` leaves and ``max(3, leaves - 1) + r % 10``
    operations, so the popular ranks have the same sizes under every seed
    and throughput varies with the seed only through operators and
    parameters.  Returns the recipes, the recipe index of every query and a
    sampling seed per query.
    """
    rng = np.random.default_rng([seed, 1])
    table = []
    for r in range(recipes):
        n_leaves = 2 + r % 5
        n_ops = max(3, n_leaves - 1) + r % 10
        table.append(make_recipe(rng, n_leaves, min(n_ops, 12)))
    weights = np.arange(1, recipes + 1, dtype=float) ** -zipf_a
    order = rng.choice(recipes, size=queries, p=weights / weights.sum())
    seeds = rng.integers(0, 2**31, size=queries)
    return table, order, seeds
