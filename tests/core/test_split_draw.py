"""Split-draw bit-identity: the sample ledger's load-bearing RNG property.

The ledger's stream mode rests on numpy bulk draws being *prefix-stable*:
``sample_n(n, rng)`` followed by ``sample_n(N - n, rng)`` on the same
generator equals one ``sample_n(N, rng)``.  That holds for every family
whose batch is a single bulk RNG call, and provably fails for families
that issue several interleaved bulk calls per batch (KernelDensity draws
component indices and noise; Mixture draws selectors and components), so
this module pins the *exact* expectation per family — including the
expected failures.  If a numpy upgrade changes bulk-draw semantics, these
tests fail loudly and name the family.

The second half checks the same property one level up, where the ledger
actually operates: engine runs of compiled plans, on both the numpy and
fused engines.
"""

import numpy as np
import pytest

from repro.analysis.certify import PREFIX_STABLE_CLASSES, prefix_stable
from repro.core.conditionals import evaluation_config
from repro.core.engines import get_engine
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists import (
    Bernoulli,
    Beta,
    Binomial,
    Categorical,
    Cauchy,
    DiscreteUniform,
    Empirical,
    Exponential,
    FunctionDistribution,
    Gamma,
    Gaussian,
    KernelDensity,
    Laplace,
    LogNormal,
    Mixture,
    MultivariateGaussian,
    PointMass,
    Poisson,
    Rayleigh,
    StudentT,
    Triangular,
    TruncatedGaussian,
    Uniform,
    VonMises,
    Weibull,
)
from repro.rng import default_rng
from tests.kernel_path import kernel_ran_if_fused

#: Every public Distribution family with a representative instance and
#: whether a split draw must be bit-identical to a full draw.  A family
#: missing here is a test failure (see test_every_family_is_covered).
FAMILY_EXPECTATIONS = [
    ("Gaussian", Gaussian(1.0, 2.0), True),
    ("TruncatedGaussian", TruncatedGaussian(0.0, 1.0, -1.0, 2.0), True),
    ("MultivariateGaussian",
     MultivariateGaussian([0.0, 1.0], [[1.0, 0.2], [0.2, 1.0]]), True),
    ("Uniform", Uniform(-1.0, 3.0), True),
    ("DiscreteUniform", DiscreteUniform(0, 10), True),
    ("Bernoulli", Bernoulli(0.3), True),
    ("Binomial", Binomial(20, 0.4), True),
    ("Rayleigh", Rayleigh(2.0), True),
    ("Exponential", Exponential(1.5), True),
    ("Gamma", Gamma(2.0, 1.0), True),
    ("Beta", Beta(2.0, 5.0), True),
    ("Poisson", Poisson(4.0), True),
    ("Categorical", Categorical([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]), True),
    ("PointMass", PointMass(7.0), True),
    ("Triangular", Triangular(0.0, 1.0, 4.0), True),
    ("LogNormal", LogNormal(0.0, 0.5), True),
    ("StudentT", StudentT(5.0), True),
    ("Empirical", Empirical([1.0, 2.0, 3.0, 4.0, 5.0]), True),
    ("Weibull", Weibull(1.5, 2.0), True),
    ("Laplace", Laplace(0.0, 1.0), True),
    ("Cauchy", Cauchy(0.0, 1.0), True),
    ("VonMises", VonMises(0.0, 2.0), True),
    ("FunctionDistribution",
     FunctionDistribution(
         lambda rng: float(rng.standard_normal()),
         fn_n=lambda n, rng: rng.standard_normal(n),
     ), True),
    # Multi-call batches: component indices and values come from separate
    # bulk draws whose interleaving depends on the batch size, so a split
    # draw CANNOT equal a full draw.  The ledger must keep treating these
    # as non-extensible (replay mode); if numpy ever made these pass, the
    # certify gate could be widened — hence the exact False assertion.
    ("Mixture",
     Mixture([Gaussian(-2.0, 0.5), Gaussian(2.0, 0.5)], [0.4, 0.6]), False),
    ("KernelDensity", KernelDensity([0.0, 1.0, 2.0, 3.0]), False),
]

#: Families that split cleanly above yet stay out of the sample ledger's
#: prefix-stable table, each with the reason.
NOT_PREFIX_STABLE = {
    "TruncatedGaussian": "drawn by SciPy, whose sampler the table does not pin",
    "MultivariateGaussian": "its matrix product rounds rows differently at "
                            "larger batch sizes",
    "FunctionDistribution": "user code",
    "Mixture": "several generator calls per batch",
    "KernelDensity": "several generator calls per batch",
}

SPLITS = [(1, 31), (13, 19), (31, 1)]


def _split_matches(dist, n_head: int, n_tail: int, seed: int) -> bool:
    full = dist.sample_n(n_head + n_tail, default_rng(seed))
    rng = default_rng(seed)
    head = dist.sample_n(n_head, rng)
    tail = dist.sample_n(n_tail, rng)
    parts = np.concatenate([np.atleast_1d(head), np.atleast_1d(tail)])
    full = np.atleast_1d(full)
    if parts.shape != full.shape or parts.dtype != full.dtype:
        return False
    equal_nan = np.asarray(full).dtype.kind in "fc"
    return bool(np.array_equal(parts, full, equal_nan=equal_nan))


class TestFamilySplitDraw:
    @pytest.mark.parametrize(
        "name,dist,expected",
        FAMILY_EXPECTATIONS,
        ids=[name for name, _, _ in FAMILY_EXPECTATIONS],
    )
    def test_split_draw_matches_expectation(self, name, dist, expected):
        results = [
            _split_matches(dist, h, t, seed)
            for h, t in SPLITS
            for seed in (20140301, 8675309)
        ]
        if expected:
            assert all(results), (
                f"{name}: draw(n)+draw(N-n) diverged from draw(N); the "
                "sample ledger's stream mode is unsound for this family"
            )
        else:
            # Degenerate splits (e.g. a 1-row tail) can coincide; what
            # matters is that at least one split diverges, which is what
            # makes the family non-extensible for the ledger.
            assert not all(results), (
                f"{name}: split draws now match full draws — numpy's bulk "
                "draw semantics changed; revisit the ledger certify gate"
            )

    def test_every_family_is_covered(self):
        import repro.dists as dists

        covered = {name for name, _, _ in FAMILY_EXPECTATIONS}
        public = {
            name for name in dists.__all__
            if isinstance(getattr(dists, name), type)
            and issubclass(getattr(dists, name), dists.Distribution)
            and getattr(dists, name) is not dists.Distribution
        }
        assert public <= covered, (
            f"families missing a split-draw expectation: {public - covered}"
        )

    def test_prefix_stable_table_admits_exactly_the_splittable_families(self):
        admitted = {
            name for name, dist, _ in FAMILY_EXPECTATIONS if prefix_stable(dist)
        }
        # Every entry names one covered family: none is stale or misspelt.
        assert len(admitted) == len(PREFIX_STABLE_CLASSES)
        splittable = {
            name for name, _, splittable in FAMILY_EXPECTATIONS if splittable
        }
        assert admitted == splittable - set(NOT_PREFIX_STABLE)
        assert not admitted & set(NOT_PREFIX_STABLE)


@pytest.mark.usefixtures("hot_kernels")
class TestEngineSplitRun:
    """The same property at the level the ledger operates on: full plans."""

    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_single_draw_plan_extends(self, engine):
        u = Uncertain(Gaussian(5.0, 2.0)) * 1.5 + 3.0
        plan = compile_plan(u.node)
        with kernel_ran_if_fused(engine), evaluation_config(engine=engine):
            eng = get_engine(engine)
            full = eng.sample(plan, 40, default_rng(3))
            rng = default_rng(3)
            head = eng.sample(plan, 15, rng)
            tail = eng.sample(plan, 25, rng)
        assert np.array_equal(np.concatenate([head, tail]), full)

    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_shared_leaf_plan_extends(self, engine):
        z = Uncertain(Gaussian(0.0, 1.0))
        u = z + z  # one stochastic draw feeding two plan references
        plan = compile_plan(u.node)
        with kernel_ran_if_fused(engine), evaluation_config(engine=engine):
            eng = get_engine(engine)
            full = eng.sample(plan, 40, default_rng(5))
            rng = default_rng(5)
            head = eng.sample(plan, 15, rng)
            tail = eng.sample(plan, 25, rng)
        assert np.array_equal(np.concatenate([head, tail]), full)

    @pytest.mark.parametrize("engine", ["numpy", "fused"])
    def test_two_leaf_plan_does_not_extend(self, engine):
        u = Uncertain(Gaussian(0.0, 1.0)) + Uncertain(Uniform(0.0, 1.0))
        plan = compile_plan(u.node)
        with kernel_ran_if_fused(engine), evaluation_config(engine=engine):
            eng = get_engine(engine)
            full = eng.sample(plan, 40, default_rng(7))
            rng = default_rng(7)
            head = eng.sample(plan, 15, rng)
            tail = eng.sample(plan, 25, rng)
        assert not np.array_equal(np.concatenate([head, tail]), full), (
            "a two-leaf plan produced extension-stable streams; the ledger "
            "certify gate's replay classification is stale"
        )
