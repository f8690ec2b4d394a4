"""The differential oracle: every configuration draws the NumPy engine's rows.

One plan generator feeds every check.  Its plans are the
``CERTIFY_CORPUS`` plans, the certifier suite's 40 random plans, a table
of typed constants and two Hypothesis strategies: random plans over the
three trusted leaf families, point masses and the operators kernels
fuse, and chains of int32 or float32 constants, with or without a
Poisson leaf, that Python scalars meet.  The parameter
axis rebuilds a plan's topology with fresh node objects and other leaf
values (:func:`rebind`), a Gaussian with σ = 0 included.

- **Engine × ledger:** on the ``numpy``, ``fused`` and ``interpreter``
  engines, with the sample ledger off and on, a plan's rows equal its
  NumPy-engine rows bit for bit.  On the fused engine each graph is drawn
  until its shape is hot, and a kernel must have run.  Beyond seeded
  ``samples``, four more query forms give the same answer with the ledger
  on as off: a seeded SPRT ``test``, adaptive ``E``, a loop of
  ``samples`` on one explicit ``Generator`` and ambient ``samples`` under
  ``evaluation_config(rng=...)``.
- **Parameters:** two graphs of one topology with different leaf values,
  drawn in turn under one configuration, each draw their own NumPy rows:
  a shared shape, kernel, ledger or coalescer group never hands one
  graph's rows, or a kernel that does not fit it, to the other.
- **Fingerprints:** the first 1 000 rows at seed 0 on the NumPy engine of
  each corpus plan keep their committed BLAKE2b digest, so a changed
  reference stream fails as the list of plans whose stream moved.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.demos import CERTIFY_CORPUS
from repro.core.conditionals import evaluation_config
from repro.core.expectation import expected_value_adaptive
from repro.core.fused import FusedFallbackWarning
from repro.core.graph import LeafNode
from repro.core.uncertain import Uncertain, UncertainBool
from repro.dists import Exponential, Gaussian, Poisson, Uniform
from repro.evaluate import clear_caches
from repro.rng import default_rng
from repro.service import QueryRequest, evaluate_batch
from tests.analysis.test_certify import _random_fusable
from tests.kernel_path import kernel_ran

ENGINES = ("numpy", "fused", "interpreter")
ROWS = 64
SEED = 11

#: BLAKE2b (16-byte) digest of the dtype and the first 1 000 rows at seed
#: 0 on the NumPy engine, per corpus plan (:func:`stream_fingerprint`).
STREAM_FINGERPRINTS = {
    "const-fold": "ec3e3815f6e6a6b0457812d20263cfaf",
    "correlated-compare": "8ee0d3cabe96273fa6f76c821365ef7d",
    "decided-comparison": "62ab66fcb1e07958cf93f62312ebe0d3",
    "div-by-zero": "30a9536124d7355eea2d8e8c3a845168",
    "fig08": "7b67c67ed1f778251345a0ffda5294d7",
    "gps-window": "51b1f8fef78a733e80dca2ca4d1f4d05",
    "iid-reconstruction": "3a24d06a05a5c4cb6a6f7d454dfc4063",
    "log-domain": "raises ValueError",
    "quickstart": "dd828fdec846d965e2e41d4a44c0ca72",
    "self-compare": "8ee0d3cabe96273fa6f76c821365ef7d",
    "sprt-sum": "8a5f594bed59f2ff11567324d36b6a2f",
}


@functools.cache
def _generated() -> list[Uncertain]:
    rng = random.Random(2014)
    return [_random_fusable(rng) for _ in range(40)]


_pm = Uncertain.pointmass

#: Constants whose ``np.full`` rows differ from what a Python scalar of
#: the same value, read in a kernel, would give (NEP 50 promotes it
#: weakly): int32 chains the engine widens to int64 (so ``* 4096`` must
#: not wrap to 0, nor ``* 2**31`` overflow), a float32 chain it widens to
#: float64, and ``2**63``, a uint64 array; ``True`` and a float32 factor
#: beside a float64 leaf.
TYPED_CONSTANTS = {
    "int32-times-4096": lambda: _pm(np.int32(2**20)) * _pm(np.int32(2**10)) * 4096,
    "int32-times-2**31-plus-x": lambda: (
        (_pm(np.int32(3)) * _pm(np.int32(5)) * 2**31)
        + Uncertain(Gaussian(0.0, 1.0))),
    "float32-times-2.7": lambda: _pm(np.float32(1.1)) * _pm(np.float32(1.3)) * 2.7,
    "poisson-plus-2**63": lambda: Uncertain(Poisson(3.0)) + 2**63,
    "x-plus-True": lambda: Uncertain(Gaussian(0.0, 1.0)) + True,
    "x-times-float32": lambda: Uncertain(Gaussian(0.0, 1.0)) * np.float32(2.5),
}


#: Topology templates: the corpus plans, the certifier's random plans and
#: the typed constants.
SEEDS = {
    **CERTIFY_CORPUS,
    **{f"random-{i}": (lambda i=i: _generated()[i]) for i in range(40)},
    **TYPED_CONSTANTS,
}

_FAMILIES = (Gaussian, Uniform, Exponential)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _trusted_leaves(value: Uncertain) -> list[LeafNode]:
    """The leaves whose parameters :func:`rebind` replaces, in slot order."""
    return [
        step.node for step in value.plan.steps
        if type(step.node) is LeafNode and type(step.node.dist) in _FAMILIES
    ]


def _dist(old, params):
    mu, sigma, low, width, rate = params
    kind = type(old)
    if kind is Gaussian:
        return Gaussian(mu, sigma)
    if kind is Uniform:
        return Uniform(low, low + width)
    return Exponential(rate)


def rebind(value: Uncertain, params) -> Uncertain:
    """A fresh graph of ``value``'s topology whose Gaussian, Uniform and
    Exponential leaves take ``params[i]`` (``(mu, sigma, low, width,
    rate)``, the fields of each family) in slot order."""
    fresh: dict = {}
    leaves = iter(params)
    for step in value.plan.steps:
        node = step.node
        clone = copy.copy(node)
        clone.parents = tuple(fresh[p] for p in node.parents)
        if type(node) is LeafNode and type(node.dist) in _FAMILIES:
            clone.dist = _dist(node.dist, next(leaves))
        fresh[node] = clone
    return Uncertain.from_node(fresh[value.node])


def jittered(value: Uncertain, shift: float, zero_sigma: bool) -> list:
    """Deterministic leaf parameters for the parameter axis; with
    ``zero_sigma`` the first Gaussian leaf gets σ = 0."""
    params, zeroed = [], not zero_sigma
    for i, leaf in enumerate(_trusted_leaves(value)):
        sigma = 0.5 + shift + 0.1 * i
        if type(leaf.dist) is Gaussian and not zeroed:
            sigma, zeroed = 0.0, True
        params.append((shift - 0.3 * i, sigma, shift - 1.0, 1.5 + 0.2 * i,
                       1.0 + shift + 0.1 * i))
    return params


def draw(value: Uncertain, n: int = ROWS, seed: int = SEED):
    """``value.samples(n, rng=seed)``, or the name of the exception it
    raised (``math.log`` of a negative row raises on every engine)."""
    try:
        return np.asarray(value.samples(n, rng=seed))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__


def numpy_rows(value: Uncertain, n: int = ROWS, seed: int = SEED):
    with evaluation_config(engine="numpy", sample_cache=False):
        return draw(value, n, seed)


def assert_same_rows(got, want, where: str) -> None:
    if isinstance(want, str) or isinstance(got, (str, BaseException)):
        got = got if isinstance(got, str) else type(got).__name__
        assert got == want, f"outcomes differ: {where}"
        return
    got = np.asarray(got)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), where
    assert got.tobytes() == want.tobytes(), f"rows differ: {where}"


def draw_until_hot(value: Uncertain, want, where: str) -> None:
    """Draw ``value`` three times (the third run of a shape builds its
    kernel); every draw must return ``want``."""
    for i in range(3):
        assert_same_rows(draw(value), want, f"{where} #{i}")


def check_configurations(template: Uncertain, params_a, params_b) -> None:
    """Both axes for two parameter vectors of ``template``'s topology."""
    pair = [rebind(template, params_a), rebind(template, params_b)]
    want = [numpy_rows(value) for value in pair]
    with warnings.catch_warnings():
        # A kernel that does not fit a plan of its shape falls back with
        # a warning: for the oracle that is a failure, not a fallback.
        warnings.simplefilter("error", FusedFallbackWarning)
        for engine in ENGINES:
            for ledger in (False, True):
                where = f"engine={engine} ledger={ledger}"
                # Fresh graphs per configuration: each starts cold.
                a, b = (rebind(template, p) for p in (params_a, params_b))
                with evaluation_config(engine=engine, sample_cache=ledger):
                    for i, value in enumerate((a, b, a)):
                        label = f"{where} graph {'aba'[i]}"
                        if engine == "fused" and not ledger and i < 2:
                            with kernel_ran():
                                draw_until_hot(value, want[i], label)
                        else:
                            draw_until_hot(value, want[i % 2], label)
    check_coalescer(pair, want)


def check_coalescer(pair, want) -> None:
    """Seeded requests of both graphs in one batch each get their own
    graph's rows: a coalescer group shares one plan."""
    requests = [QueryRequest(value=value, kind="samples", seed=SEED,
                             samples=ROWS) for value in pair * 2]
    with evaluation_config(engine="fused", sample_cache=False):
        outcomes = evaluate_batch(requests)
    for i, outcome in enumerate(outcomes):
        got = outcome if isinstance(outcome, BaseException) else outcome.value
        assert_same_rows(got, want[i % 2], f"batched request {i}")


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_engines_and_ledger_draw_the_numpy_rows(name):
    template = SEEDS[name]()
    params = jittered(template, 0.25, zero_sigma=False)
    check_configurations(template, params, params)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_graphs_of_one_topology_draw_their_own_rows(name):
    template = SEEDS[name]()
    check_configurations(
        template,
        jittered(template, 0.25, zero_sigma=False),
        jittered(template, 0.75, zero_sigma=True),
    )


# -- query forms: the ledger never changes an answer ---------------------------

#: Plans for the query forms: one leaf, two leaves, a constant chain and
#: a 24-slot comparison.
QUERY_PLANS = {
    "one-leaf": lambda: Uncertain(Gaussian(0.3, 1.0)),
    "two-leaf": lambda: Uncertain(Gaussian(0.3, 1.0)) + Uncertain(Uniform(-1.0, 1.0)),
    "quickstart": CERTIFY_CORPUS["quickstart"],
    "sprt-sum": CERTIFY_CORPUS["sprt-sum"],
}


def _condition(value: Uncertain) -> UncertainBool:
    """``value`` itself if it is a condition, else ``value`` above its
    30 % quantile (true about 70 % of the time, so the SPRT takes some
    batches and decides)."""
    if isinstance(value, UncertainBool):
        return value
    return value > float(np.quantile(numpy_rows(value, 1000, 0), 0.3))


def _sprt(value: Uncertain):
    result = _condition(value).test(0.5, rng=SEED)
    return result.decision, result.samples_used, result.successes


def _adaptive_e(value: Uncertain):
    return expected_value_adaptive(value, tolerance=0.02, batch_size=50,
                                   max_samples=2000, rng=SEED)


def _explicit_generator(value: Uncertain):
    rng = default_rng(3)
    return np.stack([value.samples(100, rng=rng) for _ in range(3)]).tobytes()


def _ambient(value: Uncertain):
    with evaluation_config(rng=default_rng(3)):
        return np.stack([value.samples(100) for _ in range(3)]).tobytes()


QUERY_FORMS = {
    "sprt": _sprt,
    "adaptive-E": _adaptive_e,
    "explicit-generator": _explicit_generator,
    "ambient": _ambient,
}


@pytest.mark.parametrize("form", sorted(QUERY_FORMS))
@pytest.mark.parametrize("name", sorted(QUERY_PLANS))
def test_every_query_form_is_the_same_with_the_ledger_on(name, form):
    ask = QUERY_FORMS[form]
    with evaluation_config(engine="numpy", sample_cache=False):
        want = ask(QUERY_PLANS[name]())
    for engine in ENGINES:
        for ledger in (False, True):
            clear_caches()
            value = QUERY_PLANS[name]()
            with evaluation_config(engine=engine, sample_cache=ledger):
                # Asked three times: the third ask of a shape runs a kernel,
                # and a ledger that kept rows serves the later asks.
                for i in range(3):
                    got = ask(value)
                    assert got == want, (
                        f"engine={engine} ledger={ledger} ask #{i}: {form} differs")


# -- generated plans -----------------------------------------------------------

#: Constants for generated plans: Python and NumPy-typed scalars, and
#: ``2**63`` (a uint64 ``np.full``).  No int past 64 bits: its object rows
#: have no bytes to compare.
_CONSTANTS = (2, 2.5, -3.0, np.int32(2), np.float32(2.5), 2**63)
_SCALARS = (1, 1.5, -2.0, np.int32(2), np.float32(2.5), 2**63)

_LEAF_PARAMS = st.tuples(
    st.floats(-5.0, 5.0),
    st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 4.0),
    st.floats(0.2, 5.0),
)


@st.composite
def random_plans(draw) -> Uncertain:
    """A random plan: 1-5 leaves (the trusted families and point masses)
    combined by 1-8 of the operators kernels fuse."""
    kinds = draw(st.lists(st.sampled_from(["gauss", "uniform", "expo", "point"]),
                          min_size=1, max_size=5))
    exprs = []
    for kind in kinds:
        if kind == "gauss":
            exprs.append(Uncertain(Gaussian(0.0, 1.0)))
        elif kind == "uniform":
            exprs.append(Uncertain(Uniform(0.0, 1.0)))
        elif kind == "expo":
            exprs.append(Uncertain(Exponential(1.0)))
        else:
            exprs.append(Uncertain.pointmass(draw(st.sampled_from(_CONSTANTS))))
    pick = st.integers(0, 10**6)
    for op in draw(st.lists(st.sampled_from(["+", "-", "*", "/", ">", "neg",
                                             "sqrt", "scalar"]),
                            min_size=1, max_size=8)):
        a = exprs[draw(pick) % len(exprs)]
        b = exprs[draw(pick) % len(exprs)]
        if op == "neg":
            exprs.append(-a)
        elif op == "sqrt":
            exprs.append((a * a).map(np.sqrt, vectorized=True))
        elif op == "scalar":
            exprs.append(a + draw(st.sampled_from(_SCALARS)))
        elif op == ">":
            exprs.append(a > b)
        else:
            exprs.append({"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op])
    return exprs[-1]


#: Per chain dtype: the values of its typed point masses and scalars, and
#: Python scalars of the same kind.  A Python scalar is weak under NEP 50,
#: so read as one it would keep the chain's dtype, where the engine's
#: ``np.full`` array widens it (int32 to int64, float32 to float64).
_TYPED_CHAINS = {
    np.int32: ((3, 2**10, 2**20), (5, 4096, 2**31 - 1)),
    np.float32: ((1.1, 1.3, 2.5), (2.7, -0.3, 1.5)),
}


@st.composite
def typed_chains(draw) -> Uncertain:
    """A chain of int32 or float32 point masses and scalars, with or
    without a Poisson leaf (int64 rows), in which Python scalars of the
    chain's kind meet the typed values at least once: a judge of how a
    kernel promotes its constants."""
    dtype = draw(st.sampled_from(tuple(_TYPED_CHAINS)))
    typed, python = (st.sampled_from(pool) for pool in _TYPED_CHAINS[dtype])
    value = _pm(dtype(draw(typed)))
    ops = draw(st.lists(st.sampled_from(["pm+", "pm-", "pm*", "typed+", "typed*",
                                         "py+", "py*"]), max_size=5))
    ops.insert(draw(st.integers(0, len(ops))), draw(st.sampled_from(["py+", "py*"])))
    if draw(st.booleans()):
        ops.insert(draw(st.integers(0, len(ops))), "poisson")
    for op in ops:
        if op == "poisson":
            value = value + Uncertain(Poisson(3.0))
            continue
        kind, sym = op[:-1], op[-1]
        if kind == "pm":
            other = _pm(dtype(draw(typed)))
        elif kind == "typed":
            other = dtype(draw(typed))
        else:
            other = draw(python)
        value = {"+": value + other, "-": value - other, "*": value * other}[sym]
    return value


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(template=st.one_of(st.sampled_from(sorted(SEEDS)).map(lambda n: SEEDS[n]()),
                          random_plans(), typed_chains()),
       data=st.data())
def test_generated_plans_draw_their_own_rows(template, data):
    count = len(_trusted_leaves(template))
    params = st.lists(_LEAF_PARAMS, min_size=count, max_size=count)
    check_configurations(template, data.draw(params), data.draw(params))


# -- stream fingerprints -------------------------------------------------------


def stream_fingerprint(value: Uncertain) -> str:
    rows = numpy_rows(value, 1000, 0)
    if isinstance(rows, str):
        return f"raises {rows}"
    digest = hashlib.blake2b(rows.dtype.str.encode(), digest_size=16)
    digest.update(np.ascontiguousarray(rows).tobytes())
    return digest.hexdigest()


def test_every_corpus_plan_keeps_its_stream():
    found = {name: stream_fingerprint(build())
             for name, build in sorted(CERTIFY_CORPUS.items())}
    moved = sorted(name for name in found
                   if STREAM_FINGERPRINTS.get(name) != found[name])
    assert not moved, f"reference streams changed: {moved}"
