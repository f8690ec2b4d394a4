"""One query, one answer: ``Uncertain`` and the service agree bit for bit.

A seeded request is answered from ``default_rng(SeedSequence(seed))``,
drawn through the same ``sampling.Draw`` the ``Uncertain`` methods use and
reduced by the same ``reduce_samples``.  So each method, handed the
request's generator with the ledger off, returns the service's answer
exactly — for scalar, vector and object (``GeoCoordinate``) values — and
the service honours the ``on_nonfinite`` policy of the config it runs
under, as a solo draw does.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import NonFiniteError, Uncertain
from repro.core.conditionals import EvaluationConfig, evaluation_config
from repro.dists import Gaussian, MultivariateGaussian
from repro.gps.geo import GeoCoordinate
from repro.gps.sensor import GpsFix, gps_posterior
from repro.service import QueryRequest, Service, evaluate_batch, evaluate_request

SEEDS = (0, 7, 12345)
N = 257


def scalar() -> Uncertain:
    return 2 * Uncertain(Gaussian(1.0, 2.0)) + Uncertain(Gaussian(-3.0, 1.5))


def vector() -> Uncertain:
    cov = np.array([[1.0, 0.3], [0.3, 4.0]])
    return Uncertain(MultivariateGaussian([1.0, 100.0], cov))


def geo() -> Uncertain:
    return gps_posterior(GpsFix(GeoCoordinate(47.6, -122.3), 4.0, 0.0))


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
        )
    return type(a) is type(b) and a == b


def answer(value, kind, seed, **params):
    request = QueryRequest(value=value, kind=kind, seed=seed, **params)
    result = evaluate_request(request)
    return request, result


# Each query kind: the request's parameters and the matching method call.
METHODS = {
    "sample": ({}, lambda v, rng: v.sample(rng)),
    "samples": ({"samples": N}, lambda v, rng: v.samples(N, rng)),
    "expected_value": (
        {"samples": N}, lambda v, rng: v.expected_value(N, rng),
    ),
    "percentiles": (
        {"samples": N, "divisions": 10},
        lambda v, rng: v.percentiles(10, samples=N, rng=rng),
    ),
    "confidence_interval": (
        {"samples": N, "level": 0.8},
        lambda v, rng: v.confidence_interval(0.8, samples=N, rng=rng),
    ),
}

CASES = [
    (build, kind)
    for build, kinds in (
        (scalar, list(METHODS)),
        (vector, list(METHODS)),
        (geo, ["sample", "samples", "expected_value"]),
    )
    for kind in kinds
]


@pytest.fixture(autouse=True)
def ledger_off():
    with evaluation_config(sample_cache=False, engine="numpy"):
        yield


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "build, kind", CASES, ids=[f"{b.__name__}-{k}" for b, k in CASES]
)
def test_method_equals_request(build, kind, seed):
    value = build()
    params, method = METHODS[kind]
    request, result = answer(value, kind, seed, **params)
    assert same(method(value, request.rng()), result.value)


def first_component(value: Uncertain) -> Uncertain:
    return value.map(lambda rows: rows[:, 0], vectorized=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "question",
    [lambda: scalar() > 1.0, lambda: first_component(vector()) > 1.0],
    ids=["scalar", "vector"],
)
def test_evidence_equals_pr_request(question, seed):
    question = question()
    request, result = answer(question, "pr", seed, samples=N, threshold=0.3)
    evidence = question.evidence(N, request.rng())
    assert same(evidence, result.extra["evidence"])
    assert result.value == (evidence > 0.3)


def log_of_gaussian() -> Uncertain:
    # About half the rows are log of a negative number: NaN.
    return Uncertain(Gaussian(0.0, 1.0)).map(np.log, vectorized=True)


def test_a_seedless_request_draws_from_the_configs_generator():
    # Like every Uncertain query: ``rng=None`` is ``config.rng``, not a
    # fresh stream of the default seed on every call.
    value = scalar()
    answers = []
    for seed in (7, 8):
        with evaluation_config(rng=np.random.default_rng(seed)):
            got = evaluate_request(
                QueryRequest(value, "expected_value", samples=500)).value
        with evaluation_config(rng=np.random.default_rng(seed)):
            assert got == value.expected_value(500)
        answers.append(got)
    assert answers[0] != answers[1]


@pytest.mark.parametrize("seed", [3, None])
def test_evaluate_batch_honours_its_config(seed):
    config = EvaluationConfig(on_nonfinite="raise")
    request = QueryRequest(log_of_gaussian(), "samples", seed=seed, samples=50)
    [outcome] = evaluate_batch([request], config=config)
    assert isinstance(outcome, NonFiniteError)


def test_service_honours_the_policy_it_started_under():
    # The service copies the ambient config when it starts; requests served
    # after the caller's block has ended still run under that copy.
    value = log_of_gaussian()
    service = Service(engine="numpy", window=0.001)

    async def scenario():
        with evaluation_config(on_nonfinite="raise"):
            await service.start()
        try:
            return await asyncio.gather(
                service.submit(QueryRequest(value, "samples", seed=1, samples=50)),
                service.submit(QueryRequest(value, "samples", samples=50)),
                return_exceptions=True,
            )
        finally:
            await service.stop()

    outcomes = asyncio.run(scenario())
    assert all(isinstance(o, NonFiniteError) for o in outcomes)
