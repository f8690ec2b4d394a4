"""Cold start: ``import repro`` and the query paths the workloads run load
neither SciPy nor networkx; the APIs that need them import them on first
call.  ``http.server`` (with ``email``) loads only with the metrics
endpoint.

Both halves run in a fresh interpreter, because this one has long since
imported SciPy through other suites.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

#: Refuses ``scipy`` and ``networkx``: any import of them, at module level
#: or on a query path, raises ``ImportError`` in the child interpreter.
REFUSE_SCIPY_AND_NETWORKX = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is refused on the cold path")
        return None

sys.meta_path.insert(0, Refuse())
"""

COLD_PATH = """
import importlib
import pkgutil

import numpy as np

import repro
import repro.analysis.certify
import repro.core.fused
import repro.core.ledger
import repro.evaluate
import repro.life
import repro.runtime
import repro.service
from repro import Uncertain, evaluation_config
from repro.dists import Gaussian
from repro.life import BayesLife, SensorLife
from repro.service import QueryRequest, evaluate_request

value = Uncertain(Gaussian(1.0, 2.0)) * 0.5 + Uncertain(Gaussian(0.0, 1.0))
print(value.expected_value(500, rng=1))
print((value > 0.4).pr(0.5, rng=2), (value > 0.4).test(0.5, rng=3).decision)
with evaluation_config(engine="fused", sample_cache=True):
    print(value.confidence_interval(0.95, samples=2000, rng=4))
    print(value.percentiles(20, samples=2000, rng=5)[[0, -1]])
print(evaluate_request(QueryRequest(value, "expected_value", seed=7, samples=500)).value)
print(evaluate_request(QueryRequest(value > 0.4, "pr", seed=8)).value)
neighbors = np.array([1, 1, 0, 1, 0, 0, 0, 0])
for variant in (SensorLife(0.3), BayesLife(0.3)):
    print(variant.decide(True, neighbors, np.random.default_rng(9)).will_be_alive)
assert not [m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")]

# Every other module of the package imports without them too.
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
"""


def _python(script: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def test_import_and_workload_queries_need_neither_scipy_nor_networkx():
    _python(REFUSE_SCIPY_AND_NETWORKX + COLD_PATH)


METRICS_ENDPOINT = """
import asyncio
import sys

import repro

assert "http.server" not in sys.modules
assert not [m for m in sys.modules if m.split(".")[0] == "email"]

import urllib.request

from repro.service import Service, serve_metrics


async def scrape():
    async with Service(engine="numpy") as svc:
        with serve_metrics(svc) as server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=5.0) as resp:
                return resp.status, resp.read().decode()


status, body = asyncio.run(scrape())
assert status == 200 and "repro_service_queue_depth 0" in body
print(status)
"""


def test_http_server_loads_with_the_metrics_endpoint_only():
    assert _python(METRICS_ENDPOINT).strip() == "200"


#: Shared by the child interpreters and this process.
ENTRY_POINT_PRELUDE = """
import json
import sys

import numpy as np

from repro import Uncertain
from repro.core.expectation import expected_value
from repro.core.sprt import FixedSampleTest, GroupSequentialTest
from repro.dists import (
    Beta, Binomial, Gamma, Gaussian, MultivariateGaussian, Poisson, StudentT,
    TruncatedGaussian, VonMises,
)
from repro.gps.geo import GeoCoordinate
from repro.gps.priors import build_road_graph, distance_to_roads_m

GRID = np.linspace(-0.5, 3.5, 9)


def run_test(test):
    result = (Uncertain(Gaussian(0.2, 1.0)) > 0.0).test(test=test, rng=11)
    return [result.decision.value, result.samples_used, result.successes]


def truncated():
    d = TruncatedGaussian(1.0, 2.0, 0.0, 3.0)
    return [d.sample_n(4, np.random.default_rng(13)), d.log_pdf(GRID), d.cdf(GRID),
            d.mean, d.variance]


def roads():
    a, b, c = GeoCoordinate(0.0, 0.0), GeoCoordinate(0.0, 0.01), GeoCoordinate(0.01, 0.01)
    graph = build_road_graph([(a, b), (b, c)])
    return [graph.number_of_edges(), distance_to_roads_m(GeoCoordinate(0.005, 0.002), graph)]


def as_json(result):
    if isinstance(result, (list, tuple)):
        return "[" + ", ".join(as_json(item) for item in result) + "]"
    return json.dumps(result.tolist() if hasattr(result, "tolist") else result)
"""

#: Each public entry point that imports SciPy (or networkx) on first use,
#: and the module it must load to answer.
ENTRY_POINTS = {
    "FixedSampleTest": ("scipy", "run_test(FixedSampleTest(0.5, n=400, significance=0.05))"),
    "GroupSequentialTest": ("scipy", "run_test(GroupSequentialTest(0.5, group_size=50))"),
    "adaptive_E": (
        "scipy",
        "expected_value(Uncertain(Gaussian(1.0, 1.0)), tolerance=0.05, rng=12, adaptive=True)",
    ),
    "TruncatedGaussian": ("scipy", "truncated()"),
    "MultivariateGaussian.log_pdf": (
        "scipy",
        "MultivariateGaussian([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]]).log_pdf([[0.5, 0.5], [1, 2]])",
    ),
    "StudentT": ("scipy", "[StudentT(3.0, 1.0, 2.0).log_pdf(GRID), StudentT(3.0).cdf(GRID)]"),
    "Beta": ("scipy", "[Beta(2.0, 3.0).log_pdf(GRID / 4), Beta(2.0, 3.0).cdf(GRID / 4)]"),
    "Gamma": ("scipy", "[Gamma(2.5, 1.5).log_pdf(GRID), Gamma(2.5, 1.5).cdf(GRID)]"),
    "Poisson": ("scipy", "Poisson(2.5).log_pdf(np.arange(-1, 7))"),
    "Binomial": ("scipy", "Binomial(6, 0.3).log_pdf(np.arange(-1, 8))"),
    "VonMises": ("scipy", "[VonMises(0.5, 2.0).log_pdf(GRID), VonMises(0.5, 2.0).variance]"),
    "build_road_graph": ("networkx", "roads()"),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_imports_its_dependency_on_first_call(name):
    module, expression = ENTRY_POINTS[name]
    script = (
        ENTRY_POINT_PRELUDE
        + f"assert {module!r} not in sys.modules\n"
        + f"result = {expression}\n"
        + f"assert {module!r} in sys.modules\n"
        + "print(as_json(result))\n"
    )
    here: dict = {}
    exec(ENTRY_POINT_PRELUDE, here)
    assert _python(script).strip() == here["as_json"](eval(expression, here))
