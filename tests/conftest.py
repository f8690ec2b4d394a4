"""Shared fixtures for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.rng import default_rng
from tests.ledger_checks import assert_ledger_consistent


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Check the sample ledger's bookkeeping after every test that passed.

    A hook, not an autouse fixture: a fixture's check would run after the
    suites' own fixtures have cleared the ledger, and check nothing.
    """
    result = yield
    assert_ledger_consistent()
    return result


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Deterministic per-test generator (seeded from the test's node id).

    CRC-32, not ``hash()``: string hashes are salted per process, which
    would give every run a different stream.
    """
    return default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def fixed_rng() -> np.random.Generator:
    """A generator with a fixed, test-independent seed."""
    return default_rng(12345)


@pytest.fixture
def hot_kernels(monkeypatch):
    """Build a shape's fused kernel on its first run instead of on its
    ``repro.core.fused._HOT_RUNS``-th.

    Below the threshold the fused engine runs the NumPy engine, so a suite
    comparing one fused draw with the reference engines would otherwise
    compare NumPy with itself.  Pair it with ``tests.kernel_path.kernel_ran``.
    """
    from repro.core import fused

    monkeypatch.setattr(fused, "_HOT_RUNS", 1)
