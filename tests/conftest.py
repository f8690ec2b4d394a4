"""Shared fixtures for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.rng import default_rng


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
