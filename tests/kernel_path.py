"""Proof that a fused bit-identity test ran a kernel, not the NumPy engine.

The fused engine answers a shape's cold runs on the NumPy engine, which is
bit-identical by construction.  A test that means to check a generated
kernel uses the ``hot_kernels`` fixture (tests/conftest.py) and draws
inside :func:`kernel_ran`.
"""

from __future__ import annotations

import contextlib

from repro.core.conditionals import evaluation_config
from repro.runtime.metrics import RuntimeMetrics


@contextlib.contextmanager
def kernel_ran():
    """Fail unless a fused kernel was built or rebound inside the block.

    Yields the block's :class:`RuntimeMetrics`; a plan already bound to its
    kernel before the block counts neither, so start from a fresh plan.
    """
    metrics = RuntimeMetrics()
    with evaluation_config(metrics=metrics):
        yield metrics
    fused = metrics.snapshot()["fused"]
    assert fused["kernels_built"] + fused["kernel_hits"] > 0, (
        f"no fused kernel ran: {fused}"
    )


def kernel_ran_if_fused(engine: str):
    """:func:`kernel_ran` for the fused engine; no check for the others."""
    return kernel_ran() if engine == "fused" else contextlib.nullcontext()
