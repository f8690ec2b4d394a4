"""The end-to-end harness's pins on library names still hold.

``benchmarks.e2e.tracing.instrumented`` wraps library attributes by name
(``owner.__dict__[attr]``), so a renamed or removed one fails every traced
benchmark run.  Entering the block here makes that a tier-1 failure, and
the spans below show that a seeded one-shot draw still calls the wrapped
``SampleLedger.serve``, a sequential test calls no ledger method, and
the draw path calls the wrapped ``FusedEngine.run`` (the default engine)
with one engine span per engine run.
"""

from __future__ import annotations

from benchmarks.e2e.tracing import ServiceProbe, instrumented
from repro import Uncertain
from repro.core.conditionals import evaluation_config
from repro.core.ledger import SampleLedger, clear_ledger
from repro.dists import Gaussian
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.trace import tracing


def test_instrumented_enters_and_restores_every_pinned_attribute():
    serve, open_window = SampleLedger.serve, SampleLedger.open_window
    with instrumented(ServiceProbe()):
        assert SampleLedger.serve is not serve
    assert SampleLedger.serve is serve
    assert SampleLedger.open_window is open_window


def test_traced_draws_record_the_ledger_and_engine_spans():
    x = Uncertain(Gaussian(0.0, 1.0))
    scoped = RuntimeMetrics()
    clear_ledger()
    try:
        with instrumented(ServiceProbe()), tracing() as tracer:
            with evaluation_config(sample_cache=True, metrics=scoped):
                (x > 0.5).test(rng=1)
                tested = [s.name for s in tracer.spans]
                x.expected_value(1000, rng=2)
    finally:
        clear_ledger()
    names = [s.name for s in tracer.spans]
    assert not [n for n in tested if n.startswith("ledger.")]
    assert "ledger.serve" in names[len(tested):]
    engine_spans = [n for n in names if n.startswith("engine.")]
    assert set(engine_spans) == {"engine.fused.sample"}
    runs = sum(e["batches"] for e in scoped.snapshot()["engines"].values())
    assert len(engine_spans) == names.count("fused.run") == runs > 1
