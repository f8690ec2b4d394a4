"""Per-layer timing for the traced run, from outside the library.

The library already records ``plan.compile``, ``engine.<name>.sample`` and
``test.<Kind>.run`` spans on the active :class:`repro.runtime.Tracer`.
:func:`instrumented` adds spans around the other layers by wrapping their
public entry points for the duration of a run (no file under ``src/``
changes); every wrapper is a pass-through while no tracer is installed, so
a traced run can alternate traced and untraced windows to measure the
tracing overhead.

:func:`self_times` turns the spans into a per-layer table whose rows add
up to the traced wall time.  A span's self time is its duration minus the
part its nested spans cover.  With a service worker thread, wall time is
attributed by priority: the main thread's layer spans first (under the
interpreter lock, graph building on the main thread stalls the worker),
then the worker thread's spans, and what remains of each ``workload.*``
root span is harness time (the harness loop, the load generator and, in an
open loop, idle time).
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

from repro.analysis import certify as _certify
from repro.core import optimizer as _optimizer
from repro.core.fused import FusedEngine
from repro.core.ledger import SampleLedger
from repro.life import variants as _variants
from repro.runtime import METRICS, Tracer
from repro.runtime import trace as _trace
from repro.service import Service
from repro.service import coalescer as _coalescer
from repro.service import service as _service

ROOT_PREFIX = "workload."

#: Span-name prefix -> layer; first match wins.
_LAYERS = (
    (ROOT_PREFIX, "harness"),
    ("uncertain.build", "uncertain.build"),
    ("plan.compile", "plan.compile"),
    ("optimizer", "optimizer"),
    ("certify.", "certify"),
    ("fused.run", "fused.run"),
    ("engine.", "engines"),
    ("ledger.", "ledger"),
    ("test.", "sprt"),
    ("coalescer.", "coalescer"),
    ("requests.", "requests.reduce"),
    ("query.", "requests.reduce"),
    ("expectation.", "requests.reduce"),
)

#: Every layer of the table, in pipeline order.
LAYERS = (
    "harness", "uncertain.build", "plan.compile", "optimizer", "certify",
    "fused.build", "fused.run", "engines", "ledger", "sprt", "coalescer",
    "requests.reduce",
)


def layer_of(span: dict) -> str:
    name = span["name"]
    if name == "fused.run" and span["attrs"].get("kernels_built"):
        return "fused.build"
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class ThreadTracer(Tracer):
    """A :class:`Tracer` that tags every span with its thread's name.

    The tags let :func:`self_times` nest spans per thread; the export
    schema stays ``repro.trace/1`` (the tag is one more attribute).
    """

    def span(self, name: str, **attrs):
        attrs["thread"] = threading.current_thread().name
        return super().span(name, **attrs)

    def record(self, name: str, start: float, duration: float, **attrs) -> None:
        attrs.setdefault("thread", threading.current_thread().name)
        super().record(name, start, duration, **attrs)


class ServiceProbe:
    """Queue waits seen by the traced service wrappers."""

    def __init__(self) -> None:
        self.submitted: dict[int, float] = {}
        self.queue_waits: list[float] = []


def _spanned(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _trace.get_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _fused_run(fn):
    @functools.wraps(fn)
    def run(self, plan, n, rng, memo=None, telemetry=None):
        tracer = _trace.get_tracer()
        if tracer is None:
            return fn(self, plan, n, rng, memo, telemetry)
        built = METRICS.fused_kernels_built
        with tracer.span("fused.run", n=int(n)) as attrs:
            values = fn(self, plan, n, rng, memo, telemetry)
            attrs["kernels_built"] = METRICS.fused_kernels_built - built
        return values

    return run


def _submit(fn, probe: ServiceProbe):
    @functools.wraps(fn)
    async def submit(self, request):
        tracer = _trace.get_tracer()
        if tracer is None:
            return await fn(self, request)
        start = perf_counter()
        probe.submitted[request.uid] = start
        try:
            return await fn(self, request)
        finally:
            # Recorded on completion, never opened across the await:
            # concurrent requests interleave on one thread, so they are
            # request-scoped spans outside the per-thread nesting.
            tracer.record("service.submit", start, perf_counter() - start,
                          uid=request.uid, concurrent=True)

    return submit


def _evaluate_batch(fn, probe: ServiceProbe):
    @functools.wraps(fn)
    def evaluate_batch(requests, **kwargs):
        tracer = _trace.get_tracer()
        if tracer is None:
            return fn(requests, **kwargs)
        start = perf_counter()
        for request in requests:
            submitted = probe.submitted.pop(request.uid, None)
            if submitted is not None:
                probe.queue_waits.append(start - submitted)
        with tracer.span("coalescer.evaluate_batch",
                         members=[r.uid for r in requests]):
            return fn(requests, **kwargs)

    return evaluate_batch


@contextlib.contextmanager
def instrumented(probe: ServiceProbe):
    """Wrap the layer entry points for the duration of the block."""
    patches = [
        (Service, "submit", _submit(Service.submit, probe)),
        (_service, "evaluate_batch", _evaluate_batch(_service.evaluate_batch, probe)),
        (_coalescer, "reduce_query", _spanned(_coalescer.reduce_query, "requests.reduce")),
        (_optimizer, "optimize_plan", _spanned(_optimizer.optimize_plan, "optimizer")),
        (_certify, "certify_kernel", _spanned(_certify.certify_kernel, "certify.kernel")),
        (_certify, "certify_rewrite", _spanned(_certify.certify_rewrite, "certify.rewrite")),
        (FusedEngine, "run", _fused_run(FusedEngine.run)),
        (SampleLedger, "serve", _spanned(SampleLedger.serve, "ledger.serve")),
        (SampleLedger, "open_window",
         _spanned(SampleLedger.open_window, "ledger.open_window")),
        (_variants, "sensor_sum", _spanned(_variants.sensor_sum, "uncertain.build")),
        (_variants, "corrected_sensor_sum",
         _spanned(_variants.corrected_sensor_sum, "uncertain.build")),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield probe
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- self time ---------------------------------------------------------------


def _innermost(spans):
    """Flatten one thread's nested ``(start, end, layer, root)`` spans into
    non-overlapping segments, each attributed to its innermost span."""
    out = []
    stack = []  # (end, layer, root)
    cursor = 0.0

    def emit(until):
        nonlocal cursor
        if until > cursor:
            end, layer, root = stack[-1]
            out.append((cursor, until, layer, root))
            cursor = until

    for start, end, layer, root in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= start:
            emit(stack[-1][0])
            stack.pop()
        if stack:
            emit(start)
            end = min(end, stack[-1][0])
        else:
            cursor = start
        stack.append((end, layer, root))
    while stack:
        emit(stack[-1][0])
        stack.pop()
    return out


def _minus(segments, cover):
    """``segments`` with the intervals of ``cover`` removed (both sorted,
    each non-overlapping)."""
    out = []
    j = 0
    for start, end, layer, root in segments:
        while j < len(cover) and cover[j][1] <= start:
            j += 1
        cur = start
        k = j
        while k < len(cover) and cover[k][0] < end:
            if cover[k][0] > cur:
                out.append((cur, cover[k][0], layer, root))
            cur = max(cur, cover[k][1])
            k += 1
        if cur < end:
            out.append((cur, end, layer, root))
    return out


def _clip(segments, windows):
    """The parts of ``segments`` inside ``windows`` (both sorted)."""
    out = []
    j = 0
    for start, end, layer, root in segments:
        while j < len(windows) and windows[j][1] <= start:
            j += 1
        k = j
        while k < len(windows) and windows[k][0] < end:
            lo, hi = max(start, windows[k][0]), min(end, windows[k][1])
            if hi > lo:
                out.append((lo, hi, layer, root))
            k += 1
    return out


def self_times(spans: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-layer self seconds, span counts and traced wall time.

    The traced wall time is the total duration of the ``workload.*`` root
    spans; the self times partition it (see the module docstring).
    """
    roots = sorted(
        (s for s in spans if s["name"].startswith(ROOT_PREFIX)),
        key=lambda s: s["start"],
    )
    totals = {layer: 0.0 for layer in LAYERS}
    counts = {layer: 0 for layer in LAYERS}
    if not roots:
        return totals, counts, 0.0
    main = roots[0]["attrs"].get("thread")
    windows = [(s["start"], s["start"] + s["duration"]) for s in roots]
    by_thread: dict[str, list] = defaultdict(list)
    for s in spans:
        if s["duration"] <= 0 or s["attrs"].get("concurrent"):
            continue
        layer = layer_of(s)
        counts[layer] = counts.get(layer, 0) + 1
        by_thread[s["attrs"].get("thread", main)].append(
            (s["start"], s["start"] + s["duration"], layer,
             s["name"].startswith(ROOT_PREFIX))
        )
    main_segments = _innermost(by_thread.pop(main, []))
    first = _clip([seg for seg in main_segments if not seg[3]], windows)
    others = sorted(seg for spans_ in by_thread.values() for seg in _innermost(spans_))
    second = _minus(_clip(others, windows), first)
    wall = sum(hi - lo for lo, hi in windows)
    for start, end, layer, _ in first + second:
        totals[layer] = totals.get(layer, 0.0) + (end - start)
    totals["harness"] += wall - sum(totals.values())
    return totals, counts, wall
