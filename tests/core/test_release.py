"""Rows live only while something reads them.

A memo-free draw whose caller reads only the root lets the NumPy engine
drop each slot's batch after its last consumer, and a fused kernel
deletes each variable after its last read and draws a new block once the
open one is dead.  Neither changes a value; both bound the peak memory of
one large draw by the plan's widest cut, not by its slot count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from benchmarks.e2e.inputs import fig08_root
from repro.analysis.demos import CERTIFY_CORPUS
from repro.core.engines import get_engine
from repro.core.plan import compile_plan
from repro.core.structural import clear_structural_cache
from tests.kernel_path import kernel_ran

N = 20_000
ROW = N * 8  # bytes of one float64 n-row array


@pytest.fixture(autouse=True)
def _fresh_shapes():
    clear_structural_cache()
    yield
    clear_structural_cache()


def fig08_speed_plan():
    """The plan of the Fig 8 speed estimate (102 slots)."""
    return compile_plan(fig08_root().parents[0])


def draw_peak(engine: str, plan) -> int:
    """Traced peak bytes of one ``N``-row ``sample`` of ``plan``."""
    eng = get_engine(engine)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        eng.sample(plan, N, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestPeakOfOneDraw:
    def test_numpy_engine_holds_the_widest_cut_not_every_slot(self):
        plan = fig08_speed_plan()
        assert len(plan.steps) == 102
        # Every slot held to the end was 102 rows.
        assert draw_peak("numpy", plan) < 24 * ROW

    def test_a_cold_fused_run_releases_like_the_numpy_engine(self):
        plan = fig08_speed_plan()
        shape = plan.shape
        assert draw_peak("fused", plan) < 24 * ROW
        assert shape.kernel is None  # the NumPy engine ran it

    @pytest.mark.usefixtures("hot_kernels")
    def test_fused_kernel_holds_one_block_at_a_time(self):
        plan = fig08_speed_plan()
        with kernel_ran():
            get_engine("fused").sample(plan, 8, np.random.default_rng(0))
        # One 34-leaf block plus its readers was 43 rows.  The widest cut
        # is 22.02 rows: the unfolded ``deg2rad`` and ``earth_r``
        # constants are two n-row arrays that live across the draw.
        assert draw_peak("fused", plan) < 23 * ROW


def corpus_plan(name: str):
    """The plan of ``CERTIFY_CORPUS[name]``, or the Fig 8 speed plan."""
    if name == "fig08-speed":
        return fig08_speed_plan()
    return CERTIFY_CORPUS[name]().plan


PLANS = ["fig08-speed", *sorted(CERTIFY_CORPUS)]


def numpy_run(plan, n: int, release: bool):
    """Every slot of one seeded NumPy-engine run (or the error's type)."""
    try:
        return get_engine("numpy").run(
            plan, n, np.random.default_rng(5), None, release
        )
    except ValueError as exc:  # log-domain: a math domain error
        return type(exc)


def assert_last_read_releases_once(plan):
    """Each interior slot is released once, by its last reader; the root never."""
    # What a releasing run drops after each step: each parent whose last
    # reader is that step, once however often the step reads it.
    released = [
        p
        for step in plan.steps
        for p in dict.fromkeys(step.parent_slots)
        if plan.last_read[p] == step.slot
    ]
    assert sorted(released) == [
        s.slot for s in plan.steps if s.slot != plan.root_slot
    ]
    assert plan.last_read[plan.root_slot] == -1
    for slot, last in enumerate(plan.last_read):
        readers = [s.slot for s in plan.steps if slot in s.parent_slots]
        # A slot is released by the step that reads it last.
        assert last == max(readers, default=-1)


class TestReleaseKeepsValues:
    @pytest.mark.parametrize("n", [1, 10, 1000])
    @pytest.mark.parametrize("name", PLANS)
    def test_root_is_bit_identical_with_and_without_release(self, name, n):
        plan = corpus_plan(name)
        kept = numpy_run(plan, n, False)
        released = numpy_run(plan, n, True)
        if isinstance(kept, type):  # the plan raises (log-domain)
            assert released is kept
            return
        np.testing.assert_array_equal(
            released[plan.root_slot], kept[plan.root_slot]
        )
        assert all(v is not None for v in kept)
        assert [i for i, v in enumerate(released) if v is not None] == [
            plan.root_slot
        ]

    def test_program_releases_every_interior_slot_once(self):
        assert_last_read_releases_once(fig08_speed_plan())

    @pytest.mark.parametrize("name", sorted(CERTIFY_CORPUS))
    def test_last_read_releases_every_interior_slot_once(self, name):
        assert_last_read_releases_once(corpus_plan(name))

    def test_the_corpus_has_a_step_reading_one_slot_twice(self):
        # ``x + x`` and ``x > x``: the release loop visits that parent
        # twice and must still drop it only after both reads.
        assert any(
            len(set(s.parent_slots)) < len(s.parent_slots)
            for name in PLANS
            for s in corpus_plan(name).steps
        )
