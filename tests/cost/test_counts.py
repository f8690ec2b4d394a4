"""No end-to-end path does more work than its committed count.

Each loop of :mod:`tests.cost.loops` is run warm and its exact counts per
query are held against ``COUNTS.json``: a count above its committed value
fails.  A change that lowers a count lowers the value in the file
(``PYTHONPATH=src python -m tests.cost.loops --write``), so the next
change is held to it.
"""

from __future__ import annotations

import json

import pytest

from tests.cost.loops import COUNTS_PATH, LOOPS, measure

COUNTS = json.loads(COUNTS_PATH.read_text())

#: ``peak_rows`` also traces the Python objects a query allocates, which
#: the interpreter's free lists and first-run caches move by up to 0.4 of
#: an array between processes (measured on the Fig 8 loop).  One more
#: n-row array held moves it by 1.
PEAK_SLACK = 0.5


def test_every_loop_has_committed_counts():
    assert set(COUNTS) == set(LOOPS)


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_no_count_exceeds_its_committed_value(name):
    measured = measure(LOOPS[name]())
    assert set(measured) == set(COUNTS[name])
    over = {
        key: (round(value, 4), COUNTS[name][key])
        for key, value in measured.items()
        if value > COUNTS[name][key] + (PEAK_SLACK if key == "peak_rows" else 1e-9)
    }
    assert not over, f"{name}: counts above their committed values {over}"
