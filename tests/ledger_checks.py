"""The sample ledger's bookkeeping invariant, checked after ledger tests.

The ledger keeps running byte totals instead of summing its entries, and
entries never hit are held to a share of the byte budget.  The suites
that drive the ledger run :func:`assert_ledger_consistent` after every
test through an autouse fixture.
"""

from __future__ import annotations

from repro.core.ledger import LEDGER, PROBATION_DIVISOR


def assert_ledger_consistent(ledger=LEDGER) -> None:
    """Both running totals equal their sums, and both budgets hold except
    for the entry just served (the most recently used one)."""
    with ledger._lock:
        entries = ledger._entries
        probation = list(ledger._probation)
        assert ledger._bytes == sum(e.nbytes for e in entries.values())
        assert set(probation) <= set(entries)
        assert ledger._probation_bytes == sum(
            entries[k].nbytes for k in probation
        )
        if ledger.max_bytes <= 0:
            return
        newest = list(entries)[-1:]
        assert ledger._bytes <= ledger.max_bytes or list(entries) == newest
        share = ledger.max_bytes // PROBATION_DIVISOR
        assert ledger._probation_bytes <= share or probation == newest
