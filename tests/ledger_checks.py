"""The sample ledger's bookkeeping invariant, checked after every test.

The ledger keeps a running byte total instead of summing its entries,
charges each entry its columns plus a fixed overhead, keys every entry
by an integer seed, holds at most one entry never hit, and remembers the
keys of the entries it dropped before their first hit.  ``tests/conftest.py`` runs
:func:`assert_ledger_consistent` after every test that passed.
"""

from __future__ import annotations

from repro.core.ledger import ENTRY_OVERHEAD_BYTES, LEDGER, REMEMBERED_KEYS


def assert_ledger_consistent(ledger=LEDGER) -> None:
    """The byte total equals its sum; each entry is charged its columns
    plus the overhead and keyed by an integer seed; the one unproven
    entry, if any, is the newest; remembered keys name no live entry and
    stay within their cap; the byte budget holds except for the newest
    entry."""
    with ledger._lock:
        keys = list(ledger._entries)
        newest = keys[-1:]
        assert ledger._bytes == sum(e.nbytes for e in ledger._entries.values())
        for key, entry in ledger._entries.items():
            assert entry.nbytes == ENTRY_OVERHEAD_BYTES + sum(
                c.nbytes for c in entry.runs.values())
            assert type(key[2]) is int
        unproven = [k for k, e in ledger._entries.items() if not e.proven]
        assert unproven in ([], newest)
        assert unproven == [k for k in (ledger._unproven,) if k is not None]
        assert not set(ledger._remembered) & set(keys)
        assert len(ledger._remembered) <= REMEMBERED_KEYS
        if ledger.max_bytes > 0:
            assert ledger._bytes <= ledger.max_bytes or keys == newest
