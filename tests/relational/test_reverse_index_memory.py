"""The reverse-reference index is bounded by its arrays, not by objects.

Every reference a database holds is one packed 8-byte entry in its
target table's frozen base; each target slot adds an 8-byte offset and
an 8-byte count per referencing table.  A Python object per reference
(an ``(fk, table, slot)`` tuple in a list, a ``{table: count}`` dict
per target) cost ~186 bytes per reference on ``synth:800``.  This pins
the array layout with ``tracemalloc`` — allocation sizes, no timing.
"""

from __future__ import annotations

import tracemalloc

import repro.relational.database as database_module
from repro.datasets import synth_bibliography

#: Traced bytes the index may hold per resolved reference: the base
#: measures ~15 B on ``synth:800`` (an entry, plus offsets and counts
#: shared by the references to each target).
BYTES_PER_REFERENCE = 32


def test_reverse_index_bytes_per_reference():
    tracemalloc.start()
    try:
        database = synth_bibliography(800)[0]
        database.indegree(("author", 0))  # the first reverse read lays it
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = tracemalloc.Filter(True, database_module.__file__)
    held = sum(
        stat.size for stat in snapshot.filter_traces([mine]).statistics("filename")
    )
    references = sum(
        database.indegree((name, slot))
        for name in database.table_names
        for slot in database.table(name).rids()
    )
    assert references > 5000
    assert held <= BYTES_PER_REFERENCE * references
