"""The reverse-reference index as its public reads see it.

Tests compare databases by what :meth:`Database.referencing`,
:meth:`Database.referrer_nodes`, :meth:`Database.indegree` and
:meth:`Database.indegree_from` return for every live row, not by how
the index stores them, so the same comparison holds for a database
built by inserts, one restored from a checkpoint and a copy-on-write
fork.
"""

from __future__ import annotations

from collections import Counter

from repro.relational.database import Database


def reverse_state(database: Database, ordered: bool = False):
    """``(references, indegrees)`` over every live row that something
    references.

    ``references[target]`` holds its ``(fk name, source rid)`` pairs:
    as a multiset, or with ``ordered`` as the list in the order
    :meth:`Database.referencing` returns it (write order for an
    insert-built database).  ``indegrees[target]`` maps each source
    table to :meth:`Database.indegree_from`, zero counts left out.
    Also checks that ``referrer_nodes`` and ``indegree`` agree with
    ``referencing``.
    """
    names = database.table_names
    references, indegrees = {}, {}
    for name in names:
        for slot in database.table(name).rids():
            target = (name, slot)
            entries = database.referencing(target)
            assert database.referrer_nodes(target) == [rid for _, rid in entries]
            assert database.indegree(target) == len(entries)
            counts = {
                source: count
                for source in names
                for count in (database.indegree_from(target, source),)
                if count
            }
            assert sum(counts.values()) == len(entries)
            if entries:
                pairs = [(fk.name, rid) for fk, rid in entries]
                references[target] = pairs if ordered else Counter(pairs)
                indegrees[target] = counts
    return references, indegrees
