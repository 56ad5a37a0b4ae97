"""The two loaders agree: one ``Database.insert`` per row, and
``Database.restore`` of the same heaps in one bulk pass.

Inserting logs each resolved reference and lays the reverse-reference
index and the indegrees out at the first reverse read; restoring lays
both straight from the rows.  The graph build and the keyword index
then read each database.  Everything must agree, except the order of
each reverse-reference list: restore lists it table-major, not in
write order, so those lists compare as multisets.
"""

from __future__ import annotations

from itertools import chain

import pytest

from repro.cli import load_database
from repro.core.model import build_data_graph
from repro.relational.database import Database
from repro.text.inverted_index import InvertedIndex
from tests.relational.reverse_index import reverse_state

SPECS = [
    "synth:800",
    "demo:bibliography",
    "demo:thesis",
    "demo:tpcd",
    "demo:university",
]


def restored(database: Database) -> Database:
    tables = database.tables()
    return Database.restore(
        database.name,
        [table.schema for table in tables],
        {table.schema.name: list(chain.from_iterable(table._heap)) for table in tables},
    )


def graph_state(database: Database):
    graph, stats = build_data_graph(database)
    arrays = [
        list(getattr(graph, name))
        for name in (
            "_succ_off",
            "_succ_to",
            "_succ_w",
            "_pred_off",
            "_pred_to",
            "_pred_w",
            "_node_weights",
        )
    ]
    return graph._ids, graph._tables, arrays, stats


def postings(database: Database):
    index = InvertedIndex(database)
    return {
        token: [(p.table, p.rid, p.column) for p in entries]
        for token, entries in index._postings.items()
    }


@pytest.mark.parametrize("spec", SPECS)
def test_inserted_and_restored_databases_agree(spec):
    inserted = load_database(spec)
    bulk = restored(inserted)
    assert reverse_state(inserted) == reverse_state(bulk)
    assert graph_state(inserted) == graph_state(bulk)
    assert postings(inserted) == postings(bulk)

