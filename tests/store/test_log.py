"""Tests for epoch publication: the store numbers each publish, keeps
only the newest epoch in memory, and the WAL is the history."""

from __future__ import annotations

import gc
import weakref

from repro.core.incremental import IncrementalBANKS
from repro.relational import Database, load_sql
from repro.serve.snapshot import SnapshotStore
from repro.store.log import Epoch
from repro.store.wal import WalReader

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
INSERT INTO author VALUES ('a1', 'grace hopper');
"""


def make_database() -> Database:
    return load_sql(SCHEMA, "log")


def make_store() -> SnapshotStore:
    return SnapshotStore(IncrementalBANKS(make_database()))


def insert_paper(store: SnapshotStore, n: int) -> None:
    store.mutate(lambda f: f.insert("paper", [f"p{n}", f"title {n}"]))


class TestPublication:
    def test_epochs_are_monotone(self):
        store = make_store()
        assert store.epoch == 0 and store.published is None
        insert_paper(store, 1)
        first = store.published
        store.mutate_batch(
            [
                lambda f: f.insert("paper", ["p2", "two"]),
                lambda f: f.insert("paper", ["p3", "three"]),
            ]
        )
        second = store.published
        assert isinstance(first, Epoch) and isinstance(second, Epoch)
        assert (first.number, second.number) == (1, 2)
        assert (len(first.deltas), len(second.deltas)) == (1, 2)
        assert store.epoch == 2
        assert store.deltas_published == 3

    def test_entries_since(self, tmp_path):
        """History since an epoch is read from the WAL."""
        wal = str(tmp_path / "wal")
        store = SnapshotStore.open(make_database, wal)
        for n in range(5):
            insert_paper(store, n)
        store.close()
        reader = WalReader(wal)
        assert [e.number for e in reader.entries_since(3)] == [4, 5]
        assert reader.entries_since(5) == []


class TestNoHistoryInMemory:
    def test_store_keeps_only_the_newest_epoch(self):
        """A live store holds no delta history: after 300 publishes
        every epoch but the newest is garbage."""
        store = make_store()
        refs = []
        for n in range(300):
            insert_paper(store, n)
            refs.append(weakref.ref(store.published))
        gc.collect()
        alive = [ref() is not None for ref in refs]
        assert alive == [False] * 299 + [True]
        assert refs[-1]() is store.published
        assert store.published.number == store.epoch == 300
