"""Tests for delta derivation, idempotent graph application, replica
replay, and the copy-on-write forks of the relational + index layers."""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.cow import CHUNK, MASK
from repro.core.model import build_data_graph
from repro.errors import StoreError
from repro.relational import Database, load_sql
from repro.shard.stitch import graphs_equal
from repro.store.delta import apply_graph_delta, replay_delta
from repro.text.inverted_index import InvertedIndex

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'ada lovelace');
INSERT INTO author VALUES ('a2', 'alan turing');
INSERT INTO paper VALUES ('p1', 'computing machinery');
INSERT INTO writes VALUES ('a1', 'p1');
"""


def make_db() -> Database:
    return load_sql(SCHEMA, "delta")


def captured(banks: IncrementalBANKS, fn):
    banks.begin_delta_capture()
    fn(banks)
    return banks.end_delta_capture()


class TestCapture:
    def test_insert_delta_contents(self):
        banks = IncrementalBANKS(make_db())
        (delta,) = captured(
            banks, lambda b: b.insert("writes", ["a2", "p1"])
        )
        assert delta.kind == "insert"
        assert delta.node == ("writes", 1)
        assert delta.row_values == ("a2", "p1")
        edge_map = {(s, t): w for s, t, w in delta.edges}
        # Forward edges to author + paper, their back edges, and the
        # sibling referrer re-weigh (paper -> first writes goes to 2).
        assert edge_map[(("writes", 1), ("paper", 0))] == 1.0
        assert edge_map[(("paper", 0), ("writes", 0))] == 2.0
        prestige = dict(delta.prestige)
        assert prestige[("paper", 0)] == 2.0

    def test_update_delta_reindexes_tokens(self):
        banks = IncrementalBANKS(make_db())
        (delta,) = captured(
            banks,
            lambda b: b.update(("paper", 0), {"title": "deep learning"}),
        )
        assert delta.kind == "update"
        assert "computing" in delta.index_removed
        assert "deep" in delta.index_added
        assert dict(delta.changes) == {"title": "deep learning"}

    def test_capture_is_explicit_and_non_reentrant(self):
        banks = IncrementalBANKS(make_db())
        banks.insert("paper", ["p2", "uncaptured"])  # no capture: fine
        banks.begin_delta_capture()
        with pytest.raises(StoreError):
            banks.begin_delta_capture()
        assert banks.end_delta_capture() == []
        with pytest.raises(StoreError):
            banks.end_delta_capture()

    def test_touched_nodes_cover_graph_effects(self):
        banks = IncrementalBANKS(make_db())
        (delta,) = captured(
            banks, lambda b: b.insert("writes", ["a2", "p1"])
        )
        touched = delta.touched_nodes()
        assert ("writes", 1) in touched
        assert ("paper", 0) in touched


class TestIdempotentApplication:
    def test_applying_twice_is_harmless(self):
        """The thread-backed shard layer may broadcast one delta to a
        shared graph through several searchers."""
        source = IncrementalBANKS(make_db())
        deltas = captured(
            source,
            lambda b: (
                b.insert("paper", ["p2", "symbolic reasoning"]),
                b.insert("writes", ["a2", "p2"]),
                b.delete(("writes", 0)),
            ),
        )
        replica_banks = IncrementalBANKS(make_db())
        graph = replica_banks.graph
        for delta in deltas:
            replay_delta(replica_banks.database, [replica_banks.index], delta)
            apply_graph_delta(graph, delta)
            apply_graph_delta(graph, delta)  # double apply on purpose
        assert graphs_equal(graph, source.graph)


class TestReplay:
    def test_replay_reproduces_database_index_and_graph(self):
        source = IncrementalBANKS(make_db())
        deltas = captured(
            source,
            lambda b: (
                b.insert("paper", ["p2", "symbolic reasoning"]),
                b.insert("writes", ["a2", "p2"]),
                b.update(("paper", 1), {"title": "neural reasoning"}),
                b.delete(("writes", 1)),
            ),
        )
        assert len(deltas) == 4
        replica = make_db()
        replica_index = InvertedIndex(replica)
        replica_graph = build_data_graph(replica)[0].thaw()
        for delta in deltas:
            replay_delta(replica, [replica_index], delta)
            apply_graph_delta(replica_graph, delta)
        assert graphs_equal(replica_graph, source.graph)
        assert set(replica_index.vocabulary()) == set(
            source.index.vocabulary()
        )
        rebuilt, _ = build_data_graph(replica)
        assert graphs_equal(replica_graph, rebuilt)

    def test_replay_detects_divergent_replica(self):
        source = IncrementalBANKS(make_db())
        (delta,) = captured(
            source, lambda b: b.insert("paper", ["p2", "x"])
        )
        replica = make_db()
        replica.insert("paper", ["p-skew", "already drifted"])
        with pytest.raises(StoreError):
            replay_delta(replica, [], delta)


class TestRelationalForks:
    def test_table_fork_isolation_both_directions(self):
        database = make_db()
        fork = database.fork()
        fork.insert("paper", ["p2", "fork only"])
        database.insert("paper", ["p3", "parent only"])
        assert [r["pid"] for r in fork.table("paper").scan()] == ["p1", "p2"]
        assert [r["pid"] for r in database.table("paper").scan()] == [
            "p1",
            "p3",
        ]

    def test_reverse_reference_index_forks(self):
        database = make_db()
        fork = database.fork()
        fork.insert("writes", ["a2", "p1"])
        assert fork.indegree(("paper", 0)) == 2
        assert database.indegree(("paper", 0)) == 1

    def test_delete_and_update_fork_isolation(self):
        database = make_db()
        fork = database.fork()
        fork.delete(("writes", 0))
        fork.update(("paper", 0), {"title": "changed"})
        assert database.table("writes").has_rid(0)
        assert database.row(("paper", 0))["title"] == "computing machinery"
        assert fork.row(("paper", 0))["title"] == "changed"

    def test_untouched_tables_stay_shared(self):
        """The unit of sharing is a heap chunk and a map partition: a
        write copies the ones it lands in, and nothing else."""
        database = make_db()
        for k in range(2, 2 + 2 * CHUNK):  # three paper chunks
            database.insert("paper", [f"p{k}", f"title {k}"])
        fork = database.fork()
        fork.insert("paper", ["new", "fork only"])
        fork.update(("paper", 1), {"title": "renamed"})

        def shared(mine, theirs):
            return [a is b for a, b in zip(mine, theirs)]

        mine, theirs = fork.table("author"), database.table("author")
        assert all(shared(mine._heap, theirs._heap))
        assert all(shared(mine._pk_index.parts, theirs._pk_index.parts))
        mine, theirs = fork.table("paper"), database.table("paper")
        # The update lands in chunk 0, the insert in the last chunk.
        assert shared(mine._heap, theirs._heap) == [False, True, False]
        # One partition for the new key; a same-key update writes none.
        pk_parts = shared(mine._pk_index.parts, theirs._pk_index.parts)
        assert pk_parts.count(False) == 1
        assert pk_parts.index(False) == hash(("new",)) & MASK
        # No reference changed: the reverse index's frozen base arrays
        # are the same objects and no overlay partition was copied.
        assert set(fork._base) == set(database._base) == {"author", "paper"}
        for name, base in fork._base.items():
            theirs = database._base[name]
            assert base.offsets is theirs.offsets and base.entries is theirs.entries
            assert all(base.counts[s] is theirs.counts[s] for s in base.counts)
        for overlay in ("_reverse_refs", "_indeg"):
            mine, theirs = getattr(fork, overlay), getattr(database, overlay)
            assert all(shared(mine.parts, theirs.parts))

    def test_index_fork_isolation(self):
        database = make_db()
        index = InvertedIndex(database)
        fork_db = database.fork()
        fork = index.fork(fork_db)
        rid = fork_db.insert("paper", ["p2", "computing lambda"])
        fork.add_row(*rid)
        assert rid in fork.lookup_nodes("lambda")
        assert index.lookup_nodes("lambda") == set()
        # Shared token: the fork's append must not leak into the parent.
        assert rid not in index.lookup_nodes("computing")
        assert rid in fork.lookup_nodes("computing")
