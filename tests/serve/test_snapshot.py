"""Tests for snapshot isolation (the MVCC store) and its one write path."""

from __future__ import annotations

import gc
import os
import sys
import threading
import tracemalloc

import pytest

from repro.core.banks import BANKS
from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.datasets import synth_bibliography
from repro.errors import BatchMutationError, ServeError
from repro.graph.csr import CSROverlayGraph
from repro.relational import Database, load_sql
from repro.serve.snapshot import SnapshotStore
from repro.store.wal import WalReader

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'grace hopper');
INSERT INTO paper VALUES ('p1', 'compiling arithmetic expressions');
INSERT INTO writes VALUES ('a1', 'p1');
"""


def incremental_banks() -> IncrementalBANKS:
    database = load_sql(SCHEMA, "snap")
    return IncrementalBANKS(database)


class TestVersioning:
    def test_initial_version_zero(self):
        store = SnapshotStore(incremental_banks())
        assert store.version == 0
        assert store.current().version == 0

    def test_mutate_publishes_next_version(self):
        store = SnapshotStore(incremental_banks())
        store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        assert store.version == 1
        store.mutate(lambda f: f.insert("paper", ["p3", "subroutines"]))
        assert store.version == 2

    def test_mutate_returns_fn_result(self):
        store = SnapshotStore(incremental_banks())
        rid = store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        assert rid == ("paper", rid[1])

    def test_failed_mutation_publishes_nothing(self):
        store = SnapshotStore(incremental_banks())
        before = store.current()
        with pytest.raises(RuntimeError):
            store.mutate(self._boom)
        assert store.current() is before
        assert store.version == 0

    @staticmethod
    def _boom(facade):
        facade.insert("paper", ["px", "doomed"])
        raise RuntimeError("abort the batch")


class TestIsolation:
    def test_pinned_snapshot_unaffected_by_mutation(self):
        store = SnapshotStore(incremental_banks())
        pinned = store.current()
        store.mutate(
            lambda f: f.insert("paper", ["p2", "fresh snapshot paper"])
        )
        assert pinned.facade.search("fresh snapshot") == []
        assert len(store.current().facade.search("fresh snapshot")) == 1

    def test_mutation_batch_is_atomic(self):
        store = SnapshotStore(incremental_banks())

        def batch(facade):
            facade.insert("author", ["a2", "ada lovelace"])
            facade.insert("paper", ["p2", "notes on the analytical engine"])
            facade.insert("writes", ["a2", "p2"])

        store.mutate(batch)
        assert store.version == 1  # one publish for three mutations
        answers = store.current().facade.search("ada analytical")
        assert answers
        # The connection through `writes` exists: multi-node answer tree.
        assert len(answers[0].tree.nodes) >= 3

    def test_published_facade_needs_no_lazy_refresh(self):
        """_refresh_stats is forced at publish, so readers never write."""
        store = SnapshotStore(incremental_banks())
        store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        assert store.current().facade._stats_dirty is False

    def test_original_facade_untouched(self):
        facade = incremental_banks()
        store = SnapshotStore(facade)
        store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        assert len(facade.database.table("paper")) == 1
        assert len(store.current().facade.database.table("paper")) == 2

    def test_writers_serialised(self):
        store = SnapshotStore(incremental_banks())
        started = threading.Barrier(4, timeout=5)

        def writer(index: int):
            started.wait()
            store.mutate(
                lambda f: f.insert("paper", [f"pw{index}", f"study {index}"])
            )

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.version == 4
        assert len(store.current().facade.database.table("paper")) == 5


class TestBatchMutation:
    def test_empty_batch_skips_the_copy_entirely(self):
        store = SnapshotStore(incremental_banks())
        before = store.current()
        assert store.mutate_batch([]) == []
        assert store.current() is before  # no copy, no publish
        assert store.version == 0
        assert store.copies == 0
        assert store.copy_seconds == 0.0

    def test_batch_pays_one_copy_for_many_operations(self):
        store = SnapshotStore(incremental_banks())
        results = store.mutate_batch(
            [
                lambda f: f.insert("paper", ["p2", "flow charts"]),
                lambda f: f.insert("paper", ["p3", "subroutines"]),
            ]
        )
        assert [rid[0] for rid in results] == ["paper", "paper"]
        assert store.version == 1  # one publish for the whole batch
        assert store.copies == 1
        assert store.copy_seconds > 0.0
        assert len(store.current().facade.database.table("paper")) == 3

    def test_mutate_meters_every_copy(self):
        store = SnapshotStore(incremental_banks())
        store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        store.mutate(lambda f: f.insert("paper", ["p3", "subroutines"]))
        assert store.copies == 2
        assert store.copy_seconds > 0.0

    def test_failed_batch_rolls_back_and_names_the_failing_index(self):
        """Partial-failure semantics: operation k fails -> operations
        0..k-1 are rolled back with the discarded private version,
        nothing is published, and the error carries the index."""
        store = SnapshotStore(incremental_banks())

        def boom(facade):
            raise RuntimeError("doomed")

        before = store.current()
        with pytest.raises(BatchMutationError) as caught:
            store.mutate_batch(
                [lambda f: f.insert("paper", ["p2", "x"]), boom]
            )
        assert caught.value.index == 1
        assert isinstance(caught.value.cause, RuntimeError)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert store.current() is before
        assert store.version == 0
        # The rolled-back insert of operation 0 is invisible everywhere.
        assert store.current().facade.search("x") == []
        assert len(store.current().facade.database.table("paper")) == 1


class TestCopyModes:
    """One capture mode is left: every write forks the newest facade
    copy-on-write and publishes its captured deltas as one epoch.  A
    facade that cannot fork is served read-only."""

    def test_delta_mode_refuses_incapable_facade(self):
        from repro.core.banks import BANKS

        called = []
        for facade in (object(), BANKS(incremental_banks().database)):
            store = SnapshotStore(facade)
            with pytest.raises(ServeError, match="read-only"):
                store.mutate(called.append)
            with pytest.raises(ServeError, match="read-only"):
                store.mutate_batch([called.append])
            assert store.version == store.epoch == 0
            assert store.current().facade is facade
        assert called == []

    def test_unknown_mode_refused(self):
        """The ``copy_mode`` keyword is gone: every value is refused."""
        for mode in ("delta", "deep", "shallow"):
            with pytest.raises(TypeError):
                SnapshotStore(incremental_banks(), copy_mode=mode)

    def test_supports_delta_protocol(self):
        assert SnapshotStore(incremental_banks()).writable
        assert not SnapshotStore(object()).writable

    def test_delta_mode_publishes_epochs_with_deltas(self):
        store = SnapshotStore(incremental_banks())
        store.mutate(lambda f: f.insert("paper", ["p2", "flow charts"]))
        first = store.published
        store.mutate_batch(
            [
                lambda f: f.insert("paper", ["p3", "subroutines"]),
                lambda f: f.insert("paper", ["p4", "linkers"]),
            ]
        )
        assert store.epoch == 2
        assert (first.number, len(first.deltas)) == (1, 1)
        assert store.published.number == 2
        assert len(store.published.deltas) == 2
        assert store.published.deltas[0].kind == "insert"
        assert store.deltas_published == 3

    def test_republish_bumps_version_without_copy(self):
        store = SnapshotStore(incremental_banks())
        facade = store.current().facade
        store.republish()
        assert store.version == 1
        assert store.epoch == 1
        assert store.current().facade is facade
        assert store.copies == 0

    def test_pinned_reader_isolated_under_delta_mode(self):
        """The fork must copy-on-write *everything* a search touches:
        graph adjacency, postings, table heaps, reverse references."""
        store = SnapshotStore(incremental_banks())
        pinned = store.current()
        store.mutate_batch(
            [
                lambda f: f.insert("author", ["a9", "edsger dijkstra"]),
                lambda f: f.insert("paper", ["p9", "structured programming"]),
                lambda f: f.insert("writes", ["a9", "p9"]),
                lambda f: f.update(
                    ("paper", 0), {"title": "renamed expressions"}
                ),
            ]
        )
        # The pinned version still answers from the old world.
        assert pinned.facade.search("structured") == []
        assert pinned.facade.search("compiling")
        assert len(pinned.facade.database.table("paper")) == 1
        # The new version answers from the new world.
        fresh = store.current().facade
        assert fresh.search("structured")
        assert fresh.search("compiling") == []
        answers = fresh.search("edsger structured")
        assert answers and len(answers[0].tree.nodes) >= 3


class TestVersionRetention:
    def test_publishes_do_not_keep_earlier_versions_alive(self):
        """A published graph fork references the frozen base, never its
        parent: once readers drop a version it is reclaimed, so memory
        grows with what the writes added, not with one O(n) index spine
        per publish."""
        store = SnapshotStore(IncrementalBANKS(synth_bibliography(800)[0]))

        def publish(author: int) -> None:
            store.mutate(
                lambda f: f.insert("writes", [f"sa{author:06d}", "S000799"])
            )

        publish(0)  # warm-up: first-write allocations are not growth
        base = store.current().facade.graph.base
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for author in range(1, 51):
                publish(author)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        live = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, CSROverlayGraph) and obj.base is base
        ]
        # The store's current version, plus the facade it was built on.
        assert len(live) <= 2
        assert growth / 50 < 100 * 1024


def twenty_publishes(size: int) -> IncrementalBANKS:
    """``synth:size`` after the same 20 single-row publishes: inserts
    that append graph nodes, updates, and deletes of appended nodes."""
    store = SnapshotStore(IncrementalBANKS(synth_bibliography(size)[0]))
    for k in range(5):
        store.mutate(lambda f, k=k: f.insert("author", [f"na{k}", f"new author {k}"]))
        store.mutate(lambda f, k=k: f.insert("paper", [f"NP{k}", f"fresh topic {k}"]))
        writes = store.mutate(lambda f, k=k: f.insert("writes", [f"na{k}", f"NP{k}"]))
        if k % 2:
            store.mutate(lambda f, writes=writes: f.delete(writes))
        else:
            store.mutate(
                lambda f, k=k: f.update(
                    ("paper", f.database.table("paper").lookup_pk((f"NP{k}",)).rid),
                    {"title": f"renamed {k}"},
                )
            )
    return store.current().facade


def traced_bytes(make):
    """Bytes still allocated after ``make()``, with its result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


class TestForkCost:
    """A publish forks the graph, the database and the index; each fork
    must cost what the writes touched, not what the graph holds."""

    @pytest.fixture(scope="class")
    def published(self):
        return {size: twenty_publishes(size) for size in (800, 3200)}

    def test_graph_fork_does_not_grow_with_the_graph(self, published):
        small, large = (
            traced_bytes(published[size].graph.fork)[0] for size in (800, 3200)
        )
        assert published[3200].graph.num_nodes > 3.5 * published[800].graph.num_nodes
        assert large <= 1.25 * small

    @pytest.fixture(scope="class")
    def overlaid(self, published):
        """Each published facade, forked, with a large graph overlay: a
        quarter of its base nodes reweighed and their first edge
        rewritten, so a whole-map copy of the overlay grows with it."""
        overlaid = {}
        for size, facade in published.items():
            facade = facade.fork()
            graph = facade.graph
            for node in list(graph.base.nodes())[::4]:
                graph.set_node_weight(node, graph.node_weight(node) + 1.0)
                for target, weight in graph.successors(node)[:1]:
                    graph.add_edge(node, target, weight)
            overlaid[size] = facade
        return overlaid

    def test_forks_do_not_grow_with_the_database(self, overlaid):
        small, large = (traced_bytes(overlaid[size].fork)[0] for size in (800, 3200))
        assert (
            overlaid[3200].graph.overlay_nodes
            > 3.5 * overlaid[800].graph.overlay_nodes
        )
        assert large <= 1.25 * small

    def test_one_row_writes_copy_partitions_not_maps(self, published):
        facade = published[3200]
        database, index, graph = facade.database, facade.index, facade.graph

        def copy_bytes(table: str) -> int:
            """One whole-map copy of the maps a write to ``table``
            touches, of the table's heap and of the reverse-reference
            index's arrays (its overlays are two of the maps)."""
            maps = (
                database._reverse_refs,
                database._indeg,
                database.table(table)._pk_index,
                index._postings,
                graph._over_succ,
                graph._over_pred,
                graph._over_nw,
            )
            heap = [row for chunk in database.table(table)._heap for row in chunk]
            reverse_base = [
                column
                for base in database._base.values()
                for column in (base.offsets, base.entries, *base.counts.values())
            ]
            return (
                sys.getsizeof(heap)
                + sum(sys.getsizeof(dict(m.items())) for m in maps)
                + sum(map(sys.getsizeof, reverse_base))
            )

        title = ("paper", database.table("paper").lookup_pk(("S000007",)).rid)
        appended = ("writes", database.table("writes").lookup_pk(("na0", "NP0")).rid)
        writes = (
            ("writes", lambda f: f.insert("writes", ["na1", "S000007"])),
            ("paper", lambda f: f.update(title, {"title": "a renamed title"})),
            ("writes", lambda f: f.delete(appended)),
        )
        for table, write in writes:
            fork = facade.fork()
            allocated, _ = traced_bytes(lambda: write(fork))
            assert allocated < 0.05 * copy_bytes(table), table


class TestEngineCopyMetrics:
    def test_engine_exposes_snapshot_copy_cost(self):
        from repro.serve import EngineConfig, QueryEngine

        with QueryEngine(incremental_banks(), EngineConfig(workers=1)) as engine:
            snapshot = engine.metrics.snapshot()
            assert snapshot["snapshot_copies_total"] == 0
            assert snapshot["snapshot_copy_seconds_total"] == 0.0

            engine.mutate_batch([])  # free: no copy, no mutation count
            snapshot = engine.metrics.snapshot()
            assert snapshot["snapshot_copies_total"] == 0
            assert snapshot["mutations_total"] == 0

            engine.mutate_batch(
                [lambda f: f.insert("paper", ["p2", "flow charts"])]
            )
            snapshot = engine.metrics.snapshot()
            assert snapshot["snapshot_copies_total"] == 1
            assert snapshot["snapshot_copy_seconds_total"] > 0.0
            assert snapshot["mutations_total"] == 1
            assert snapshot["snapshot_version"] == 1


#: One insert per epoch; the writes link each paper to an author, so
#: multi-keyword queries need a tree across the new rows.
OPEN_ROWS = (
    ("paper", ["p2", "flow charts"]),
    ("writes", ["a1", "p2"]),
    ("paper", ["p3", "subroutine libraries"]),
    ("writes", ["a1", "p3"]),
    ("author", ["a2", "john backus"]),
)

OPEN_QUERIES = ("grace flow", "hopper subroutine", "compiling", "backus")


def snap_database() -> Database:
    return load_sql(SCHEMA, "snap")


class TestOpen:
    """``SnapshotStore.open`` recovers the facade, continues the log and
    wires one checkpoint manager to both recovery and the writer."""

    @staticmethod
    def write(wal: str, rows, checkpoint_every: int = 0) -> None:
        store = SnapshotStore.open(
            snap_database, wal, checkpoint_every=checkpoint_every
        )
        for table, values in rows:
            store.mutate(lambda f, t=table, v=values: f.insert(t, v))
        store.wal.close()

    @staticmethod
    def check(store: SnapshotStore, wal: str, rows) -> None:
        facade = store.current().facade
        assert store.epoch == facade.applied_epoch == WalReader(wal).last_epoch()
        assert store.epoch == len(rows)
        expected = snap_database()
        for table, values in rows:
            expected.insert(table, values)
        reference = BANKS(expected)
        for query in OPEN_QUERIES:
            assert same(facade.search(query), reference.search(query)), query
        # One manager: the writer's prune floor is the manager's directory.
        assert store.wal.checkpoint_path == store.checkpoints.path

    def test_missing_directory(self, tmp_path):
        wal = str(tmp_path / "wal")
        store = SnapshotStore.open(snap_database, wal, checkpoint_every=2)
        assert os.path.isdir(wal)
        self.check(store, wal, ())
        store.wal.close()

    def test_empty_directory(self, tmp_path):
        wal = str(tmp_path)
        store = SnapshotStore.open(snap_database, wal, checkpoint_every=2)
        self.check(store, wal, ())
        store.wal.close()

    def test_wal_with_epochs(self, tmp_path):
        wal = str(tmp_path / "wal")
        self.write(wal, OPEN_ROWS[:3])
        store = SnapshotStore.open(snap_database, wal, checkpoint_every=2)
        assert store.checkpoints.newest_valid() is None
        self.check(store, wal, OPEN_ROWS[:3])
        store.wal.close()

    def test_wal_with_a_checkpoint_and_a_tail(self, tmp_path):
        wal = str(tmp_path / "wal")
        self.write(wal, OPEN_ROWS, checkpoint_every=2)
        store = SnapshotStore.open(snap_database, wal, checkpoint_every=2)
        assert store.checkpoints.newest_valid()[0] == 4
        self.check(store, wal, OPEN_ROWS)
        # The cadence continues from the recovered manifest.
        store.mutate(lambda f: f.insert("paper", ["p4", "fortran"]))
        assert store.checkpoints.manifest_epoch() == 6
        store.wal.close()

    def test_torn_final_record(self, tmp_path):
        wal = str(tmp_path / "wal")
        self.write(wal, OPEN_ROWS[:3])
        segment = os.path.join(wal, sorted(os.listdir(wal))[-1])
        with open(segment, "rb+") as handle:
            handle.truncate(os.path.getsize(segment) - 5)
        store = SnapshotStore.open(snap_database, wal, checkpoint_every=2)
        self.check(store, wal, OPEN_ROWS[:2])
        store.wal.close()
