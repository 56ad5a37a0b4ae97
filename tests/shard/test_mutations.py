"""Tests for the shard write path: delta routing, shard-local
republication, cut-count maintenance, and parity with the single
engine after mutations."""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.errors import IntegrityError
from repro.graph.csr import CSROverlayGraph
from repro.ops.rebalance import RebalanceMove, RebalancePlan
from repro.relational import Database, load_sql
from repro.serve.snapshot import SnapshotStore
from repro.shard.partition import GraphPartitioner
from repro.shard.process import fork_available
from repro.shard.router import ShardRouter

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'grace hopper');
INSERT INTO author VALUES ('a2', 'barbara liskov');
INSERT INTO paper VALUES ('p1', 'compiling arithmetic expressions');
INSERT INTO paper VALUES ('p2', 'abstraction mechanisms');
INSERT INTO writes VALUES ('a1', 'p1');
INSERT INTO writes VALUES ('a2', 'p2');
"""


def make_db(name: str = "shardmut") -> Database:
    return load_sql(SCHEMA, name)


MUTATIONS = (
    ("insert", "paper", ["p3", "dataflow architectures"]),
    ("insert", "writes", ["a1", "p3"]),
    ("insert", "author", ["a3", "frances allen"]),
    ("insert", "writes", ["a3", "p3"]),
    ("update", ("paper", 0), {"title": "optimizing compilers"}),
    ("update", ("writes", 0), {"pid": "p2"}),  # re-points a foreign key
    ("delete", ("writes", 1), None),
)


def drive(target, after_each=None):
    """Apply the shared mutation battery to a router or a facade,
    calling ``after_each()`` after every write."""
    for kind, first, second in MUTATIONS:
        if kind == "insert":
            target.insert(first, second)
        elif kind == "update":
            target.update(first, second)
        else:
            target.delete(first)
        if after_each is not None:
            after_each()


def assert_matches_fresh(router, strategy=None):
    """The live partition equals one built from scratch over the
    router's graph: owner sets, maintained cut count and cut links."""
    live = router.partition
    fresh = GraphPartitioner(live.shards, strategy).partition(router.graph)
    assert live.shard_nodes == fresh.shard_nodes
    assert live.cut_edge_count == fresh.cut_edge_count
    assert live.cut_links(router.graph) == fresh.cut_links(router.graph)
    assert len(fresh.cut_links(router.graph)) == fresh.cut_edge_count


QUERIES = (
    "dataflow",
    "frances dataflow",
    "optimizing",
    "grace",
    "abstraction",
    "barbara abstraction",
)


class TestRoutedMutations:
    def test_search_parity_after_mutations_thread_backend(self):
        router = ShardRouter(make_db(), shards=3, backend="thread")
        facade = IncrementalBANKS(make_db())
        with router:
            drive(router)
            drive(facade)
            for query in QUERIES:
                routed = router.search(query, max_results=5)
                single = facade.search(query, max_results=5)
                assert same(routed, single), query

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_search_parity_after_mutations_process_backend(self):
        router = ShardRouter(make_db(), shards=2, backend="process")
        facade = IncrementalBANKS(make_db())
        with router:
            drive(router)
            drive(facade)
            for query in QUERIES:
                routed = router.search(query, max_results=5)
                single = facade.search(query, max_results=5)
                assert same(routed, single), query

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_route_dispatch_serves_mutations_from_workers(self):
        """Route dispatch answers entirely inside one forked worker —
        the strongest evidence the delta really reached the workers'
        private replicas (database, full index and graph)."""
        router = ShardRouter(
            make_db(), shards=2, backend="process", dispatch="route"
        )
        facade = IncrementalBANKS(make_db())
        with router:
            drive(router)
            drive(facade)
            for query in QUERIES:
                routed = router.search(query, max_results=5)
                single = facade.search(query, max_results=5)
                assert same(routed, single), query

    def test_only_owning_shard_engine_republished(self):
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:
            before = [e.snapshots.version for e in router.engines]
            rid = router.insert("paper", ["p9", "garbage collection"])
            owner = router.partition.shard_of(rid)
            after = [e.snapshots.version for e in router.engines]
            for shard_id, (was, now) in enumerate(zip(before, after)):
                if shard_id == owner:
                    assert now == was + 1
                else:
                    assert now == was
            assert router.epoch == 1
            assert router.describe()["epoch"] == 1

    def test_partition_bookkeeping_matches_fresh_partition(self):
        """After every routed write and every rebalance move, the live
        partition's owner sets, cut count and cut links equal a
        from-scratch partition of the graph — the regression net for
        the O(delta) cut-count maintenance."""
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:
            assert_matches_fresh(router)
            drive(router, after_each=lambda: assert_matches_fresh(router))
            # A delete whose dropped edges cross: the graph drops them
            # with the node, not through the delta's edge list.
            cut_before = router.partition.cut_edge_count
            router.delete(("writes", 2))
            assert router.partition.cut_edge_count < cut_before
            assert_matches_fresh(router)
            # From here on ownership is the live one, not the hash's.
            live = router.partition.shard_of
            nodes = sorted(router.graph.nodes())
            moves = tuple(
                RebalanceMove(node, live(node), (live(node) + 1) % 3)
                for node in nodes[:3]
            )
            assert router.rebalance(RebalancePlan(moves, "test"))["applied"] == 3
            assert_matches_fresh(router, strategy=router.partition.shard_of)
            assert router.drain(1)["applied"] > 0
            assert not router.partition.shard_nodes[1]
            assert_matches_fresh(router, strategy=router.partition.shard_of)

    def test_routed_writes_and_moves_never_walk_every_edge(self, monkeypatch):
        """Routed inserts, updates, deletes and moves keep the partition
        current from the write's own edges: a whole-graph edge walk
        anywhere on those paths fails the test."""
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:

            def no_walk(_graph):
                raise AssertionError("a routed write walked every edge")

            monkeypatch.setattr(CSROverlayGraph, "edges", no_walk)
            rid = router.insert("paper", ["p5", "garbage collection"])
            router.insert("writes", ["a2", "p5"])
            router.update(("writes", 0), {"pid": "p5"})
            router.delete(("writes", 1))
            source = router.partition.shard_of(rid)
            plan = RebalancePlan((RebalanceMove(rid, source, (source + 1) % 3),), "t")
            assert router.rebalance(plan)["applied"] == 1
            monkeypatch.undo()
            assert_matches_fresh(router, strategy=router.partition.shard_of)

    def test_ownership_follows_inserts_and_deletes(self):
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:
            rid = router.insert("paper", ["p7", "speculative execution"])
            owner = router.partition.shard_of(rid)
            assert rid in router._searchers[owner].owned_nodes
            assert rid in router.partition.shard_nodes[owner]
            router.delete(rid)
            assert rid not in router._searchers[owner].owned_nodes
            with pytest.raises(Exception):
                router.partition.shard_of(rid)

    def test_referenced_delete_refused_before_any_shard_state_changes(self):
        router = ShardRouter(make_db(), shards=2, backend="thread")
        with router:
            epoch_before = router.epoch
            with pytest.raises(IntegrityError):
                router.delete(("paper", 0))  # referenced by writes
            assert router.epoch == epoch_before
            assert router.search("compiling")  # still searchable

    def test_apply_replays_a_snapshot_store_delta_log(self):
        """End-to-end marriage of repro.serve and repro.shard: mutate
        through a SnapshotStore, feed each publish's epoch to
        ShardRouter.apply_epochs, and get identical answers."""
        store = SnapshotStore(IncrementalBANKS(make_db()))
        store.mutate(lambda f: f.insert("paper", ["p3", "dataflow machines"]))
        epochs = [store.published]
        store.mutate_batch(
            [
                lambda f: f.insert("author", ["a3", "jack dennis"]),
                lambda f: f.insert("writes", ["a3", "p3"]),
                lambda f: f.update(("paper", 1), {"title": "clu abstraction"}),
            ]
        )
        epochs.append(store.published)
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:
            applied = router.apply_epochs(epochs)
            assert applied == 4
            assert router.epoch == 4
            facade = store.current().facade
            for query in ("dataflow", "jack dataflow", "clu"):
                assert same(
                    router.search(query, max_results=5),
                    facade.search(query, max_results=5),
                ), query

    def test_concurrent_searches_and_mutations_thread_backend(self):
        """The router's search gate: thread-backed searchers share one
        graph, so routed mutations must never overlap an
        in-flight search (dict-changed-during-iteration, half-applied
        deltas).  Hammer both paths concurrently and require zero
        errors plus a consistent end state."""
        import threading

        router = ShardRouter(make_db(), shards=3, backend="thread")
        errors = []
        with router:

            def searcher():
                for _ in range(30):
                    try:
                        router.search("grace", max_results=3)
                        router.search("abstraction", max_results=3)
                    except Exception as error:  # noqa: BLE001 - recorded
                        errors.append(error)
                        return

            def writer():
                for step in range(10):
                    try:
                        rid = router.insert(
                            "paper", [f"cc{step}", f"concurrent study {step}"]
                        )
                        router.update(rid, {"title": f"revised study {step}"})
                        router.delete(rid)
                    except Exception as error:  # noqa: BLE001 - recorded
                        errors.append(error)
                        return

            threads = [threading.Thread(target=searcher) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert router.epoch == 30
            # The partition survived intact: every insert was deleted.
            fresh = GraphPartitioner(3).partition(router.graph)
            assert router.partition.shard_nodes == fresh.shard_nodes

    def test_insert_with_bad_strategy_fails_before_any_state_change(self):
        """Placement is validated before derivation: a broken strategy
        must not leave the database/index mutated but unrouted."""
        from repro.errors import ShardError

        calls = {"n": 0}

        def strategy(node):
            calls["n"] += 1
            return 99 if node == ("paper", 2) else 0

        router = ShardRouter(
            make_db(), shards=2, strategy=strategy, backend="thread"
        )
        with router:
            papers_before = len(router.database.table("paper"))
            with pytest.raises(ShardError):
                router.insert("paper", ["p-bad", "misplaced row"])
            assert len(router.database.table("paper")) == papers_before
            assert router.full_index.lookup_nodes("misplaced") == set()
            assert router.epoch == 0

    def test_resolve_covers_new_rows_exactly_once(self):
        router = ShardRouter(make_db(), shards=3, backend="thread")
        with router:
            rid = router.insert("paper", ["p8", "tail recursion"])
            node_sets = router.resolve("recursion")
            assert node_sets == [{rid}]
