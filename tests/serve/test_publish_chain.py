"""Isolation along a publish chain, under random write batches.

Every publish forks the newest facade copy-on-write: the graph overlay
shares the frozen spine and the parent's rows, the database shares
table heaps and reverse-reference lists, the index shares postings
lists.  Whatever a later batch does — inserts that append graph nodes,
deletes of frozen-base and of appended nodes, a node removed and
re-added under a fresh dense id, a batch refused midway, two sibling
forks of one version — every version a reader pinned must still be
exactly the rebuild of its own rows, and a re-frozen overlay must equal
the freeze of that rebuild.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.incremental import IncrementalBANKS
from repro.core.model import build_data_graph
from repro.errors import BatchMutationError, IntegrityError
from repro.graph.csr import CSRGraph, CSROverlayGraph
from repro.relational import Database, load_sql
from repro.serve.snapshot import SnapshotStore
from repro.text.inverted_index import InvertedIndex
from tests.relational.reverse_index import reverse_state


def make_db() -> Database:
    return load_sql(
        """
        CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
        CREATE TABLE writes (
            aid TEXT NOT NULL REFERENCES author(aid),
            pid TEXT NOT NULL REFERENCES paper(pid)
        );
        CREATE TABLE cites (
            citing TEXT NOT NULL REFERENCES paper(pid),
            cited TEXT NOT NULL REFERENCES paper(pid)
        );
        INSERT INTO author VALUES ('a1', 'ada lovelace');
        INSERT INTO author VALUES ('a2', 'alan turing');
        INSERT INTO author VALUES ('a3', 'grace hopper');
        INSERT INTO paper VALUES ('p1', 'analytical engines');
        INSERT INTO paper VALUES ('p2', 'computable numbers');
        INSERT INTO paper VALUES ('p3', 'compiling engines');
        INSERT INTO writes VALUES ('a1', 'p1');
        INSERT INTO writes VALUES ('a2', 'p2');
        INSERT INTO writes VALUES ('a3', 'p3');
        INSERT INTO writes VALUES ('a1', 'p3');
        INSERT INTO cites VALUES ('p3', 'p1');
        INSERT INTO cites VALUES ('p2', 'p1');
        """,
        "chain",
    )


def pick(items, index: int):
    return items[index % len(items)] if items else None


def key_of(facade, table: str, index: int):
    rid = pick(list(facade.database.table(table).rids()), index)
    return None if rid is None else facade.database.row((table, rid)).values[0]


def readd(facade, index: int) -> None:
    """Remove a graph node and add it back with the same weight and
    edges: the content is unchanged, the dense id is new."""
    graph = facade.graph
    node = pick(sorted(graph.nodes()), index)
    weight = graph.node_weight(node)
    successors = graph.successors(node)
    predecessors = graph.predecessors(node)
    graph.remove_node(node)
    assert not graph.has_node(node)
    graph.add_node(node, weight)
    for target, edge_weight in successors:
        graph.add_edge(node, target, edge_weight)
    for source, edge_weight in predecessors:
        graph.add_edge(source, node, edge_weight)


def apply(facade, op: str, a: int, b: int, serial: int) -> None:
    database = facade.database
    if op == "author":
        facade.insert("author", [f"n{serial}", f"author {a}"])
    elif op == "paper":
        facade.insert("paper", [f"q{serial}", f"word{a} topic{b}"])
    elif op == "writes":
        aid, pid = key_of(facade, "author", a), key_of(facade, "paper", b)
        if aid and pid:
            facade.insert("writes", [aid, pid])
    elif op == "cites":
        citing, cited = key_of(facade, "paper", a), key_of(facade, "paper", b)
        if citing and cited and citing != cited:
            facade.insert("cites", [citing, cited])
    elif op == "retitle":
        rid = pick(list(database.table("paper").rids()), a)
        if rid is not None:
            facade.update(("paper", rid), {"title": f"retitled word{b}"})
    elif op == "relink":
        rid = pick(list(database.table("writes").rids()), a)
        pid = key_of(facade, "paper", b)
        if rid is not None and pid:
            facade.update(("writes", rid), {"pid": pid})
    elif op == "delete":
        table = ("author", "paper", "writes", "cites")[a % 4]
        rid = pick(list(database.table(table).rids()), b)
        if rid is not None:
            facade.delete((table, rid))  # may be refused: referenced
    elif op == "readd":
        readd(facade, a * 12 + b)


# -- what a version must equal ------------------------------------------------


def rows_of(facade):
    return {
        table.schema.name: [(row.rid, row.values) for row in table.scan()]
        for table in facade.database.tables()
    }


def graph_content(graph):
    nodes = {node: graph.node_weight(node) for node in graph.nodes()}
    edges = {(source, target): weight for source, target, weight in graph.edges()}
    return nodes, edges


def postings_of(index: InvertedIndex):
    return {term: Counter(index.lookup(term)) for term in index.vocabulary()}


def frozen_content(snapshot: CSRGraph):
    return (
        graph_content(snapshot),
        snapshot.num_nodes,
        snapshot.num_edges,
        snapshot.frozen_min_edge_weight,
        snapshot.max_node_weight() if snapshot.num_nodes else None,
        snapshot.frozen_edge_norms,
    )


def assert_is_its_own_rebuild(facade) -> None:
    graph = facade.graph
    assert isinstance(graph, CSROverlayGraph)
    fresh, stats = build_data_graph(facade.database, facade.weight_policy)
    assert graph_content(graph) == graph_content(fresh)
    assert all(graph.id_of(graph.index_of(node)) == node for node in fresh.nodes())
    assert graph.num_nodes == fresh.num_nodes
    assert graph.num_edges == fresh.num_edges
    assert graph.min_edge_weight() == stats.min_edge_weight
    assert max(graph.max_node_weight(), 1.0e-12) == stats.max_node_weight
    assert postings_of(facade.index) == postings_of(InvertedIndex(facade.database))
    rebuilt = facade.database.fork()
    rebuilt.check_integrity()
    assert reverse_state(facade.database) == reverse_state(rebuilt)
    assert frozen_content(graph.refreeze()) == frozen_content(CSRGraph.freeze(fresh))


_step = st.tuples(
    st.sampled_from(
        ["author", "paper", "writes", "cites", "retitle", "relink", "delete", "readd"]
    ),
    st.integers(0, 11),
    st.integers(0, 11),
)
_batches = st.lists(st.lists(_step, min_size=1, max_size=4), min_size=1, max_size=8)


@settings(deadline=None, max_examples=100)
@given(batches=_batches, siblings=st.lists(_step, min_size=2, max_size=6))
def test_every_pinned_version_equals_its_rebuild(batches, siblings):
    store = SnapshotStore(IncrementalBANKS(make_db()))
    pinned = [(store.current().facade, rows_of(store.current().facade))]
    serial = 0
    for batch in batches:
        operations = []
        for op, a, b in batch:
            serial += 1
            operations.append(
                lambda facade, op=op, a=a, b=b, serial=serial: apply(
                    facade, op, a, b, serial
                )
            )
        try:
            store.mutate_batch(operations)
        except BatchMutationError as error:
            assert isinstance(error.__cause__, IntegrityError)
            continue  # refused midway: nothing published
        facade = store.current().facade
        pinned.append((facade, rows_of(facade)))

    # Two sibling forks of one published version, written differently.
    parent = pinned[len(pinned) // 2][0]
    left, right = parent.fork(), parent.fork()
    for position, (op, a, b) in enumerate(siblings):
        serial += 1
        try:
            apply(left if position % 2 else right, op, a, b, serial)
        except IntegrityError:
            pass

    for facade, rows in pinned:
        assert rows_of(facade) == rows
        assert_is_its_own_rebuild(facade)
    for sibling in (left, right):
        assert_is_its_own_rebuild(sibling)


def test_removed_and_readded_nodes_take_fresh_ids():
    """Deleting a frozen-base node and an appended node, and re-adding
    one of each, hands out new dense ids and never reuses a slot."""
    facade = IncrementalBANKS(make_db())
    base = facade.graph.base
    writes = facade.insert("writes", ["a2", "p3"])
    graph = facade.graph
    appended = graph.index_of(writes)
    assert appended >= base.num_nodes and not base.has_node(writes)
    old_ids = {graph.index_of(node) for node in graph.nodes()}
    readd(facade, sorted(graph.nodes()).index(("paper", 0)))
    readd(facade, sorted(graph.nodes()).index(writes))
    fresh_ids = {graph.index_of(("paper", 0)), graph.index_of(writes)}
    assert not fresh_ids & old_ids
    assert graph.tombstone_count == 2
    assert graph.id_of(appended) is None
    assert base.has_node(("paper", 0))  # the frozen spine never changes
    assert_is_its_own_rebuild(facade)
