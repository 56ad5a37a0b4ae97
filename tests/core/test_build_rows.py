"""The data-graph builder, pinned against a naive reference.

The kernel searches the built CSR arrays and the oracle searches their
row-for-row thaw, so kernel-versus-oracle parity says nothing about the
build itself.  Here the data graph is rebuilt the slow, obvious way —
dicts filled reference by reference through the point lookup
``Database.references_of`` — and ``build_data_graph`` must match it
row for row, adjacency order included (the order feeds tie-breaking).
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.banks import BANKS
from repro.core.model import build_data_graph
from repro.core.weights import WeightPolicy
from repro.datasets import generate_bibliography, synth_bibliography
from repro.graph.csr import CSRGraph, freeze_graph
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import pagerank
from repro.relational import Database, load_sql

#: Traced peak of ``BANKS(synth:1600)`` construction before the builder
#: laid the arrays out directly (dict graph, then a frozen copy of it):
#: 10.56-10.67 MB on CPython 3.11.  The direct build peaks at ~6.5 MB.
DICT_BUILD_PEAK_BYTES = 10_560_000


def naive_rows(database, policy):
    """``(nodes, weights, succ, pred)`` of the data graph (Sec. 2, Eq. 1)."""
    nodes = [(t.schema.name, rid) for t in database.tables() for rid in t.rids()]
    edges, forward_only = {}, DiGraph()
    for node in nodes:
        forward_only.add_node(node)
        for fk, target in database.references_of(node):
            if target == node:
                continue
            forward_only.add_edge(node, target, 1.0)
            tables = (fk.source_table, fk.target_table)
            indegree = database.indegree_from(target, fk.source_table)
            for pair, weight in (
                ((node, target), policy.forward_similarity(*tables)),
                ((target, node), policy.backward_weight(*tables, indegree)),
            ):
                if pair in edges:
                    weight = policy.merge(edges[pair], weight)
                edges[pair] = weight
    succ = {node: {} for node in nodes}
    pred = {node: {} for node in nodes}
    for (source, target), weight in edges.items():
        succ[source][target] = weight
        pred[target][source] = weight
    if policy.prestige == "none":
        weights = dict.fromkeys(nodes, 1.0)
    elif policy.prestige == "indegree":
        weights = {node: float(database.indegree(node)) for node in nodes}
    else:
        weights = pagerank(forward_only, damping=policy.pagerank_damping)
    return nodes, weights, succ, pred


def assert_rows_match(graph, database, policy):
    nodes, weights, succ, pred = naive_rows(database, policy)
    assert list(graph.nodes()) == nodes
    for node in nodes:
        assert graph.node_weight(node) == weights[node]
        assert graph.successors(node) == list(succ[node].items())
        assert graph.predecessors(node) == list(pred[node].items())
    assert graph.num_edges == sum(len(row) for row in succ.values())


EMPLOYEES = """
CREATE TABLE emp (id TEXT PRIMARY KEY, boss TEXT REFERENCES emp(id));
INSERT INTO emp VALUES ('ceo', 'ceo');
INSERT INTO emp VALUES ('cto', 'ceo');
INSERT INTO emp VALUES ('dev', 'cto');
INSERT INTO emp VALUES ('temp', NULL);
"""

SPOUSES = """
CREATE TABLE person (id TEXT PRIMARY KEY, spouse TEXT REFERENCES person(id));
INSERT INTO person VALUES ('a', 'b');
INSERT INTO person VALUES ('b', 'a');
INSERT INTO person VALUES ('c', 'a');
"""

DANGLING_SCHEMA = """
CREATE TABLE paper (id TEXT PRIMARY KEY);
CREATE TABLE cites (src TEXT REFERENCES paper(id), dst TEXT REFERENCES paper(id));
"""


def dangling_db():
    """A deferred database whose second cites row references a missing paper
    (every loader refuses that, so the rows go in one by one)."""
    database = Database("rows", deferred_fk_check=True)
    database.create_tables([t.schema for t in load_sql(DANGLING_SCHEMA).tables()])
    for table, values in [
        ("paper", ["p1"]),
        ("paper", ["p2"]),
        ("cites", ["p1", "p2"]),
        ("cites", ["p2", "gone"]),
    ]:
        database.insert(table, values)
    return database


def spouses_db():
    return load_sql(SPOUSES, "rows")


LIBRARY = """
CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT);
CREATE TABLE paper (id TEXT PRIMARY KEY, title TEXT, cites TEXT REFERENCES paper(id));
CREATE TABLE writes (
  author TEXT REFERENCES author(id), paper TEXT REFERENCES paper(id)
);
INSERT INTO author VALUES ('a0', 'ann');
INSERT INTO author VALUES ('a1', 'bob');
INSERT INTO author VALUES ('a2', 'cy');
INSERT INTO author VALUES ('a3', 'di');
INSERT INTO paper VALUES ('p0', 'graphs', 'p1');
INSERT INTO paper VALUES ('p1', 'trees', 'p3');
INSERT INTO paper VALUES ('p2', 'lists', 'p1');
INSERT INTO paper VALUES ('p3', 'heaps', NULL);
INSERT INTO paper VALUES ('p4', 'tries', 'p3');
INSERT INTO writes VALUES ('a0', 'p0');
INSERT INTO writes VALUES ('a1', 'p1');
INSERT INTO writes VALUES ('a2', 'p1');
INSERT INTO writes VALUES ('a2', 'p3');
INSERT INTO writes VALUES ('a3', 'p4');
INSERT INTO writes VALUES ('a0', 'p4');
"""


def deleted_rows_db():
    """Tombstones in every table, so dense ids are no longer slots;
    ``paper`` both references and is referenced (``p1`` by a lower id,
    while it references a higher one)."""
    database = load_sql(LIBRARY, "rows")
    for rid in [("writes", 1), ("author", 1), ("writes", 4), ("paper", 2)]:
        database.delete(rid)
    return database


DEPARTMENTS = """
CREATE TABLE dept (
  site TEXT, code TEXT, name TEXT, tag TEXT UNIQUE, PRIMARY KEY (site, code)
);
CREATE TABLE emp (
  id TEXT PRIMARY KEY, site TEXT, code TEXT, badge TEXT REFERENCES dept(tag),
  FOREIGN KEY (site, code) REFERENCES dept(site, code)
);
INSERT INTO dept VALUES ('nyc', 'r1', 'research', 't1');
INSERT INTO dept VALUES ('nyc', 'r2', 'sales', 't2');
INSERT INTO dept VALUES ('sf', 'r1', 'ops', 't3');
INSERT INTO emp VALUES ('e1', 'nyc', 'r1', 't3');
INSERT INTO emp VALUES ('e2', 'sf', 'r1', 't1');
INSERT INTO emp VALUES ('e3', 'nyc', 'r2', NULL);
INSERT INTO emp VALUES ('e4', 'nyc', 'r1', 't1');
"""


def departments_db():
    """A composite foreign key and one onto a unique non-key column;
    ``e4`` reaches the same department through both."""
    return load_sql(DEPARTMENTS, "rows")


DATABASES = {
    "selfref_and_null_fk": lambda: load_sql(EMPLOYEES, "rows"),
    "mutual_references": spouses_db,
    "deferred_missing_target": dangling_db,
    "deleted_rows": deleted_rows_db,
    "composite_and_non_key_fks": departments_db,
    "bibliography": lambda: generate_bibliography()[0],
    "synth_800": lambda: synth_bibliography(800)[0],
}

POLICIES = {
    "indegree": WeightPolicy(),
    "none": WeightPolicy(prestige="none"),
    "pagerank": WeightPolicy(prestige="pagerank"),
}


@pytest.mark.parametrize("prestige", sorted(POLICIES))
def test_figure1_rows(figure1_db, prestige):
    graph, _stats = build_data_graph(figure1_db, POLICIES[prestige])
    assert_rows_match(graph, figure1_db, POLICIES[prestige])


@pytest.mark.parametrize("prestige", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(DATABASES))
def test_rows_match_naive_reference(name, prestige):
    database = DATABASES[name]()
    graph, stats = build_data_graph(database, POLICIES[prestige])
    assert isinstance(graph, CSRGraph)
    assert_rows_match(graph, database, POLICIES[prestige])
    assert stats.num_nodes == graph.num_nodes == database.total_rows()


@pytest.mark.parametrize("merge_rule", ["min", "parallel"])
def test_eq1_merge_of_mutual_references(merge_rule):
    """a -> b gets forward 3.0 (a references b) and backward 2.0 (b
    references a, which two persons reference) candidates."""
    policy = WeightPolicy(
        similarities={("person", "person"): 3.0}, merge_rule=merge_rule
    )
    database = spouses_db()
    graph, _stats = build_data_graph(database, policy)
    assert_rows_match(graph, database, policy)
    merged = 2.0 if merge_rule == "min" else 1.2
    assert graph.edge_weight(("person", 0), ("person", 1)) == merged


def test_selfref_null_and_dangling_make_no_edges():
    graph, _stats = build_data_graph(load_sql(EMPLOYEES, "rows"))
    assert not graph.has_edge(("emp", 0), ("emp", 0))
    assert graph.out_degree(("emp", 3)) == graph.in_degree(("emp", 3)) == 0
    graph, stats = build_data_graph(dangling_db())
    assert stats.num_edges == 6  # cites 0 <-> p1, p2; cites 1 <-> p2 only
    assert graph.successors(("cites", 1)) == [(("paper", 1), 1.0)]


def test_new_cases_reach_what_they_pin():
    """Dense ids skip the tombstones; both FK shapes resolve."""
    graph, _stats = build_data_graph(deleted_rows_db())
    assert graph.index_of(("author", 2)) == 1
    assert graph.index_of(("paper", 3)) == 5
    successors = [node for node, _w in graph.successors(("paper", 1))]
    assert successors[:2] == [("paper", 0), ("paper", 3)]
    database = departments_db()
    assert database.references_of(("emp", 3)) == [
        (fk, ("dept", 0)) for fk in database.table("emp").schema.foreign_keys
    ]
    graph, _stats = build_data_graph(database)
    assert graph.successors(("emp", 3)) == [(("dept", 0), 1.0)]


@pytest.mark.parametrize("name", ["bibliography", "synth_800", "mutual_references"])
def test_thaw_round_trips(name):
    graph, _stats = build_data_graph(DATABASES[name]())
    thawed = graph.thaw()
    assert isinstance(thawed, DiGraph)
    again = CSRGraph.freeze(thawed)
    for field in CSRGraph.__slots__:
        assert getattr(again, field) == getattr(graph, field), field
    assert_rows_match(thawed, DATABASES[name](), WeightPolicy())


def test_freeze_graph_wraps_the_build_without_copying(figure1_db):
    graph, _stats = build_data_graph(figure1_db)
    overlay = freeze_graph(graph)
    assert overlay.base is graph
    assert overlay._succ_to is graph._succ_to


def test_banks_construction_peak_memory():
    """No dict graph on the way: the construction peak is at most 0.7x
    what building a dict graph and freezing it cost."""
    database = synth_bibliography(1600)[0]
    tracemalloc.start()
    try:
        BANKS(database)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * DICT_BUILD_PEAK_BYTES
