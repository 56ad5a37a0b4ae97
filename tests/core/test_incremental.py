"""Tests for IncrementalBANKS: per-delta behaviour, the rebuild
equivalence property over random mutation sequences, and the
three-path write equivalence (direct mutation vs the delta-log
snapshot path vs the deep-copy snapshot path)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import IncrementalBANKS
from repro.core.model import build_data_graph
from repro.core.weights import WeightPolicy
from repro.errors import GraphError, IntegrityError
from repro.graph.csr import CSROverlayGraph
from repro.relational import Database, load_sql


def make_db() -> Database:
    return load_sql(
        """
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
        """,
        "inc",
    )


def graph_snapshot(graph):
    nodes = {node: graph.node_weight(node) for node in graph.nodes()}
    edges = {
        (source, target): weight for source, target, weight in graph.edges()
    }
    return nodes, edges


def assert_matches_rebuild(incremental: IncrementalBANKS) -> None:
    """The incremental graph must equal a from-scratch construction."""
    fresh_graph, fresh_stats = build_data_graph(
        incremental.database, incremental.weight_policy
    )
    inc_nodes, inc_edges = graph_snapshot(incremental.graph)
    fresh_nodes, fresh_edges = graph_snapshot(fresh_graph)
    assert inc_nodes == fresh_nodes
    assert inc_edges == fresh_edges
    incremental._refresh_stats()
    assert incremental.stats == fresh_stats


class TestInsert:
    def test_insert_adds_node_and_edges(self):
        banks = IncrementalBANKS(make_db())
        rid = banks.insert("writes", ["a2", "p1"])
        assert banks.graph.has_node(rid)
        assert banks.graph.has_edge(rid, ("author", 1))
        assert banks.graph.has_edge(rid, ("paper", 0))
        assert_matches_rebuild(banks)

    def test_insert_reweights_sibling_back_edges(self):
        """A second writes tuple for p1 doubles the paper's back-edge
        weight to the first writes tuple (IN_writes(p1) went 1 -> 2)."""
        banks = IncrementalBANKS(make_db())
        paper = ("paper", 0)
        first_writes = ("writes", 0)
        assert banks.graph.edge_weight(paper, first_writes) == 1.0
        banks.insert("writes", ["a2", "p1"])
        assert banks.graph.edge_weight(paper, first_writes) == 2.0
        assert_matches_rebuild(banks)

    def test_insert_updates_prestige(self):
        banks = IncrementalBANKS(make_db())
        paper = ("paper", 0)
        before = banks.graph.node_weight(paper)
        banks.insert("writes", ["a2", "p1"])
        assert banks.graph.node_weight(paper) == before + 1

    def test_insert_indexes_text(self):
        banks = IncrementalBANKS(make_db())
        rid = banks.insert("paper", ["p2", "symbolic reasoning"])
        assert rid in banks.index.lookup_nodes("symbolic")
        answers = banks.search("symbolic")
        assert answers and answers[0].tree.root == rid

    def test_insert_dict(self):
        banks = IncrementalBANKS(make_db())
        rid = banks.insert_dict("paper", {"pid": "p9", "title": "lambda calculus"})
        assert banks.search("lambda")[0].tree.root == rid
        assert_matches_rebuild(banks)

    def test_insert_invalid_fk_leaves_graph_untouched(self):
        banks = IncrementalBANKS(make_db())
        nodes_before, edges_before = graph_snapshot(banks.graph)
        with pytest.raises(IntegrityError):
            banks.insert("writes", ["ghost", "p1"])
        assert graph_snapshot(banks.graph) == (nodes_before, edges_before)


class TestDelete:
    def test_delete_removes_node_and_edges(self):
        banks = IncrementalBANKS(make_db())
        writes = ("writes", 0)
        banks.delete(writes)
        assert not banks.graph.has_node(writes)
        assert_matches_rebuild(banks)

    def test_delete_reweights_remaining_back_edges(self):
        banks = IncrementalBANKS(make_db())
        second = banks.insert("writes", ["a2", "p1"])
        paper = ("paper", 0)
        assert banks.graph.edge_weight(paper, second) == 2.0
        banks.delete(("writes", 0))
        assert banks.graph.edge_weight(paper, second) == 1.0
        assert_matches_rebuild(banks)

    def test_delete_referenced_tuple_refused_graph_intact(self):
        banks = IncrementalBANKS(make_db())
        snapshot = graph_snapshot(banks.graph)
        with pytest.raises(IntegrityError):
            banks.delete(("paper", 0))
        assert graph_snapshot(banks.graph) == snapshot
        # The index must also still find the paper.
        assert banks.search("computing")

    def test_deleted_text_no_longer_searchable(self):
        banks = IncrementalBANKS(make_db())
        banks.delete(("writes", 0))
        banks.delete(("paper", 0))
        assert banks.search("computing") == []


class TestUpdate:
    def test_update_moves_reference(self):
        banks = IncrementalBANKS(make_db())
        banks.insert("paper", ["p2", "symbolic reasoning"])
        writes = ("writes", 0)
        banks.update(writes, {"pid": "p2"})
        assert banks.graph.has_edge(writes, ("paper", 1))
        assert not banks.graph.has_edge(writes, ("paper", 0))
        assert_matches_rebuild(banks)

    def test_update_text_reindexes(self):
        banks = IncrementalBANKS(make_db())
        banks.update(("paper", 0), {"title": "deep learning"})
        assert banks.search("computing") == []
        answers = banks.search("deep")
        assert answers and answers[0].tree.root == ("paper", 0)
        assert_matches_rebuild(banks)

    def test_update_prestige_follows(self):
        banks = IncrementalBANKS(make_db())
        banks.insert("paper", ["p2", "symbolic reasoning"])
        banks.update(("writes", 0), {"pid": "p2"})
        assert banks.graph.node_weight(("paper", 0)) == 0.0
        assert banks.graph.node_weight(("paper", 1)) == 1.0

    def test_failed_update_leaves_everything_intact(self):
        banks = IncrementalBANKS(make_db())
        snapshot = graph_snapshot(banks.graph)
        with pytest.raises(IntegrityError):
            banks.update(("writes", 0), {"pid": "ghost"})
        assert graph_snapshot(banks.graph) == snapshot
        assert banks.search("computing")


class TestConfiguration:
    def test_pagerank_prestige_refused(self):
        with pytest.raises(GraphError):
            IncrementalBANKS(
                make_db(), weight_policy=WeightPolicy(prestige="pagerank")
            )

    def test_writable_facade_is_always_frozen(self):
        assert isinstance(IncrementalBANKS(make_db()).graph, CSROverlayGraph)
        with pytest.raises(TypeError):
            IncrementalBANKS(make_db(), freeze=False)

    def test_none_prestige_supported(self):
        banks = IncrementalBANKS(
            make_db(), weight_policy=WeightPolicy(prestige="none")
        )
        banks.insert("writes", ["a2", "p1"])
        assert_matches_rebuild(banks)

    def test_parallel_merge_rule_supported(self):
        banks = IncrementalBANKS(
            make_db(), weight_policy=WeightPolicy(merge_rule="parallel")
        )
        banks.insert("writes", ["a2", "p1"])
        assert_matches_rebuild(banks)

    def test_stats_refresh_after_mutation(self):
        banks = IncrementalBANKS(make_db())
        banks.insert("writes", ["a2", "p1"])
        banks._refresh_stats()
        fresh_graph, fresh_stats = build_data_graph(
            banks.database, banks.weight_policy
        )
        assert banks.stats == fresh_stats


# -- property: any mutation sequence matches a rebuild ---------------------------

_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert_paper", "insert_writes", "delete", "update_title"]),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=12,
)


def _run_operation(banks: IncrementalBANKS, op: str, argument: int, paper_count: int):
    """Apply one random operation to a facade; returns the new paper
    count (insert decisions must be identical across the three write
    paths, so everything derives from the *facade's* current state)."""
    if op == "insert_paper":
        paper_count += 1
        banks.insert("paper", [f"p{paper_count}", f"title word{argument}"])
    elif op == "insert_writes":
        authors = list(banks.database.table("author").rids())
        papers = list(banks.database.table("paper").rids())
        if authors and papers:
            author_row = banks.database.table("author").row(
                authors[argument % len(authors)]
            )
            paper_row = banks.database.table("paper").row(
                papers[argument % len(papers)]
            )
            banks.insert("writes", [author_row["aid"], paper_row["pid"]])
    elif op == "delete":
        writes = list(banks.database.table("writes").rids())
        if writes:
            banks.delete(("writes", writes[argument % len(writes)]))
    elif op == "update_title":
        papers = list(banks.database.table("paper").rids())
        if papers:
            banks.update(
                ("paper", papers[argument % len(papers)]),
                {"title": f"renamed word{argument}"},
            )
    return paper_count


@settings(deadline=None, max_examples=40)
@given(operations=_operations)
def test_property_mutations_match_rebuild(operations):
    banks = IncrementalBANKS(make_db())
    paper_count = 1
    for op, argument in operations:
        try:
            paper_count = _run_operation(banks, op, argument, paper_count)
        except IntegrityError:
            pass  # legitimately refused mutations leave state consistent
    assert_matches_rebuild(banks)
    # The index must agree with a fresh one on every vocabulary term.
    from repro.text.inverted_index import InvertedIndex

    fresh_index = InvertedIndex(banks.database)
    assert set(banks.index.vocabulary()) == set(fresh_index.vocabulary())
    for term in fresh_index.vocabulary():
        assert set(p.node for p in banks.index.lookup(term)) == set(
            p.node for p in fresh_index.lookup(term)
        )


# -- property: the snapshot store and direct mutation are one write path --------


@settings(deadline=None, max_examples=25)
@given(operations=_operations)
def test_property_delta_log_deep_copy_and_rebuild_agree(operations):
    """Drive the same random mutation sequence through (a) direct
    in-place mutation and (b) a SnapshotStore (fork + delta capture per
    write); both must converge to identical node sets, edge sets,
    weights, prestige and top-k answers — and match a full rebuild."""
    from repro.serve.snapshot import SnapshotStore
    from repro.shard.stitch import graphs_equal

    direct = IncrementalBANKS(make_db())
    store = SnapshotStore(IncrementalBANKS(make_db()))

    direct_papers = 1
    for op, argument in operations:
        try:
            direct_papers = _run_operation(direct, op, argument, direct_papers)
        except IntegrityError:
            pass
        # The store's paper counter equals the direct one by
        # construction (same op sequence, and the counter only moves on
        # successful insert_paper ops, which never fail with
        # IntegrityError on this schema).
        try:
            store.mutate(
                lambda facade, op=op, argument=argument: _run_operation(
                    facade, op, argument, direct_papers - 1
                )
            )
        except IntegrityError:
            pass

    facade = store.current().facade
    assert graphs_equal(direct.graph, facade.graph)
    direct._refresh_stats()
    facade._refresh_stats()
    assert direct.stats == facade.stats
    assert set(direct.index.vocabulary()) == set(facade.index.vocabulary())
    assert_matches_rebuild(facade)
    for query in ("title", "renamed word3", "ada", "computing"):
        expected = [
            (a.tree.root, round(a.relevance, 9)) for a in direct.search(query)
        ]
        got = [(a.tree.root, round(a.relevance, 9)) for a in facade.search(query)]
        assert got == expected, query
