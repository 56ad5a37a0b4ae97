"""Tests for graph construction (Sec. 2.2) and the weight policy."""

import pytest

from repro.core.model import build_data_graph, link_tables
from repro.core.weights import WeightPolicy
from repro.errors import GraphError
from repro.relational import load_sql


class TestWeightPolicy:
    def test_defaults(self):
        policy = WeightPolicy()
        assert policy.forward_similarity("writes", "author") == 1.0
        assert policy.backward_weight("writes", "author", 5) == 5.0

    def test_custom_similarities(self):
        policy = WeightPolicy(similarities={("cites", "paper"): 2.0})
        assert policy.forward_similarity("cites", "paper") == 2.0
        assert policy.forward_similarity("writes", "paper") == 1.0

    def test_backward_indegree_floor_is_one(self):
        policy = WeightPolicy()
        assert policy.backward_weight("a", "b", 0) == 1.0

    def test_backward_scaling_disabled(self):
        policy = WeightPolicy(backward_indegree_scaling=False)
        assert policy.backward_weight("a", "b", 100) == 1.0

    def test_merge_min(self):
        assert WeightPolicy().merge(2.0, 5.0) == 2.0

    def test_merge_parallel(self):
        policy = WeightPolicy(merge_rule="parallel")
        assert policy.merge(2.0, 2.0) == pytest.approx(1.0)
        assert policy.merge(1.0, 0.0) == 0.0

    def test_bad_options_rejected(self):
        with pytest.raises(GraphError):
            WeightPolicy(merge_rule="sum")
        with pytest.raises(GraphError):
            WeightPolicy(prestige="fame")
        with pytest.raises(GraphError):
            WeightPolicy(default_similarity=0.0)


class TestBuildDataGraph:
    def test_every_tuple_is_a_node(self, figure1_db):
        graph, stats = build_data_graph(figure1_db)
        assert stats.num_nodes == figure1_db.total_rows()

    def test_forward_and_backward_edges(self, figure1_db):
        graph, _stats = build_data_graph(figure1_db)
        writes0 = ("writes", 0)
        author0 = ("author", 0)
        # Forward: writes -> author at similarity 1.
        assert graph.edge_weight(writes0, author0) == 1.0
        # Backward: author -> writes at IN_writes(author) = 1.
        assert graph.edge_weight(author0, writes0) == 1.0

    def test_backward_weight_counts_per_relation_indegree(self, figure1_db):
        graph, _stats = build_data_graph(figure1_db)
        paper0 = ("paper", 0)
        # Three writes tuples reference the paper.
        for writes_rid in range(3):
            assert graph.edge_weight(paper0, ("writes", writes_rid)) == 3.0

    def test_indegree_prestige(self, figure1_db):
        graph, _stats = build_data_graph(figure1_db)
        assert graph.node_weight(("paper", 0)) == 3.0
        assert graph.node_weight(("author", 0)) == 1.0
        assert graph.node_weight(("writes", 0)) == 0.0

    def test_prestige_none(self, figure1_db):
        graph, _stats = build_data_graph(
            figure1_db, WeightPolicy(prestige="none")
        )
        assert graph.node_weight(("paper", 0)) == 1.0
        assert graph.node_weight(("writes", 0)) == 1.0

    def test_prestige_pagerank(self, figure1_db):
        graph, _stats = build_data_graph(
            figure1_db, WeightPolicy(prestige="pagerank")
        )
        # The paper is referenced by all three writes tuples: highest.
        weights = {node: graph.node_weight(node) for node in graph.nodes()}
        assert max(weights, key=weights.get) == ("paper", 0)

    def test_stats_normalisers(self, figure1_db):
        _graph, stats = build_data_graph(figure1_db)
        assert stats.min_edge_weight == 1.0
        assert stats.max_node_weight == 3.0

    def test_custom_similarity_applied(self, figure1_db):
        policy = WeightPolicy(similarities={("writes", "paper"): 0.5})
        graph, stats = build_data_graph(figure1_db, policy)
        assert graph.edge_weight(("writes", 0), ("paper", 0)) == 0.5
        assert stats.min_edge_weight == 0.5

    def test_self_referencing_tuple_makes_no_edge(self):
        database = load_sql(
            """
            CREATE TABLE emp (
                id TEXT PRIMARY KEY,
                boss TEXT REFERENCES emp(id)
            );
            INSERT INTO emp VALUES ('ceo', 'ceo');
            """,
            "selfref",
        )
        graph, stats = build_data_graph(database)
        assert stats.num_edges == 0

    def test_mutually_referencing_tuples_merge_by_min(self):
        database = load_sql(
            """
            CREATE TABLE person (
                id TEXT PRIMARY KEY,
                spouse TEXT REFERENCES person(id)
            );
            INSERT INTO person VALUES ('a', 'b');
            INSERT INTO person VALUES ('b', 'a');
            """,
            "mutual",
        )
        graph, _stats = build_data_graph(database)
        # Each direction gets candidates: forward 1.0 and backward 1.0
        # (indegree 1); Eq. 1 takes the min -> 1.0.
        assert graph.edge_weight(("person", 0), ("person", 1)) == 1.0
        assert graph.edge_weight(("person", 1), ("person", 0)) == 1.0

    def test_isolated_tuples_still_searchable_nodes(self):
        database = load_sql(
            "CREATE TABLE note (id TEXT PRIMARY KEY, body TEXT);"
            "INSERT INTO note VALUES ('n1', 'standalone text');",
            "iso",
        )
        graph, stats = build_data_graph(database)
        assert graph.has_node(("note", 0))
        assert stats.num_edges == 0
        assert stats.min_edge_weight == 1.0  # safe default


class TestLinkTables:
    def test_pure_link_tables_detected(self, figure1_db):
        assert link_tables(figure1_db) == frozenset({"writes", "cites"})

    def test_tables_with_own_columns_not_links(self):
        database = load_sql(
            """
            CREATE TABLE a (id TEXT PRIMARY KEY);
            CREATE TABLE b (
                id TEXT PRIMARY KEY,
                a_id TEXT REFERENCES a(id)
            );
            """,
            "mix",
        )
        assert link_tables(database) == frozenset()
