"""Unit tests for the directed graph substrate."""

import pytest

from repro.errors import GraphError, UnknownNodeError
from repro.graph.digraph import DiGraph


@pytest.fixture
def triangle():
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("c", "a", 3.0)
    return graph


class TestConstruction:
    def test_add_node_idempotent(self):
        graph = DiGraph()
        first = graph.add_node("x", weight=5.0)
        second = graph.add_node("x", weight=9.0)
        assert first == second
        # The original weight is kept.
        assert graph.node_weight("x") == 5.0

    def test_add_edge_creates_nodes(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_edge_replacement_not_parallel(self):
        graph = DiGraph()
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("a", "b", 7.0)
        assert graph.num_edges == 1
        assert graph.edge_weight("a", "b") == 7.0

    def test_self_loops_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "a", 1.0)

    def test_negative_weights_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "b", -0.5)

    def test_composite_node_ids(self):
        graph = DiGraph()
        graph.add_edge(("paper", 0), ("author", 3), 1.0)
        assert graph.has_node(("paper", 0))
        assert graph.has_edge(("paper", 0), ("author", 3))


class TestAccess:
    def test_successors_predecessors(self, triangle):
        assert triangle.successors("a") == [("b", 1.0)]
        assert triangle.predecessors("a") == [("c", 3.0)]
        assert triangle.out_degree("a") == 1
        assert triangle.in_degree("a") == 1

    def test_unknown_node_raises(self, triangle):
        with pytest.raises(UnknownNodeError):
            triangle.successors("zzz")

    def test_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.edge_weight("a", "c")

    def test_edges_iteration(self, triangle):
        assert sorted(triangle.edges()) == [
            ("a", "b", 1.0),
            ("b", "c", 2.0),
            ("c", "a", 3.0),
        ]

    def test_contains(self, triangle):
        assert "a" in triangle
        assert "z" not in triangle


class TestAggregates:
    def test_min_edge_weight(self, triangle):
        assert triangle.min_edge_weight() == 1.0

    def test_min_edge_weight_empty_graph(self):
        graph = DiGraph()
        graph.add_node("lonely")
        with pytest.raises(GraphError):
            graph.min_edge_weight()

    def test_max_node_weight(self):
        graph = DiGraph()
        graph.add_node("a", 1.0)
        graph.add_node("b", 9.0)
        assert graph.max_node_weight() == 9.0

    def test_max_node_weight_empty(self):
        with pytest.raises(GraphError):
            DiGraph().max_node_weight()


class TestDerivedGraphs:
    def test_subgraph(self, triangle):
        sub = triangle.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b")
        assert not sub.has_edge("c", "a")

    def test_reversed(self, triangle):
        reversed_graph = triangle.reversed()
        assert reversed_graph.has_edge("b", "a")
        assert reversed_graph.edge_weight("b", "a") == 1.0
        assert reversed_graph.num_edges == triangle.num_edges

