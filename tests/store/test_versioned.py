"""Versioned graph snapshots: the copy-on-write semantics of overlay
forks that every published store version relies on, and the audited
tombstone accessor."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.csr import CSROverlayGraph, freeze_graph
from repro.graph.digraph import DiGraph


def plain_triangle() -> DiGraph:
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("c", "a", 3.0)
    graph.set_node_weight("a", 5.0)
    return graph


def triangle() -> CSROverlayGraph:
    return freeze_graph(plain_triangle())


def snapshot(graph):
    nodes = {node: graph.node_weight(node) for node in graph.nodes()}
    edges = {(s, t): w for s, t, w in graph.edges()}
    return nodes, edges


class TestForkIsolation:
    def test_fork_sees_parent_state(self):
        parent = triangle()
        child = parent.fork()
        assert snapshot(child) == snapshot(parent)

    def test_child_mutations_invisible_to_parent(self):
        parent = triangle()
        before = snapshot(parent)
        child = parent.fork()
        child.add_edge("a", "c", 9.0)
        child.remove_edge("b", "c")
        child.add_node("d", 4.0)
        child.add_edge("d", "a", 1.5)
        child.set_node_weight("a", 7.0)
        child.remove_node("b")
        assert snapshot(parent) == before
        assert not child.has_node("b")
        assert child.edge_weight("d", "a") == 1.5

    def test_wrapping_a_plain_digraph(self):
        plain = plain_triangle()
        child = freeze_graph(plain)
        assert isinstance(child, CSROverlayGraph)
        before = snapshot(plain)
        child.remove_node("a")
        assert snapshot(plain) == before

    def test_chained_forks_each_isolated(self):
        g0 = triangle()
        g1 = g0.fork()
        g1.add_edge("a", "c", 9.0)
        g2 = g1.fork()
        g2.remove_edge("a", "c")
        g3 = g2.fork()
        g3.add_node("z", 1.0)
        assert g0.has_edge("a", "c") is False
        assert g1.edge_weight("a", "c") == 9.0
        assert g2.has_edge("a", "c") is False
        assert not g2.has_node("z")
        assert g3.has_node("z")
        # Every fork holds the frozen base, never its parent: a chain
        # of published versions does not keep its ancestors alive.
        assert g3.base is g2.base is g1.base is g0.base

    def test_structural_sharing_is_real(self):
        """A fork owns nothing until it writes, then owns only what it
        touched — the O(delta) claim, observable."""
        parent = triangle()
        parent.add_edge("c", "b", 4.0)  # succ[c] becomes an overlay row
        child = parent.fork()
        assert child.shared_nodes == 3
        child.add_edge("a", "b", 1.5)  # touches succ[a] + pred[b]
        assert child.shared_nodes < 3
        # Untouched overlay rows are the very same objects.
        c = child.index_of("c")
        assert child.raw_successors(c) is parent.raw_successors(c)


class TestEquivalenceWithDiGraph:
    def test_same_behaviour_as_digraph_after_mutations(self):
        operations = [
            ("add_edge", ("x", "y", 1.0)),
            ("add_edge", ("y", "z", 2.0)),
            ("remove_edge", ("x", "y")),
            ("add_edge", ("x", "y", 4.0)),
            ("add_node", ("lone",)),
            ("remove_node", ("z",)),
        ]
        plain = plain_triangle()
        head = triangle()
        for name, args in operations:
            getattr(plain, name)(*args)
            head = head.fork()  # mutate through a fresh fork every time
            getattr(head, name)(*args)
        assert snapshot(plain) == snapshot(head)
        assert plain.num_nodes == head.num_nodes
        assert plain.num_edges == head.num_edges
        assert plain.min_edge_weight() == head.min_edge_weight()
        assert plain.max_node_weight() == head.max_node_weight()


class TestTombstoneAccounting:
    def test_num_nodes_and_tombstones_from_one_source(self):
        graph = triangle()
        assert graph.num_nodes == 3
        assert graph.tombstone_count == 0
        graph.remove_node("b")
        assert graph.num_nodes == 2
        assert graph.tombstone_count == 1
        graph.add_node("b")  # re-add: new slot, old tombstone remains
        assert graph.num_nodes == 3
        assert graph.tombstone_count == 1

    def test_fork_inherits_consistent_accounting(self):
        """Regression: the old separate ``_tombstones`` counter had to
        be copied by every new code path touching the internals; the
        derived accessor cannot drift."""
        parent = triangle()
        parent.remove_node("c")
        child = parent.fork()
        assert child.num_nodes == parent.num_nodes == 2
        assert child.tombstone_count == parent.tombstone_count == 1
        child.remove_node("b")
        assert child.num_nodes == 1
        assert child.tombstone_count == 2
        assert parent.num_nodes == 2
        assert parent.tombstone_count == 1

    def test_plain_digraph_exposes_the_same_accessor(self):
        graph = plain_triangle()
        graph.remove_node("a")
        assert graph.num_nodes == 2
        assert graph.tombstone_count == 1


class TestContractErrors:
    def test_self_loop_still_rejected(self):
        child = triangle().fork()
        with pytest.raises(GraphError):
            child.add_edge("a", "a", 1.0)

    def test_missing_edge_removal_still_raises(self):
        child = triangle().fork()
        with pytest.raises(GraphError):
            child.remove_edge("a", "c")
