"""Frozen CSR graph: freeze semantics, overlay COW, search parity.

The representation contract: freezing a :class:`DiGraph` and searching
through the arrays must be *invisible* — same read API answers, same
search answers and tie-breaks, same mutation semantics through the
overlay — because every ranking downstream ties on these.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import GraphStats
from repro.core.oracle import reference_search
from repro.core.scoring import Scorer
from repro.core.search import SearchConfig, backward_expanding_search
from repro.errors import GraphError
from repro.graph.csr import CSRGraph, CSROverlayGraph, freeze_graph
from repro.graph.digraph import DiGraph
from repro.shard.stitch import graphs_equal


def small_graph() -> DiGraph:
    graph = DiGraph()
    for name, weight in (("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 1.5)):
        graph.add_node(name, weight)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("a", "c", 5.0)
    graph.add_edge("c", "d", 1.0)
    return graph


def random_graph(seed: int, nodes: int = 30, edges: int = 80) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph()
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        graph.add_node(name, rng.uniform(0.0, 5.0))
    for _ in range(edges):
        source, target = rng.sample(names, 2)
        graph.add_edge(source, target, rng.choice([1.0, 1.0, 2.0, 3.5]))
    return graph


class TestFreeze:
    def test_read_api_matches_digraph(self):
        graph = small_graph()
        frozen = CSRGraph.freeze(graph)
        assert list(frozen.nodes()) == list(graph.nodes())
        assert frozen.num_nodes == graph.num_nodes
        assert frozen.num_edges == graph.num_edges
        for node in graph.nodes():
            assert frozen.node_weight(node) == graph.node_weight(node)
            assert frozen.successors(node) == graph.successors(node)
            assert frozen.predecessors(node) == graph.predecessors(node)
            assert frozen.out_degree(node) == graph.out_degree(node)
            assert frozen.in_degree(node) == graph.in_degree(node)
        assert list(frozen.edges()) == list(graph.edges())
        assert frozen.edge_weight("a", "b") == 1.0
        assert frozen.min_edge_weight() == graph.min_edge_weight()
        assert frozen.max_node_weight() == graph.max_node_weight()

    def test_freeze_skips_tombstones_and_preserves_insertion_order(self):
        """Regression guard: ranking tie-breaks follow adjacency and
        node order, so freeze/thaw must keep the *live* insertion
        order and never resurrect or renumber tombstoned slots."""
        graph = small_graph()
        graph.remove_node("b")
        graph.add_node("e", 4.0)
        graph.add_edge("e", "a", 1.0)
        assert graph.tombstone_count == 1
        frozen = CSRGraph.freeze(graph)
        assert list(frozen.nodes()) == ["a", "c", "d", "e"]
        assert list(frozen.nodes()) == list(graph.nodes())
        assert frozen.tombstone_count == 0  # compacted away
        assert frozen.num_nodes == graph.num_nodes
        assert frozen.num_edges == graph.num_edges
        assert list(frozen.edges()) == list(graph.edges())
        # Tombstones count as weight 0.0 in the DiGraph normaliser;
        # freeze delegates, so the floats agree bit for bit.
        assert frozen.max_node_weight() == graph.max_node_weight()

    def test_frozen_graph_refuses_mutation(self):
        frozen = CSRGraph.freeze(small_graph())
        for mutate in (
            lambda: frozen.add_node("x"),
            lambda: frozen.add_edge("a", "d", 1.0),
            lambda: frozen.remove_edge("a", "b"),
            lambda: frozen.remove_node("a"),
            lambda: frozen.set_node_weight("a", 9.0),
        ):
            with pytest.raises(GraphError):
                mutate()

    def test_direct_construction_refused(self):
        with pytest.raises(GraphError):
            CSRGraph()

    def test_edge_norms_precomputed(self):
        import math

        graph = small_graph()
        frozen = CSRGraph.freeze(graph)
        minimum = graph.min_edge_weight()
        assert frozen.frozen_min_edge_weight == minimum
        for weight in (1.0, 2.0, 5.0):
            expected = math.log2(1.0 + weight / minimum)
            assert frozen.frozen_edge_norms[weight] == expected

    def test_freeze_graph_facade_always_returns_overlay(self):
        graph = small_graph()
        overlay = freeze_graph(graph)
        assert isinstance(overlay, CSROverlayGraph)
        assert isinstance(freeze_graph(overlay.base), CSROverlayGraph)
        assert isinstance(freeze_graph(overlay), CSROverlayGraph)


class TestOverlay:
    def test_mutations_mirror_digraph(self):
        graph = small_graph()
        overlay = CSRGraph.freeze(graph).overlay()
        for target in (graph, overlay):
            target.add_node("e", 2.5)
            target.add_edge("e", "a", 1.0)
            target.add_edge("b", "d", 4.0)
            target.remove_edge("a", "c")
            target.set_node_weight("b", 7.0)
            target.remove_node("c")
        assert graphs_equal(overlay, graph)
        assert list(overlay.nodes()) == list(graph.nodes())
        assert list(overlay.edges()) == list(graph.edges())
        assert overlay.tombstone_count == graph.tombstone_count == 1

    def test_fork_isolation(self):
        overlay = freeze_graph(small_graph())
        fork = overlay.fork()
        fork.add_edge("d", "a", 2.0)
        fork.set_node_weight("a", 9.0)
        assert fork.has_edge("d", "a")
        assert not overlay.has_edge("d", "a")
        assert overlay.node_weight("a") == 1.0
        assert fork.node_weight("a") == 9.0
        assert fork.base is overlay.base

    def test_overlay_nodes_signals_refreeze(self):
        overlay = freeze_graph(small_graph())
        assert overlay.overlay_nodes == 0
        overlay.add_edge("d", "a", 2.0)
        assert overlay.overlay_nodes > 0
        refrozen = overlay.refreeze()
        assert isinstance(refrozen, CSRGraph)
        assert graphs_equal(refrozen, overlay)
        assert refrozen.overlay().overlay_nodes == 0

    def test_min_edge_rescans_only_when_the_last_carrier_goes(
        self, monkeypatch
    ):
        """Eq. 1 re-weighing overwrites one of many minimum-weight edges
        on almost every write; that must not cost an O(V) rescan."""
        scans = []
        scan = CSROverlayGraph._scan_min_edge

        def counting(graph):
            scans.append(graph)
            return scan(graph)

        monkeypatch.setattr(CSROverlayGraph, "_scan_min_edge", counting)
        overlay = freeze_graph(small_graph())  # a->b and c->d weigh 1.0
        overlay.add_edge("b", "d", 1.0)  # a third carrier
        overlay.add_edge("a", "b", 3.0)
        overlay.remove_edge("c", "d")
        assert overlay.min_edge_weight() == 1.0
        overlay = overlay.fork()
        assert overlay.min_edge_weight() == 1.0
        assert scans == []
        overlay.remove_edge("b", "d")  # the last carrier goes
        assert overlay.min_edge_weight() == 2.0
        assert overlay.min_edge_weight() == 2.0
        assert len(scans) == 1

    def test_mutation_error_parity(self):
        overlay = freeze_graph(small_graph())
        with pytest.raises(GraphError):
            overlay.add_edge("a", "a", 1.0)  # self loop
        with pytest.raises(GraphError):
            overlay.add_edge("a", "b", -1.0)  # negative weight
        with pytest.raises(GraphError):
            overlay.remove_edge("d", "a")  # absent edge


# -- property: freeze -> fork -> replay deltas == plain DiGraph ------------------

_mutations = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_node", "add_edge", "remove_edge", "remove_node", "reweigh"]
        ),
        st.integers(0, 11),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=24,
)


def _apply(graph, op: str, a: int, b: int) -> None:
    """One mutation, guarded identically for both representations."""
    live = list(graph.nodes())
    if op == "add_node":
        graph.add_node(f"m{a}", float(b))
    elif op == "add_edge" and len(live) >= 2:
        source = live[a % len(live)]
        target = live[b % len(live)]
        if source != target:
            graph.add_edge(source, target, 1.0 + (a + b) % 3)
    elif op == "remove_edge" and live:
        edges = list(graph.edges())
        if edges:
            source, target, _weight = edges[(a + b) % len(edges)]
            graph.remove_edge(source, target)
    elif op == "remove_node" and len(live) > 2:
        graph.remove_node(live[a % len(live)])
    elif op == "reweigh" and live:
        graph.set_node_weight(live[a % len(live)], float(b) + 0.5)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 5), mutations=_mutations)
def test_property_overlay_replay_matches_digraph(seed, mutations):
    """Freeze a random graph, fork the overlay, replay a random delta
    sequence over both representations (forking again as it goes):
    identical normalisers after every mutation, structural equality AND
    identical top-k answers (the search kernels must agree answer for
    answer on the mutated graph, not just on the frozen snapshot)."""
    plain = random_graph(seed, nodes=12, edges=24)
    overlay = freeze_graph(random_graph(seed, nodes=12, edges=24)).fork()
    for step, (op, a, b) in enumerate(mutations):
        if step % 3 == 2:
            overlay = overlay.fork()  # the maintained aggregates carry over
        _apply(plain, op, a, b)
        _apply(overlay, op, a, b)
        if plain.num_edges:
            assert overlay.min_edge_weight() == plain.min_edge_weight()
        assert overlay.max_node_weight() == plain.max_node_weight()
    assert graphs_equal(overlay, plain)
    assert list(overlay.nodes()) == list(plain.nodes())
    assert list(overlay.edges()) == list(plain.edges())

    if plain.num_edges == 0:
        return
    stats = GraphStats(
        min_edge_weight=plain.min_edge_weight(),
        max_node_weight=max(plain.max_node_weight(), 1.0e-12),
        num_nodes=plain.num_nodes,
        num_edges=plain.num_edges,
    )
    scorer = Scorer(stats)
    live = list(plain.nodes())
    keyword_node_sets = [{live[0]}, {live[len(live) // 2], live[-1]}]
    config = SearchConfig(max_results=5)
    expected = list(reference_search(plain, keyword_node_sets, scorer, config))
    actual = list(
        backward_expanding_search(overlay, keyword_node_sets, scorer, config)
    )
    assert [
        (s.tree.root, s.relevance, s.tree.parent, s.tree.keyword_nodes)
        for s in expected
    ] == [
        (s.tree.root, s.relevance, s.tree.parent, s.tree.keyword_nodes)
        for s in actual
    ]
