"""CSR kernel vs the dict reference, kernel to kernel.

``backward_expanding_search`` promises the reference search's answers exactly:
same roots, same float relevances, same emission order, same work.  The
facade-level tests see that promise through one or two queries; this
module calls both kernels directly on the same keyword node sets and
scorer, across the query shapes whose lane counts differ by two orders
of magnitude (a one-name ``solo`` query starts a fraction of its lanes,
a ``point`` query runs three lanes for thousands of pops) and across
every ``SearchConfig`` knob that reaches the lane machinery.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.banks import BANKS
from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import reference_search
from repro.core.search import backward_expanding_search
from repro.datasets import (
    DEMO_QUERY_SETS,
    generate_bibliography,
    generate_tpcd,
    synth_bibliography,
)
from repro.graph.csr import CSROverlayGraph, freeze_graph
from repro.graph.dijkstra import DijkstraIterator
from repro.obs import SearchProfile
from repro.store.delta import apply_graph_delta

#: Counters both kernels fill at the same points of the algorithm
#: (``expansion_seconds`` is wall time, ``answers_emitted`` follows from
#: the answer lists compared beside them).
SHARED_COUNTERS = (
    "heap_pops",
    "nodes_expanded",
    "edges_relaxed",
    "trees_considered",
    "duplicate_trees",
    "iterators",
    "lanes_started",
)

#: ``synth:800`` query shapes, by the benchmark's class names, with the
#: lanes each resolves to.
SHAPES = {
    "solo": ("albrecht", 40),
    "name": ("alice albrecht", 55),
    "half": ("alice 17", 17),
    "point3": ("3 11 25", 3),
    "title_word": ("mining", 71),
    "title_words": ("mining discovery", 129),
}

#: ``SearchConfig`` overrides on top of ``max_results=5``.  Author
#: prestige is low, so ``offset_past_radius`` leaves most author lanes
#: with a starting distance beyond ``max_distance``: they must never
#: enter the multiplexer, in either kernel.  ``max_visited`` stops the
#: ``name``, ``half``, ``point3`` and ``title_words`` expansions midway
#: (they run 1.2k-4.2k pops unbudgeted); ``excluded_root_tables``
#: narrows the facade's default ``{"cites", "writes"}`` to the paper's own
#: example, so ``cites`` tuples may root answers.
VARIANTS = {
    "default": {},
    "origin_offsets": {"origin_distance_scale": 0.5},
    "radius": {"max_distance": 2.0},
    "offset_past_radius": {"origin_distance_scale": 4.0, "max_distance": 3.9},
    "partial_answers": {"require_all_keywords": False},
    "max_visited": {"max_visited": 1000},
    "excluded_root_tables": {"excluded_root_tables": frozenset({"writes"})},
}


def run_both(reference_graph, frozen_graph, keyword_node_sets, scorer, config):
    """Both kernels to exhaustion: (answers, counters) for each."""
    assert isinstance(frozen_graph, CSROverlayGraph)
    outcomes = []
    for kernel, graph in (
        (reference_search, reference_graph),
        (backward_expanding_search, frozen_graph),
    ):
        profile = SearchProfile()
        answers = [
            (
                scored.tree.root,
                scored.relevance,
                scored.order,
                scored.tree.keyword_nodes,
                scored.tree.undirected_key(),
            )
            for scored in kernel(
                graph, keyword_node_sets, scorer, config, profile=profile
            )
        ]
        counters = {name: getattr(profile, name) for name in SHARED_COUNTERS}
        outcomes.append((answers, counters))
    return outcomes


def assert_parity(reference_graph, frozen_graph, facade, query, config):
    (expected, expected_counters), (actual, actual_counters) = run_both(
        reference_graph, frozen_graph, facade.resolve(query), facade.scorer, config
    )
    assert actual == expected  # floats compared with ==, on purpose
    assert actual_counters == expected_counters
    return actual, actual_counters


@pytest.fixture(scope="module")
def synth():
    """The reference facade over ``synth:800`` and its frozen graph."""
    facade = BANKS(synth_bibliography(800)[0], freeze=False)
    return facade, freeze_graph(facade.graph)


class TestSynthShapes:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_under_config(self, synth, shape, variant):
        facade, frozen = synth
        query, lanes = SHAPES[shape]
        config = replace(facade.search_config, max_results=5, **VARIANTS[variant])
        _answers, counters = assert_parity(facade.graph, frozen, facade, query, config)
        assert counters["iterators"] == lanes
        assert 0 < counters["lanes_started"] <= lanes

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_with_allowed_roots(self, synth, shape):
        facade, frozen = synth
        allowed = frozenset(node for node in facade.graph.nodes() if node[1] % 3 != 0)
        config = replace(
            facade.search_config, max_results=5, allowed_root_nodes=allowed
        )
        answers, _counters = assert_parity(
            facade.graph, frozen, facade, SHAPES[shape][0], config
        )
        assert answers and all(root in allowed for root, *_ in answers)

    def test_broad_query_starts_a_fraction_of_its_lanes(self, synth):
        facade, frozen = synth
        config = replace(facade.search_config, max_results=5)
        _answers, counters = assert_parity(
            facade.graph, frozen, facade, "albrecht", config
        )
        assert counters["lanes_started"] == counters["heap_pops"] == 25

    def test_lane_whose_offset_exceeds_the_radius_never_starts(self, synth):
        facade, frozen = synth
        config = replace(facade.search_config, **VARIANTS["offset_past_radius"])
        _answers, counters = assert_parity(
            facade.graph, frozen, facade, "alice 17", config
        )
        assert counters["lanes_started"] < counters["iterators"]
        # ...and not for want of pops: the started lanes ran to their radius.
        assert counters["heap_pops"] > counters["iterators"]

    def test_visit_budget_stops_mid_expansion(self, synth):
        facade, frozen = synth
        config = replace(facade.search_config, max_results=5, **VARIANTS["max_visited"])
        answers, counters = assert_parity(
            facade.graph, frozen, facade, "alice albrecht", config
        )
        assert counters["heap_pops"] == config.max_visited
        assert answers  # drained from the output heap after the break

    def test_excluded_table_roots_no_answer(self, synth):
        """With every relation allowed a ``writes`` tuple roots the best
        ``alice 17`` answer; barring the relation (the paper's example)
        drops those candidates in both kernels alike."""
        facade, frozen = synth
        roots = {}
        for excluded in (frozenset(), frozenset({"writes"})):
            config = replace(
                facade.search_config, max_results=5, excluded_root_tables=excluded
            )
            answers, _counters = assert_parity(
                facade.graph, frozen, facade, "alice 17", config
            )
            roots[excluded] = {root[0] for root, *_ in answers}
        assert "writes" in roots[frozenset()]
        assert "writes" not in roots[frozenset({"writes"})]


@pytest.fixture(scope="module")
def distinct_synth():
    """``synth:800`` with every edge weight nudged by its own random
    factor, and its frozen graph: no two paths tie, so every bucket of
    the kernel's queues holds a single node."""
    facade = BANKS(synth_bibliography(800)[0], freeze=False)
    rng = random.Random(800)
    for source, target, weight in list(facade.graph.edges()):
        facade.graph.add_edge(source, target, weight * rng.uniform(1.0, 1.000001))
    return facade, freeze_graph(facade.graph)


def settled_distances(graph, origin):
    """Every distance the reverse Dijkstra from ``origin`` settles at."""
    return [visit.distance for visit in DijkstraIterator(graph, origin, reverse=True)]


class TestQueueDiscipline:
    """Each lane queues its frontier in FIFO buckets of equal distance,
    and the multiplexer queues lanes the same way; the reference breaks
    ties on a push counter.  The two orders agree on tie-heavy graphs
    (``TestSettleLoopInvariants``) and on graphs without ties."""

    def test_distinct_weights_leave_no_ties(self, distinct_synth):
        facade, _frozen = distinct_synth
        distances = settled_distances(facade.graph, ("author", 3))
        assert len(distances) > 2500
        assert len(set(distances)) == len(distances)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_with_distinct_weights(self, distinct_synth, shape):
        facade, frozen = distinct_synth
        query, lanes = SHAPES[shape]
        config = replace(facade.search_config, max_results=5)
        _answers, counters = assert_parity(facade.graph, frozen, facade, query, config)
        assert counters["iterators"] == lanes

    def test_radius_on_a_tied_distance(self, synth):
        """``max_distance`` set to the distance ``author 3``'s lane
        settles most often, then to the float just below it: the whole
        bucket settles in the first run and none of it in the second."""
        facade, frozen = synth
        tied = Counter(settled_distances(facade.graph, ("author", 3)))
        radius, ties = tied.most_common(1)[0]
        assert ties > 50
        pops = []
        for max_distance in (radius, math.nextafter(radius, 0.0)):
            config = replace(
                facade.search_config, max_results=1000, max_distance=max_distance
            )
            _answers, counters = assert_parity(
                facade.graph, frozen, facade, "3 11", config
            )
            pops.append(counters["heap_pops"])
        assert pops[0] - pops[1] >= ties


class TestForkedOverlay:
    def test_inserted_and_deleted_rows(self):
        """The same deltas applied in place to the reference dict graph
        and to an overlay fork of the graph frozen *before* them:
        touched rows are read from the overlay dicts, untouched rows
        from the arrays."""
        base = IncrementalBANKS(synth_bibliography(800)[0])
        reference = BANKS(base.database.fork(), freeze=False).graph
        overlay = base.graph.fork()
        live = base.fork()
        live.begin_delta_capture()
        live.insert("author", ["sa900000", "Alice Albrecht 900000"])
        live.insert("paper", ["S900000", "Mining Discovery Overlays"])
        live.insert("writes", ["sa900000", "S900000"])
        live.insert("writes", ["sa000017", "S900000"])
        live.insert("cites", ["S900000", "S000003"])
        writes = live.database.table("writes")
        cites = live.database.table("cites")
        live.delete(("writes", next(iter(writes)).rid))
        for row in list(cites)[:3]:
            live.delete(("cites", row.rid))
        for delta in live.end_delta_capture():
            apply_graph_delta(reference, delta)
            apply_graph_delta(overlay, delta)
        live._refresh_stats()
        assert overlay.overlay_nodes > 0
        assert reference.min_edge_weight() == live.stats.min_edge_weight

        config = replace(live.search_config, max_results=5)
        for query, _lanes in SHAPES.values():
            assert_parity(reference, overlay, live, query, config)
        # Author 900000 touches the graph only through the inserted
        # writes and paper: any answer crosses overlay-only rows.
        answers, _counters = assert_parity(
            reference, overlay, live, "900000 17", config
        )
        assert answers

    def test_deleted_then_reinserted_nodes(self):
        """A removed node added back takes a fresh dense id past the
        frozen spine, whether it was a base node or an appended one;
        the kernel must still match the reference graph given the same
        removals and re-adds."""
        base = IncrementalBANKS(synth_bibliography(800)[0])
        live = base.fork()
        appended = live.insert("writes", ["sa000017", "S000003"])
        reference = BANKS(live.database.fork(), freeze=False).graph
        overlay = live.graph
        author = min(live.resolve("albrecht")[0])
        writes = next(s for s, _w in reference.predecessors(author))
        paper = next(t for t, _w in reference.successors(writes) if t[0] == "paper")
        readded = (author, writes, paper, appended, ("author", 17))
        for node in readded:
            for graph in (reference, overlay):
                weight = graph.node_weight(node)
                successors = graph.successors(node)
                predecessors = graph.predecessors(node)
                graph.remove_node(node)
                graph.add_node(node, weight)
                for target, edge_weight in successors:
                    graph.add_edge(node, target, edge_weight)
                for source, edge_weight in predecessors:
                    graph.add_edge(source, node, edge_weight)
        assert all(overlay.index_of(node) >= overlay.base.num_nodes for node in readded)
        assert overlay.tombstone_count == len(readded)

        config = replace(live.search_config, max_results=5)
        for query, _lanes in SHAPES.values():
            assert_parity(reference, overlay, live, query, config)
        answers, _counters = assert_parity(
            reference, overlay, live, "albrecht 17", config
        )
        assert any(author in keyword_nodes for _r, _s, _o, keyword_nodes, _k in answers)

    def test_keyword_nodes_and_trees_on_appended_nodes(self):
        """Every keyword node of the query, and the trees joining them,
        exist only past the frozen spine."""
        base = IncrementalBANKS(synth_bibliography(800)[0])
        reference = BANKS(base.database.fork(), freeze=False).graph
        overlay = base.graph.fork()
        live = base.fork()
        live.begin_delta_capture()
        live.insert("author", ["sa900001", "Quokka Zephyr 900001"])
        live.insert("author", ["sa900002", "Quokka Wombat 900002"])
        live.insert("paper", ["S900001", "Quokka Overlay Trees"])
        live.insert("paper", ["S900002", "Wombat Spine Sharing"])
        live.insert("writes", ["sa900001", "S900001"])
        live.insert("writes", ["sa900002", "S900001"])
        live.insert("writes", ["sa900002", "S900002"])
        live.insert("writes", ["sa900001", "S000003"])
        live.insert("cites", ["S900002", "S900001"])
        for delta in live.end_delta_capture():
            apply_graph_delta(reference, delta)
            apply_graph_delta(overlay, delta)
        live._refresh_stats()

        config = replace(live.search_config, max_results=5)
        for query in ("900001 900002", "quokka wombat", "zephyr spine"):
            answers, _counters = assert_parity(reference, overlay, live, query, config)
            assert answers
            for root, _score, _order, keyword_nodes, _tree in answers:
                assert not overlay.base.has_node(root)
                assert not any(overlay.base.has_node(k) for k in keyword_nodes)
        for query, _lanes in SHAPES.values():
            assert_parity(reference, overlay, live, query, config)

    def test_reweighed_edge_on_an_emitted_tree(self):
        """Lanes keep only parent ids; a tree's edge weights are read
        back at build from the row relaxation read.  Re-weigh an edge of
        the best answer in an overlay fork: the frozen row beneath still
        holds the old weight, and only the overlay row is right."""
        facade = BANKS(synth_bibliography(800)[0], freeze=False)
        reference = facade.graph
        overlay = freeze_graph(reference)
        config = replace(facade.search_config, max_results=5)
        keyword_node_sets = facade.resolve("3 11")
        best = next(
            reference_search(reference, keyword_node_sets, facade.scorer, config)
        ).tree
        # The edge into the first keyword node: its row is the one the
        # keyword's lane relaxes first.
        keyword = best.keyword_nodes[0]
        source = best.parent[keyword]
        weight = reference.edge_weight(source, keyword) / 2
        for graph in (reference, overlay):
            graph.add_edge(source, keyword, weight)
        assert overlay.base.edge_weight(source, keyword) == 2 * weight

        assert_parity(reference, overlay, facade, "3 11", config)
        weights = [
            scored.tree.edge_weight(source, keyword)
            for scored in backward_expanding_search(
                overlay, keyword_node_sets, facade.scorer, config
            )
            if (source, keyword) in scored.tree.edges
        ]
        assert weights and set(weights) == {weight}


class TestSettleLoopInvariants:
    @pytest.mark.parametrize("query", ["0 17", "albrecht 0"])
    def test_trees_through_dense_id_zero(self, synth, query):
        """A lane link is a bare parent id, and ``("author", 0)`` has
        dense id 0 — falsy, yet a parent like any other: where a path
        ends, and as the first hop from the ``writes`` roots beside it
        (every relation may root here)."""
        facade, frozen = synth
        author = ("author", 0)
        assert frozen.index_of(author) == 0
        config = replace(
            facade.search_config, max_results=5, excluded_root_tables=frozenset()
        )
        answers, _counters = assert_parity(facade.graph, frozen, facade, query, config)
        assert answers
        assert all(author in keyword_nodes for _r, _s, _o, keyword_nodes, _k in answers)

    def test_tie_heavy_expansion(self, synth):
        """``synth`` draws its edge weights from a handful of values, so
        equal distances are the norm: a stale-entry rule that let a tie
        through would settle a node twice or drop a live entry."""
        facade, frozen = synth
        distances = settled_distances(facade.graph, ("author", 3))
        assert len(distances) > 50 * len(set(distances))
        config = replace(facade.search_config, max_results=50)
        _answers, counters = assert_parity(facade.graph, frozen, facade, "3 11", config)
        assert counters["heap_pops"] > 2500


class TestDemoBatteries:
    @pytest.mark.parametrize(
        "dataset, generate",
        [
            ("bibliography", generate_bibliography),
            ("tpcd", generate_tpcd),
            ("synth_bibliography", lambda: synth_bibliography(800)),
        ],
    )
    def test_every_demo_query(self, dataset, generate):
        facade = BANKS(generate()[0], freeze=False)
        frozen = freeze_graph(facade.graph)
        answered = 0
        for query in DEMO_QUERY_SETS[dataset]:
            answers, _counters = assert_parity(
                facade.graph, frozen, facade, query, facade.search_config
            )
            answered += bool(answers)
        assert answered >= len(DEMO_QUERY_SETS[dataset]) // 2
