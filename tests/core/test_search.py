"""Tests for the backward expanding search (Sec. 3, Fig. 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import GraphStats
from repro.core.oracle import reference_search
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import SearchConfig, backward_expanding_search
from repro.errors import EmptyQueryError, QueryError
from repro.graph.csr import freeze_graph
from repro.graph.digraph import DiGraph
from repro.graph.steiner import steiner_tree


def make_scorer(graph: DiGraph) -> Scorer:
    stats = GraphStats(
        min_edge_weight=(
            graph.min_edge_weight() if graph.num_edges else 1.0
        ),
        max_node_weight=max(graph.max_node_weight(), 1e-12),
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
    )
    return Scorer(stats, ScoringConfig())


def run_search(graph, groups, **config_kwargs):
    """The kernel's answers on ``graph`` frozen, after checking them
    against the reference search on ``graph`` itself: same roots, ``==``
    relevances, order, parent maps and keyword nodes."""
    config = SearchConfig(**config_kwargs) if config_kwargs else SearchConfig()
    scorer = make_scorer(graph)
    answers = list(
        backward_expanding_search(freeze_graph(graph), groups, scorer, config)
    )
    expected = list(reference_search(graph, groups, scorer, config))
    assert [_shape(answer) for answer in answers] == [
        _shape(answer) for answer in expected
    ]
    return answers


def _shape(answer):
    tree = answer.tree
    return tree.root, answer.relevance, answer.order, tree.parent, tree.keyword_nodes


def bidirected(edges):
    """Build a graph with forward weight-1 and backward weight-1 edges."""
    graph = DiGraph()
    for source, target in edges:
        graph.add_edge(source, target, 1.0)
        graph.add_edge(target, source, 1.0)
    return graph


class TestBasicAnswers:
    def test_single_keyword_single_node_answers(self):
        graph = bidirected([("a", "b"), ("b", "c")])
        answers = run_search(graph, [{"a", "c"}])
        trees = {answer.tree.root for answer in answers}
        assert trees == {"a", "c"}
        assert all(answer.tree.size() == 1 for answer in answers)

    def test_two_keywords_connected_by_middle_node(self):
        graph = bidirected([("k1", "m"), ("m", "k2")])
        answers = run_search(graph, [{"k1"}, {"k2"}])
        assert answers
        best = answers[0].tree
        assert best.nodes == {"k1", "m", "k2"}
        best.validate()

    def test_no_common_vertex_no_answers(self):
        graph = DiGraph()
        graph.add_node("k1")
        graph.add_node("k2")
        assert run_search(graph, [{"k1"}, {"k2"}]) == []

    def test_keyword_matching_nothing_no_answers(self):
        graph = bidirected([("a", "b")])
        assert run_search(graph, [{"a"}, set()]) == []

    def test_unknown_nodes_filtered(self):
        graph = bidirected([("a", "b")])
        answers = run_search(graph, [{"a", "ghost"}, {"b"}])
        assert answers  # ghost ignored, a-b answer found

    def test_empty_query_rejected(self):
        graph = bidirected([("a", "b")])
        with pytest.raises(EmptyQueryError):
            run_search(graph, [])

    def test_bad_config_rejected(self):
        with pytest.raises(QueryError):
            SearchConfig(max_results=0)
        with pytest.raises(QueryError):
            SearchConfig(output_heap_size=0)

    def test_single_node_covering_all_keywords(self):
        graph = bidirected([("x", "y")])
        answers = run_search(graph, [{"x"}, {"x"}])
        assert answers[0].tree.size() == 1
        assert answers[0].tree.keyword_nodes == ("x", "x")


class TestFigure3Rules:
    def test_single_child_root_discarded(self):
        # chain k1 - a - b - k2: candidate roots a and b each have one
        # child; only one undirected structure remains.
        graph = bidirected([("k1", "a"), ("a", "b"), ("b", "k2")])
        answers = run_search(graph, [{"k1"}, {"k2"}])
        assert len(answers) == 1
        assert answers[0].tree.nodes == {"k1", "a", "b", "k2"}

    def test_keyword_root_exempt_from_discard(self):
        # k1 itself must be able to root a one-child tree.
        graph = bidirected([("k1", "k2")])
        answers = run_search(graph, [{"k1"}, {"k2"}])
        assert len(answers) == 1
        assert answers[0].tree.nodes == {"k1", "k2"}

    def test_duplicates_modulo_direction_collapse(self):
        # Star: m connects k1 and k2; rooting at m / k1 / k2 gives the
        # same undirected tree; exactly one answer must emerge.
        graph = bidirected([("m", "k1"), ("m", "k2")])
        answers = run_search(graph, [{"k1"}, {"k2"}])
        assert len(answers) == 1

    def test_excluded_root_tables(self):
        graph = DiGraph()
        for source, target in [
            (("link", 0), ("a", 0)),
            (("link", 0), ("b", 0)),
        ]:
            graph.add_edge(source, target, 1.0)
            graph.add_edge(target, source, 1.0)
        groups = [{("a", 0)}, {("b", 0)}]
        with_link_root = run_search(graph, groups)
        assert any(
            answer.tree.root[0] == "link" for answer in with_link_root
        )
        without = run_search(
            graph, groups, excluded_root_tables=frozenset({"link"})
        )
        assert all(answer.tree.root[0] != "link" for answer in without)

    def test_results_approximately_best_first(self):
        # Two connections of different weight: light one must come first
        # given a heap large enough to order exactly.
        graph = DiGraph()
        for s, t, w in [
            ("k1", "cheap", 1.0), ("cheap", "k2", 1.0),
            ("k1", "dear", 5.0), ("dear", "k2", 5.0),
        ]:
            graph.add_edge(s, t, w)
            graph.add_edge(t, s, w)
        answers = run_search(graph, [{"k1"}, {"k2"}], output_heap_size=100)
        assert "cheap" in answers[0].tree.nodes
        relevances = [answer.relevance for answer in answers]
        assert relevances == sorted(relevances, reverse=True)

    def test_max_results_truncates(self):
        graph = bidirected(
            [("k1", f"m{i}") for i in range(6)]
            + [(f"m{i}", "k2") for i in range(6)]
        )
        answers = run_search(graph, [{"k1"}, {"k2"}], max_results=3)
        assert len(answers) == 3

    def test_max_visited_budget_stops_early(self):
        graph = bidirected([(f"n{i}", f"n{i+1}") for i in range(50)])
        answers = run_search(
            graph, [{"n0"}, {"n50"}], max_visited=5
        )
        assert answers == []  # budget too small to meet in the middle

    def test_max_distance_prunes(self):
        graph = bidirected([("k1", "m"), ("m", "k2")])
        assert run_search(graph, [{"k1"}, {"k2"}], max_distance=0.5) == []
        assert run_search(graph, [{"k1"}, {"k2"}], max_distance=2.0)


class TestPartialAnswers:
    def test_partial_disabled_by_default(self):
        graph = bidirected([("k1", "m")])
        graph.add_node("k2island")
        assert run_search(graph, [{"k1"}, {"k2island"}]) == []

    def test_partial_answers_when_allowed(self):
        graph = bidirected([("k1", "m")])
        graph.add_node("k2island")
        answers = run_search(
            graph,
            [{"k1"}, {"k2island"}],
            require_all_keywords=False,
        )
        assert answers
        covered = {a.tree.covered_terms() for a in answers}
        assert 1 in covered

    def test_complete_answers_outrank_partial(self):
        graph = bidirected([("k1", "m"), ("m", "k2")])
        answers = run_search(
            graph, [{"k1"}, {"k2"}], require_all_keywords=False,
            output_heap_size=100,
        )
        assert answers[0].tree.covered_terms() == 2


class TestAnswerInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        edge_specs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=3,
            max_size=30,
        ),
        group_seeds=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    )
    def test_answers_are_valid_trees_covering_all_keywords(
        self, edge_specs, group_seeds
    ):
        """Property: on random graphs, every emitted answer is a valid
        rooted tree containing >= 1 node from every keyword group, with
        no duplicate undirected structures across the result list."""
        graph = DiGraph()
        for node in range(10):
            graph.add_node(node, float(node % 3))
        for source, target in edge_specs:
            if source != target:
                graph.add_edge(source, target, 1.0 + (source + target) % 3)
        groups = [{seed} for seed in group_seeds]
        answers = run_search(graph, groups, max_results=20)
        seen_keys = set()
        for answer in answers:
            tree = answer.tree
            tree.validate()
            assert 0.0 <= answer.relevance <= 1.0
            for group, matched in zip(groups, tree.keyword_nodes):
                assert matched in group
            key = tree.undirected_key()
            assert key not in seen_keys
            seen_keys.add(key)

    @settings(max_examples=25, deadline=None)
    @given(
        edge_specs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=4,
            max_size=25,
        ),
        seeds=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    def test_best_answer_weight_bounded_by_steiner_oracle(
        self, edge_specs, seeds
    ):
        """Property: the heuristic's best tree weighs at least the exact
        group-Steiner optimum, and the optimum is found whenever the
        search finds anything at all on these tiny graphs."""
        graph = DiGraph()
        for node in range(8):
            graph.add_node(node)
        for source, target in edge_specs:
            if source != target:
                graph.add_edge(source, target, 1.0)
                graph.add_edge(target, source, 1.0)
        groups = [{seeds[0]}, {seeds[1]}]
        answers = run_search(graph, groups, max_results=50,
                             output_heap_size=500)
        exact = steiner_tree(graph, [set(g) for g in groups])
        if exact is None:
            assert answers == []
            return
        assert answers, "oracle found a tree but the search did not"
        best_weight = min(answer.tree.weight for answer in answers)
        assert best_weight >= exact.weight - 1e-9
        # With unit weights and a generous budget the heuristic attains
        # the optimum.
        assert best_weight == pytest.approx(exact.weight)
