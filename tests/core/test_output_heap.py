"""Tests for the fixed-size output heap and its duplicate handling.

These exercise the Sec. 3 duplicate rules in isolation: "When a new
result is generated, if a duplicate is in the heap, and its relevance is
smaller than that of the new result, we remove the duplicate from the
heap and insert the new result. ... a duplicate of the result might have
already been output; in that case we discard the new result even if its
relevance is higher."
"""

import pytest

from repro.core.model import GraphStats
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import (
    SearchConfig,
    _OutputHeap,
    backward_expanding_search,
)
from repro.graph.csr import freeze_graph
from repro.graph.digraph import DiGraph


class TestOutputHeap:
    def test_pop_best_orders_by_relevance(self):
        heap = _OutputHeap(capacity=10)
        heap.add("k1", "tree1", 0.3)
        heap.add("k2", "tree2", 0.9)
        heap.add("k3", "tree3", 0.6)
        popped = [heap.pop_best()[2] for _ in range(3)]
        assert popped == [0.9, 0.6, 0.3]

    def test_full_flag(self):
        heap = _OutputHeap(capacity=2)
        heap.add("a", None, 0.1)
        assert not heap.full
        heap.add("b", None, 0.2)
        assert heap.full

    def test_remove_is_lazy_but_consistent(self):
        heap = _OutputHeap(capacity=5)
        heap.add("a", "ta", 0.5)
        heap.add("b", "tb", 0.9)
        heap.remove("b")
        assert len(heap) == 1
        assert heap.get_relevance("b") is None
        key, _tree, relevance = heap.pop_best()
        assert key == "a" and relevance == 0.5

    def test_replace_duplicate_with_better(self):
        heap = _OutputHeap(capacity=5)
        heap.add("dup", "worse", 0.4)
        assert heap.get_relevance("dup") == 0.4
        heap.remove("dup")
        heap.add("dup", "better", 0.7)
        assert heap.get_relevance("dup") == 0.7
        assert len(heap) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(KeyError):
            _OutputHeap(capacity=1).pop_best()

    def test_tie_breaking_is_fifo(self):
        heap = _OutputHeap(capacity=5)
        heap.add("first", "t1", 0.5)
        heap.add("second", "t2", 0.5)
        assert heap.pop_best()[0] == "first"


class TestEmittedDuplicateRule:
    def test_duplicate_of_emitted_answer_discarded(self):
        """Force a tiny output heap so the first rooting of a structure
        is emitted before its better-rooted duplicate is generated; the
        late duplicate must be dropped (list stays duplicate-free)."""
        graph = DiGraph()
        # Many parallel 2-hop connections so the heap overflows early.
        for i in range(8):
            for source, target in [("k1", f"m{i}"), (f"m{i}", "k2")]:
                graph.add_edge(source, target, 1.0 + i * 0.5)
                graph.add_edge(target, source, 1.0 + i * 0.5)
        stats = GraphStats(
            min_edge_weight=1.0, max_node_weight=1.0,
            num_nodes=graph.num_nodes, num_edges=graph.num_edges,
        )
        scorer = Scorer(stats, ScoringConfig())
        answers = list(
            backward_expanding_search(
                freeze_graph(graph),
                [{"k1"}, {"k2"}],
                scorer,
                SearchConfig(max_results=20, output_heap_size=2),
            )
        )
        keys = [answer.tree.undirected_key() for answer in answers]
        assert len(keys) == len(set(keys))
        assert len(answers) == 8  # one per middle node, no duplicates
