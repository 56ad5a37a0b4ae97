"""Tests for the graph partitioner and its hash placement."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.model import build_data_graph
from repro.datasets import synth_bibliography
from repro.errors import ShardError
from repro.federate.links import TupleLink
from repro.shard import GraphPartitioner, hash_strategy


@pytest.fixture(scope="module")
def university_graph():
    from repro.datasets import generate_university

    database, _ = generate_university()
    graph, _stats = build_data_graph(database)
    return graph


class TestStrategies:
    def test_hash_strategy_is_deterministic_and_in_range(self):
        place = hash_strategy(4)
        for node in [("paper", 0), ("paper", 1), ("author", 0)]:
            shard = place(node)
            assert 0 <= shard < 4
            assert place(node) == shard  # stable across calls

    def test_hash_strategy_does_not_use_builtin_hash(self):
        # CRC32 of "table:rid" — a fixed value, immune to PYTHONHASHSEED.
        assert hash_strategy(1000)(("paper", 7)) == 508
        assert hash_strategy(1000)(("author", 7)) == 222


class TestPartitioner:
    def test_partition_covers_all_nodes_disjointly(self, university_graph):
        partition = GraphPartitioner(3).partition(university_graph)
        union = set()
        total = 0
        for nodes in partition.shard_nodes:
            total += len(nodes)
            union.update(nodes)
        assert union == set(university_graph.nodes())
        assert total == university_graph.num_nodes  # disjoint

    def test_cut_edges_are_exactly_the_crossing_edges(self, university_graph):
        partition = GraphPartitioner(3).partition(university_graph)
        expected = set()
        for source, target, weight in university_graph.edges():
            if partition.shard_of(source) != partition.shard_of(target):
                expected.add((source, target, weight))
        assert partition.cut_edge_count == len(expected)
        links = partition.cut_links(university_graph)
        assert len(links) == len(expected)
        assert {(link.source, link.target, link.weight) for link in links} == expected

    def test_cut_links_use_federation_records(self, university_graph):
        partition = GraphPartitioner(2).partition(university_graph)
        links = partition.cut_links(university_graph)
        assert len(links) == partition.cut_edge_count
        for link in links:
            assert isinstance(link, TupleLink)
            assert link.source_db == f"shard{partition.shard_of(link.source)}"
            assert link.target_db == f"shard{partition.shard_of(link.target)}"
            assert link.source_db != link.target_db
            assert link.weight == university_graph.edge_weight(
                link.source, link.target
            )

    def test_single_shard_has_no_cut_edges(self, university_graph):
        partition = GraphPartitioner(1).partition(university_graph)
        assert partition.cut_edge_count == 0
        assert partition.cut_links(university_graph) == []
        assert partition.shard_nodes[0] == frozenset(university_graph.nodes())

    def test_balance_and_cut_fraction(self, university_graph):
        partition = GraphPartitioner(4).partition(university_graph)
        assert partition.balance() >= 1.0
        assert 0.0 < partition.cut_fraction(university_graph) < 1.0

    def test_shard_of_unknown_node_raises(self, university_graph):
        partition = GraphPartitioner(2).partition(university_graph)
        with pytest.raises(ShardError):
            partition.shard_of(("nope", 999))

    def test_custom_strategy_callable(self, university_graph):
        partition = GraphPartitioner(
            2, strategy=lambda node: 0
        ).partition(university_graph)
        assert partition.shard_nodes[1] == frozenset()
        assert partition.cut_edge_count == 0
        assert partition.cut_links(university_graph) == []

    def test_rejects_bad_configuration(self, university_graph):
        with pytest.raises(ShardError):
            GraphPartitioner(0)
        out_of_range = GraphPartitioner(2, strategy=lambda node: 7)
        with pytest.raises(ShardError):
            out_of_range.partition(university_graph)


def test_retained_memory_does_not_grow_with_the_cut():
    """A partition holds its owner sets and a count: nothing per cut
    edge, and no second node-to-shard map beside the sets."""
    graph, _stats = build_data_graph(synth_bibliography(800)[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        partition = GraphPartitioner(2).partition(graph)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert partition.cut_edge_count > graph.num_nodes  # a cut bigger than V
    assert retained / graph.num_nodes < 100, retained
