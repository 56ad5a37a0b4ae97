"""The partition must cover the data graph losslessly.

The router partitions the one built graph in place and every shard
searches that graph, so what has to hold is a cover: the shard node
sets are disjoint and span every node, and the intra-shard edges plus
the cut links are exactly the graph's edges, weights included, as many
as the partition's maintained cut count.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core.model import build_data_graph
from repro.shard import GraphPartitioner, hash_strategy, stats_of

#: Layouts the cover must hold under, as ``shards -> (node -> shard)``:
#: the hash placement, whole tables together, rows striped by row id.
PLACEMENTS = {
    "hash": hash_strategy,
    "table": lambda shards: lambda node: zlib.crc32(node[0].encode()) % shards,
    "round_robin": lambda shards: lambda node: node[1] % shards,
}


@pytest.fixture(scope="module")
def university_build():
    from repro.datasets import generate_university

    database, _ = generate_university()
    return build_data_graph(database)


def split_edges(graph, partition):
    """``(intra-shard edges, cut edges)`` as ``(source, target, weight)``."""
    intra = [
        (source, target, weight)
        for source, target, weight in graph.edges()
        if partition.shard_of(source) == partition.shard_of(target)
    ]
    cut = [
        (link.source, link.target, link.weight) for link in partition.cut_links(graph)
    ]
    return intra, cut


@pytest.mark.parametrize("strategy", list(PLACEMENTS))
@pytest.mark.parametrize("shards", [1, 2, 5])
def test_stitch_reassembles_exactly(university_build, strategy, shards):
    """Shard node sets plus intra-shard and cut edges rebuild the graph."""
    graph, stats = university_build
    place = PLACEMENTS[strategy](shards)
    partition = GraphPartitioner(shards, strategy=place).partition(graph)

    owned = [node for nodes in partition.shard_nodes for node in nodes]
    assert len(owned) == len(set(owned)) == graph.num_nodes
    assert set(owned) == set(graph.nodes())
    for shard, nodes in enumerate(partition.shard_nodes):
        assert all(partition.shard_of(node) == shard for node in nodes)

    intra, cut = split_edges(graph, partition)
    assert sorted(intra + cut) == sorted(graph.edges())
    assert len(cut) == partition.cut_edge_count
    for link in partition.cut_links(graph):
        assert link.source_db == f"shard{partition.shard_of(link.source)}"
        assert link.target_db == f"shard{partition.shard_of(link.target)}"
        assert link.source_db != link.target_db
    assert stats_of(graph) == stats


def test_stitch_without_cut_links_is_lossy(university_build):
    """The cut edges are load-bearing: without them edges go missing."""
    graph, _stats = university_build
    partition = GraphPartitioner(3).partition(graph)
    assert partition.cut_edge_count  # hash split cuts something
    intra, _cut = split_edges(graph, partition)
    assert len(intra) == graph.num_edges - partition.cut_edge_count
    assert sorted(intra) != sorted(graph.edges())
