"""The shard split in one pass, against brute force.

The partitioner places each node once and counts the cut off the CSR
arrays; the router cuts every shard's index slice in one pass over the
postings.  Both must give what the obvious per-edge and per-shard
walks give, and building a router must not walk the edge list at all.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.model import build_data_graph
from repro.datasets import generate_bibliography
from repro.graph.csr import CSRGraph
from repro.shard import GraphPartitioner, ShardRouter, hash_strategy
from repro.text.inverted_index import InvertedIndex
from tests.core.test_build_rows import deleted_rows_db

SHARDS = 3

DATABASES = {
    "bibliography": lambda: generate_bibliography()[0],
    "deleted_rows": deleted_rows_db,
}


@pytest.mark.parametrize("name", sorted(DATABASES))
def test_owner_sets_and_cut_match_a_walk_over_the_edges(name):
    graph, _stats = build_data_graph(DATABASES[name]())
    partition = GraphPartitioner(SHARDS).partition(graph)
    place = hash_strategy(SHARDS)
    expected = [set() for _ in range(SHARDS)]
    for node in graph.nodes():
        expected[place(node)].add(node)
    assert partition.shard_nodes == expected
    cut = sum(place(source) != place(target) for source, target, _w in graph.edges())
    assert partition.cut_edge_count == cut


@pytest.mark.parametrize("name", sorted(DATABASES))
def test_index_slices_add_up_to_the_full_index(name):
    database = DATABASES[name]()
    graph, _stats = build_data_graph(database)
    owners = GraphPartitioner(SHARDS).partition(graph).shard_nodes
    full = InvertedIndex(database)
    slices = full.split(owners)
    assert len(slices) == SHARDS
    for token, postings in full._postings.items():
        pieces = [piece._postings.get(token, []) for piece in slices]
        assert Counter(p for piece in pieces for p in piece) == Counter(postings)
        for shard, piece in enumerate(pieces):
            assert all(posting.node in owners[shard] for posting in piece)
    # Nothing appears in a slice that the full index lacks.
    for piece in slices:
        assert set(piece._postings) <= set(full._postings)


@pytest.mark.parametrize("name", sorted(DATABASES))
def test_router_construction_never_walks_the_edge_list(name, monkeypatch):
    def refuse(self):
        raise AssertionError("CSRGraph.edges walked while building the router")

    database = DATABASES[name]()
    monkeypatch.setattr(CSRGraph, "edges", refuse)
    with ShardRouter(database, shards=SHARDS, backend="thread") as router:
        assert router.partition.num_nodes == database.total_rows()
        for shard, searcher in enumerate(router._searchers):
            assert searcher.owned_nodes is router.partition.shard_nodes[shard]
