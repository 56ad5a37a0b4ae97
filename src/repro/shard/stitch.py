"""Helpers that prove a partition lossless.

The router partitions the one built data graph in place: every shard
searches that graph, and only answer roots are partitioned.  What must
hold is that the partition covers the graph — the shard node sets are a
disjoint cover and the intra-shard edges plus the recorded cut edges
are exactly the graph's edges — which ``tests/shard/test_stitch.py``
checks; :func:`graphs_equal` is the structural comparison the parity
tests share.  :func:`stats_of` lives in :mod:`repro.core.model` and is
re-exported here.
"""

from __future__ import annotations

from repro.core.model import stats_of

__all__ = ["graphs_equal", "stats_of"]


def graphs_equal(left, right) -> bool:
    """Structural equality: same nodes, weights and weighted edges."""
    if left.num_nodes != right.num_nodes or left.num_edges != right.num_edges:
        return False
    for node in left.nodes():
        if not right.has_node(node):
            return False
        if left.node_weight(node) != right.node_weight(node):
            return False
    for source, target, weight in left.edges():
        if not right.has_edge(source, target):
            return False
        if right.edge_weight(source, target) != weight:
            return False
    return True
