"""Space accounting for the data graph (paper Sec. 5.2).

The paper reports ~120 MB for a 100K-node / 300K-edge graph in Java and
argues the representation is small because nodes store only RIDs.  This
module measures the actual Python-object footprint of a
:class:`repro.graph.digraph.DiGraph` (deep ``sys.getsizeof`` over its
containers) and derives per-node / per-edge byte costs so the benchmark
can report the same table at several scales.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Set

from repro.cow import PartitionedMap
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class MemoryReport:
    """Measured footprint of one graph.

    Attributes:
        total_bytes: deep size of the graph object.
        num_nodes / num_edges: graph dimensions.
        bytes_per_node: total divided by nodes (includes edge share).
        bytes_per_edge: marginal cost per directed edge (adjacency
            entries only).
    """

    total_bytes: int
    num_nodes: int
    num_edges: int

    @property
    def bytes_per_node(self) -> float:
        return self.total_bytes / max(1, self.num_nodes)

    @property
    def bytes_per_edge(self) -> float:
        return self.total_bytes / max(1, self.num_edges)

    @property
    def megabytes(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def _deep_sizeof(obj: object, seen: Set[int]) -> int:
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_sizeof(key, seen)
            size += _deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_sizeof(item, seen)
    elif isinstance(obj, PartitionedMap):
        size += _deep_sizeof(obj.parts, seen) + sys.getsizeof(obj.owned)
    return size


_DICT_GRAPH_ATTRS = ("_index", "_ids", "_node_weights", "_succ", "_pred")
_CSR_GRAPH_ATTRS = (
    "_index",
    "_ids",
    "_tables",
    "_node_weights",
    "_succ_off",
    "_succ_to",
    "_succ_w",
    "_pred_off",
    "_pred_to",
    "_pred_w",
    "_edge_norms",
    "_over_succ",
    "_over_pred",
    "_over_nw",
    "_app_ids",
    "_app_index",
    "_removed",
)


def graph_memory_bytes(graph: DiGraph) -> MemoryReport:
    """Deep-measure the memory footprint of ``graph``.

    Handles both representations: the dict-of-dicts
    :class:`~repro.graph.digraph.DiGraph` and the frozen CSR snapshot
    (:mod:`repro.graph.csr`), whose adjacency lives in typed arrays
    plus overlay dicts.  ``sys.getsizeof`` on an ``array`` already
    reports its buffer, so no per-element recursion is needed there.
    """
    attributes = (
        _CSR_GRAPH_ATTRS
        if hasattr(graph, "_succ_off")
        else _DICT_GRAPH_ATTRS
    )
    seen: Set[int] = set()
    total = 0
    for attribute in attributes:
        total += _deep_sizeof(getattr(graph, attribute), seen)
    return MemoryReport(
        total_bytes=total,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
    )
