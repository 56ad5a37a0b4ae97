"""A compact directed graph with node weights and edge weights.

Nodes are arbitrary hashable identifiers (BANKS uses ``(table, rid)``
pairs); internally they are densely renumbered so that the hot loops in
Dijkstra run over integer indexes and small tuples rather than hash
lookups on composite keys.  The paper stresses that *"the graphs of even
large databases with millions of nodes and edges can fit in modest
amounts of memory"* — this representation stores, per node, only its id,
weight and adjacency, and per edge a single ``(neighbor, weight)`` pair
in each direction.

``DiGraph`` is the oracle's graph, not the serving one:
:func:`repro.core.model.build_data_graph` lays the data graph straight
into the CSR arrays every facade serves from
(:class:`~repro.graph.csr.CSRGraph`), and
:meth:`~repro.graph.csr.CSRGraph.thaw` copies it into a ``DiGraph``
row for row, which :func:`repro.core.oracle.reference_search` searches
and the parity tests mutate as ground truth.  The federated and
hyperbase graphs are still built here and frozen with
:func:`repro.graph.csr.freeze_graph`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError, UnknownNodeError


class DiGraph:
    """Weighted directed graph.

    Parallel edges are not supported: adding an edge that already exists
    replaces its weight (BANKS merges parallel FK references into a
    single weighted edge).  Self loops are rejected — a tuple never
    joins to itself in the BANKS model.
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._ids: List[Optional[Hashable]] = []
        self._node_weights: List[float] = []
        self._succ: List[Dict[int, float]] = []
        self._pred: List[Dict[int, float]] = []
        self._edge_count = 0

    # -- construction -------------------------------------------------------

    def add_node(self, node: Hashable, weight: float = 0.0) -> int:
        """Add ``node`` (idempotent); return its internal index."""
        existing = self._index.get(node)
        if existing is not None:
            return existing
        index = len(self._ids)
        self._index[node] = index
        self._ids.append(node)
        self._node_weights.append(float(weight))
        self._succ.append({})
        self._pred.append({})
        return index

    def add_edge(self, source: Hashable, target: Hashable, weight: float) -> None:
        """Add or replace the directed edge ``source -> target``."""
        if source == target:
            raise GraphError(f"self loop rejected: {source!r}")
        if weight < 0:
            raise GraphError(f"negative edge weight rejected: {weight!r}")
        source_index = self.add_node(source)
        target_index = self.add_node(target)
        if target_index not in self._succ[source_index]:
            self._edge_count += 1
        value = float(weight)
        self._succ[source_index][target_index] = value
        self._pred[target_index][source_index] = value

    # -- removal (incremental maintenance) -----------------------------------

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        """Remove the directed edge ``source -> target`` (must exist)."""
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        if target_index not in self._succ[source_index]:
            raise GraphError(f"no edge {source!r} -> {target!r}")
        del self._succ[source_index][target_index]
        del self._pred[target_index][source_index]
        self._edge_count -= 1

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and every incident edge.

        The freed slot becomes a tombstone — other nodes keep their
        internal indexes, so live Dijkstra iterators over *other*
        regions of the graph are not invalidated.
        """
        index = self.index_of(node)
        for target_index in self._succ[index]:
            del self._pred[target_index][index]
        for source_index in self._pred[index]:
            del self._succ[source_index][index]
        self._edge_count -= len(self._succ[index]) + len(self._pred[index])
        self._succ[index].clear()
        self._pred[index].clear()
        self._ids[index] = None
        self._node_weights[index] = 0.0
        del self._index[node]

    # -- node access ----------------------------------------------------------

    def index_of(self, node: Hashable) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def id_of(self, index: int) -> Hashable:
        return self._ids[index]

    def has_node(self, node: Hashable) -> bool:
        return node in self._index

    def node_weight(self, node: Hashable) -> float:
        return self._node_weights[self.index_of(node)]

    def set_node_weight(self, node: Hashable, weight: float) -> None:
        self._node_weights[self.index_of(node)] = float(weight)

    def nodes(self) -> Iterator[Hashable]:
        return (node for node in self._ids if node is not None)

    @property
    def num_nodes(self) -> int:
        """Live node count.

        Derived from the id-to-index map, which holds exactly the live
        nodes — the *single* source of truth.  (An earlier revision
        kept a separate ``_tombstones`` counter next to the ``None``
        slots in ``_ids``; two bookkeeping sites meant every new
        mutator — and every copy-on-write fork — had to keep them in
        sync by hand.)
        """
        return len(self._index)

    @property
    def tombstone_count(self) -> int:
        """Freed node slots kept so surviving indexes stay stable —
        the audited accessor: ``len(self._ids)`` minus the live count."""
        return len(self._ids) - len(self._index)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    # -- edge access ----------------------------------------------------------

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        if source not in self._index or target not in self._index:
            return False
        return self._index[target] in self._succ[self._index[source]]

    def edge_weight(self, source: Hashable, target: Hashable) -> float:
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        try:
            return self._succ[source_index][target_index]
        except KeyError:
            raise GraphError(f"no edge {source!r} -> {target!r}") from None

    def successors(self, node: Hashable) -> List[Tuple[Hashable, float]]:
        """Outgoing ``(neighbor, weight)`` pairs of ``node``."""
        return [
            (self._ids[t], w)
            for t, w in self._succ[self.index_of(node)].items()
        ]

    def predecessors(self, node: Hashable) -> List[Tuple[Hashable, float]]:
        """Incoming ``(neighbor, weight)`` pairs of ``node``."""
        return [
            (self._ids[s], w)
            for s, w in self._pred[self.index_of(node)].items()
        ]

    def out_degree(self, node: Hashable) -> int:
        return len(self._succ[self.index_of(node)])

    def in_degree(self, node: Hashable) -> int:
        return len(self._pred[self.index_of(node)])

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, float]]:
        """All edges as ``(source, target, weight)`` triples."""
        for source_index, adjacency in enumerate(self._succ):
            source = self._ids[source_index]
            for target_index, weight in adjacency.items():
                yield (source, self._ids[target_index], weight)

    # -- aggregates -------------------------------------------------------------

    def min_edge_weight(self) -> float:
        """Smallest edge weight in the graph (the paper's ``e_min``
        normaliser).  Raises on an edgeless graph.

        A full scan: the builder asks once, and the mutable
        :class:`~repro.graph.csr.CSROverlayGraph` maintains its own.
        """
        best = min(
            (min(adjacency.values()) for adjacency in self._succ if adjacency),
            default=None,
        )
        if best is None:
            raise GraphError("graph has no edges")
        return best

    def max_node_weight(self) -> float:
        """Largest node weight (the paper's ``n_max`` normaliser)."""
        if not self._node_weights:
            raise GraphError("graph has no nodes")
        return max(self._node_weights)

    # -- raw (index-level) views used by hot algorithm loops ----------------------

    def raw_successors(self, index: int) -> Dict[int, float]:
        return self._succ[index]

    def raw_predecessors(self, index: int) -> Dict[int, float]:
        return self._pred[index]

    # -- utilities --------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Hashable]) -> "DiGraph":
        """The induced subgraph on ``nodes`` (copies weights).

        Nodes and edges are inserted in *this* graph's insertion order
        (not the hash order of ``nodes``), so a subgraph iterates
        deterministically across processes and hash seeds.  Adjacency
        order feeds Dijkstra tie-breaking; hash-ordered insertion would
        make equal-weight path choices differ run to run.
        """
        wanted = set(nodes)
        result = DiGraph()
        for node in self.nodes():
            if node in wanted:
                result.add_node(node, self.node_weight(node))
        for node in result.nodes():
            for neighbor, weight in self.successors(node):
                if neighbor in wanted:
                    result.add_edge(node, neighbor, weight)
        return result

    def reversed(self) -> "DiGraph":
        """A copy with every edge direction flipped."""
        result = DiGraph()
        for node in self.nodes():
            result.add_node(node, self.node_weight(node))
        for source, target, weight in self.edges():
            result.add_edge(target, source, weight)
        return result

    def __contains__(self, node: Hashable) -> bool:
        return node in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph({self.num_nodes} nodes, {self.num_edges} edges)"
