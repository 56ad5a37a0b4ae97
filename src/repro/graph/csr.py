"""Frozen CSR data graph, plus COW overlay forks.

A search only ever reads the graph, and on dicts pays dict-probe and
tuple-churn costs on every relaxation, so the data graph is built
straight into arrays: :func:`repro.core.model.build_data_graph` lays
each node's Eq. 1 rows out and hands them to :meth:`CSRGraph.from_rows`,
and no dict graph exists on a serving path.  The dict-of-dicts
:class:`~repro.graph.digraph.DiGraph` is the oracle's graph
(:meth:`CSRGraph.thaw`) and the builder of the federated and hyperbase
graphs.  This module holds everything a facade serves from
and writes to:

* :class:`CSRGraph` — an immutable compressed-sparse-row snapshot with
  successor *and* predecessor adjacency laid out as contiguous
  ``array`` triples ``(offsets, targets, weights)``.  It is built from
  rows already laid out (:meth:`CSRGraph.from_rows`) or from any
  DiGraph-shaped graph (:meth:`CSRGraph.freeze`, which densely
  renumbers the live nodes: tombstone slots are skipped, insertion
  order is preserved — adjacency order feeds Dijkstra tie-breaking, so
  freeze/thaw must not reshuffle it).  Node weights, the scoring normalisers and the
  normalised log-scaled edge scores (``log2(1 + w/w_min)``, the paper's
  *EdgeLog* form) are precomputed when the arrays are laid out.

* :class:`CSROverlayGraph` — the one mutable graph representation: a
  copy-on-write view over a frozen base.  Delta-touched adjacency rows
  live in per-node overlay dicts consulted *before* the arrays;
  untouched rows are read straight from the shared base.  The frozen node
  spine (``_index``/``_ids``/``_tables``) is read-only and shared by
  every fork; an overlay owns only the nodes appended since the freeze
  (dense ids from the base's ``n`` up), their reverse index and the set
  of removed ids.  The overlay maps are partitioned copy-on-write
  (:class:`~repro.cow.PartitionedMap`), so forking costs O(appended +
  removed) and mutating a fork copies only the rows, and the partitions
  holding them, it touches — the write path, WAL replay and shard delta
  routing all run on it.  A removed node's id is never reused: re-adding
  it appends a new id.  A fork references the frozen base, never its
  parent, so a published version does not keep the versions before it
  alive.

The search kernel that reads these arrays is
:func:`repro.core.search.backward_expanding_search`.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain as _chain
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Tuple

from repro.cow import MASK as _MASK
from repro.cow import PartitionedMap as _PartitionedMap
from repro.errors import GraphError as _GraphError
from repro.errors import UnknownNodeError as _UnknownNodeError

Node = Hashable

__all__ = [
    "CSRGraph",
    "CSROverlayGraph",
    "freeze_graph",
]


#: One adjacency direction: ``(offsets, neighbour ids, weights)``.
Rows = Tuple[array, array, array]


def _node_table(node: Node) -> Optional[str]:
    if isinstance(node, tuple) and len(node) == 2 and isinstance(node[0], str):
        return node[0]
    return None


def _rows_of(
    ids: Sequence[Node],
    index: Mapping[Node, int],
    neighbours: Callable[[Node], Iterable[Tuple[Node, float]]],
) -> Rows:
    """CSR rows read node by node, each in ``neighbours``' order."""
    offsets, to, weights = array("q", [0]), array("q"), array("d")
    for node in ids:
        for neighbor, weight in neighbours(node):
            to.append(index[neighbor])
            weights.append(weight)
        offsets.append(len(to))
    return offsets, to, weights


class CSRGraph:
    """An immutable CSR data graph.

    Exposes the full read API of :class:`~repro.graph.digraph.DiGraph`
    (``index_of``/``successors``/``edges``/...), so scorers, the shard
    partitioner and browse pages work unchanged.  Mutators raise: call
    :meth:`overlay` to get a writable copy-on-write view.
    """

    __slots__ = (
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
        "_edge_count",
        "_min_edge",
        "_max_node",
        "_edge_norms",
        "_over_succ",
        "_over_pred",
        "_over_nw",
        "_app_ids",
        "_app_index",
        "_removed",
    )

    def __init__(self) -> None:
        raise _GraphError(
            "CSRGraph is built by CSRGraph.from_rows or CSRGraph.freeze, "
            "not constructed"
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def freeze(cls, graph) -> "CSRGraph":
        """Snapshot any DiGraph-shaped graph into CSR arrays.

        Tombstone slots (``None`` entries a ``remove_node`` left behind)
        are skipped; live nodes keep their relative insertion order, and
        each adjacency row is laid out in the source dict's iteration
        order — both feed heap tie-breaking, so preserving them keeps
        rankings bit-identical across freeze/thaw.
        """
        ids: List[Node] = list(graph.nodes())
        index: Dict[Node, int] = {node: i for i, node in enumerate(ids)}
        # Delegate the node normaliser to the source graph: its max
        # scans tombstone slots as 0.0, and scoring parity demands the
        # exact same float the dict representation would have produced.
        return cls.from_rows(
            ids,
            index,
            array("d", (graph.node_weight(node) for node in ids)),
            _rows_of(ids, index, graph.successors),
            _rows_of(ids, index, graph.predecessors),
            graph.max_node_weight() if ids else None,
        )

    @classmethod
    def from_rows(
        cls,
        ids: List[Node],
        index: Dict[Node, int],
        node_weights: array,
        succ: Rows,
        pred: Rows,
        max_node: Optional[float] = None,
        tables: Optional[List[Optional[str]]] = None,
    ) -> "CSRGraph":
        """A snapshot over rows already laid out.

        ``index`` maps each node to its position in ``ids``; ``succ``
        and ``pred`` are the two directions' ``(offsets, neighbour ids,
        weights)``.  ``max_node`` defaults to the largest node weight,
        ``tables`` to each node's table name.  The arrays are kept, not
        copied: the two directions may share their offsets and
        neighbour arrays.
        """
        snapshot = cls.__new__(cls)
        snapshot._ids = ids
        snapshot._index = index
        if tables is None:
            tables = [_node_table(node) for node in ids]
        snapshot._tables = tables
        snapshot._node_weights = node_weights
        if max_node is None and ids:
            max_node = max(node_weights)
        snapshot._succ_off, snapshot._succ_to, snapshot._succ_w = succ
        snapshot._pred_off, snapshot._pred_to, snapshot._pred_w = pred
        succ_w = succ[2]
        snapshot._edge_count = len(succ_w)
        snapshot._min_edge = min(succ_w) if succ_w else None
        snapshot._max_node = max_node
        if snapshot._min_edge is not None and snapshot._min_edge < 0:
            raise _GraphError(
                f"negative edge weight rejected: {snapshot._min_edge!r}"
            )
        low = snapshot._min_edge
        snapshot._edge_norms = (
            {weight: math.log2(1.0 + weight / low) for weight in set(succ_w)}
            if low
            else {}
        )

        # Empty on the frozen base; CSROverlayGraph populates them.
        # Present here so the kernels read one shape for both classes.
        snapshot._over_succ = _PartitionedMap()
        snapshot._over_pred = _PartitionedMap()
        snapshot._over_nw = _PartitionedMap()
        snapshot._app_ids = ()
        snapshot._app_index = _PartitionedMap()
        snapshot._removed = frozenset()
        return snapshot

    def overlay(self) -> "CSROverlayGraph":
        """A mutable copy-on-write view over this snapshot."""
        return CSROverlayGraph._over(self)

    def thaw(self):
        """A :class:`~repro.graph.digraph.DiGraph` copy, row for row:
        the live nodes in id order, every adjacency row in both
        directions in this graph's order.  It is the oracle's graph,
        so its ties break exactly as the kernel's do."""
        from repro.graph.digraph import DiGraph

        graph = DiGraph()
        renumber: Dict[int, int] = {}
        for index in range(self._slot_count()):
            node = self.id_of(index)
            if node is not None:
                renumber[index] = graph.add_node(node, self.node_weight(node))
        for old, new in renumber.items():
            graph.raw_successors(new).update(
                (renumber[t], w) for t, w in self._succ_row(old).items()
            )
            graph.raw_predecessors(new).update(
                (renumber[s], w) for s, w in self._pred_row(old).items()
            )
        # The rows were filled in place, bypassing add_edge's count.
        graph._edge_count = self.num_edges
        return graph

    @property
    def frozen_min_edge_weight(self) -> Optional[float]:
        """The ``w_min`` normaliser captured at freeze time (``None``
        for an edgeless graph)."""
        return self._min_edge

    @property
    def frozen_edge_norms(self) -> Dict[float, float]:
        """Distinct edge weight -> ``log2(1 + w/w_min)``, precomputed at
        freeze time; the kernel seeds its per-query score memo from this
        when the live normaliser still equals the frozen one."""
        return self._edge_norms

    # -- mutators (refused) -------------------------------------------------

    def _refuse_mutation(self, *_args, **_kwargs):
        raise _GraphError(
            "CSRGraph is frozen; call .overlay() for a mutable view"
        )

    add_node = _refuse_mutation
    add_edge = _refuse_mutation
    remove_node = _refuse_mutation
    remove_edge = _refuse_mutation
    set_node_weight = _refuse_mutation

    # -- node access --------------------------------------------------------
    #
    # Dense ids below ``len(self._ids)`` live in the frozen spine; ids from
    # there up were appended by an overlay (``_app_ids``, reverse index
    # ``_app_index``).  ``_removed`` holds tombstoned ids of either kind.
    # All three are empty on a frozen snapshot.

    def _lookup(self, node: Node) -> Optional[int]:
        """The dense id of live ``node``, or ``None``."""
        index = self._index.get(node)
        if index is None or index in self._removed:
            return self._app_index.parts[hash(node) & _MASK].get(node)
        return index

    def _slot_count(self) -> int:
        """Dense ids handed out so far, tombstones included."""
        return len(self._ids) + len(self._app_ids)

    def index_of(self, node: Node) -> int:
        index = self._lookup(node)
        if index is None:
            raise _UnknownNodeError(node)
        return index

    def id_of(self, index: int) -> Node:
        base_n = len(self._ids)
        if index < base_n:
            return None if index in self._removed else self._ids[index]
        return self._app_ids[index - base_n]

    def has_node(self, node: Node) -> bool:
        return self._lookup(node) is not None

    def node_weight(self, node: Node) -> float:
        index = self.index_of(node)
        weight = self._over_nw.parts[index & _MASK].get(index)
        if weight is not None:
            return weight
        return self._node_weights[index]

    def nodes(self) -> Iterator[Node]:
        removed = self._removed
        frozen: Iterable[Node] = self._ids
        if removed:
            frozen = (
                node for index, node in enumerate(frozen) if index not in removed
            )
        appended = (node for node in self._app_ids if node is not None)
        return _chain(frozen, appended)

    @property
    def num_nodes(self) -> int:
        return self._slot_count() - len(self._removed)

    @property
    def tombstone_count(self) -> int:
        return len(self._removed)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    # -- index-level adjacency ---------------------------------------------

    def _succ_row(self, index: int) -> Dict[int, float]:
        row = self._over_succ.parts[index & _MASK].get(index)
        if row is not None:
            return row
        lo, hi = self._succ_off[index], self._succ_off[index + 1]
        return dict(zip(self._succ_to[lo:hi], self._succ_w[lo:hi]))

    def _pred_row(self, index: int) -> Dict[int, float]:
        row = self._over_pred.parts[index & _MASK].get(index)
        if row is not None:
            return row
        lo, hi = self._pred_off[index], self._pred_off[index + 1]
        return dict(zip(self._pred_to[lo:hi], self._pred_w[lo:hi]))

    def raw_successors(self, index: int) -> Dict[int, float]:
        return self._succ_row(index)

    def raw_predecessors(self, index: int) -> Dict[int, float]:
        return self._pred_row(index)

    # -- edge access --------------------------------------------------------

    def has_edge(self, source: Node, target: Node) -> bool:
        source_index = self._lookup(source)
        target_index = self._lookup(target)
        if source_index is None or target_index is None:
            return False
        return target_index in self._succ_row(source_index)

    def edge_weight(self, source: Node, target: Node) -> float:
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        try:
            return self._succ_row(source_index)[target_index]
        except KeyError:
            raise _GraphError(f"no edge {source!r} -> {target!r}") from None

    def successors(self, node: Node) -> List[Tuple[Node, float]]:
        id_of = self.id_of
        return [
            (id_of(t), w) for t, w in self._succ_row(self.index_of(node)).items()
        ]

    def predecessors(self, node: Node) -> List[Tuple[Node, float]]:
        id_of = self.id_of
        return [
            (id_of(s), w) for s, w in self._pred_row(self.index_of(node)).items()
        ]

    def out_degree(self, node: Node) -> int:
        return len(self._succ_row(self.index_of(node)))

    def in_degree(self, node: Node) -> int:
        return len(self._pred_row(self.index_of(node)))

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        # Untouched rows are read straight off the arrays, and with
        # nothing appended or removed an id is a plain spine index: the
        # shard partitioner walks every edge of the built graph.
        plain = not (self._app_ids or self._removed)
        id_of = self._ids.__getitem__ if plain else self.id_of
        over, offsets = self._over_succ.parts, self._succ_off
        targets, weights = self._succ_to, self._succ_w
        for source_index in range(self._slot_count()):
            row = over[source_index & _MASK].get(source_index)
            if row is None:
                lo, hi = offsets[source_index], offsets[source_index + 1]
                pairs = zip(targets[lo:hi], weights[lo:hi])
            else:
                pairs = row.items()
            source = id_of(source_index)
            for target_index, weight in pairs:
                yield (source, id_of(target_index), weight)

    # -- aggregates ---------------------------------------------------------

    def min_edge_weight(self) -> float:
        if self._min_edge is None:
            raise _GraphError("graph has no edges")
        return self._min_edge

    def max_node_weight(self) -> float:
        if self._max_node is None:
            raise _GraphError("graph has no nodes")
        return self._max_node

    # -- utilities ----------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return self._lookup(node) is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph({self.num_nodes} nodes, {self.num_edges} edges)"


class CSROverlayGraph(CSRGraph):
    """A mutable copy-on-write view over a frozen :class:`CSRGraph`.

    Reads consult the per-node overlay dicts first and fall back to the
    shared base arrays; the full :class:`DiGraph` mutator surface
    (including tombstoned ``remove_node``) is implemented by *owning* a
    row — materialising the array slice into a dict — before touching
    it.  The frozen node spine is shared read-only; :meth:`fork` copies
    only the appended nodes, their reverse index, the removed ids and
    the overlay's partition lists (:class:`~repro.cow.PartitionedMap`),
    and children share overlay rows structurally until they write.
    """

    __slots__ = (
        "_base",
        "_owned_succ",
        "_owned_pred",
        "_live_min",
        "_min_carriers",
        "_live_max",
        "_max_dirty",
    )

    @classmethod
    def _over(cls, base: CSRGraph) -> "CSROverlayGraph":
        view = cls.__new__(cls)
        # The frozen spine is never written, so every fork shares it;
        # what the overlay changed about the node set is O(delta).
        view._index = base._index
        view._ids = base._ids
        view._tables = base._tables
        view._app_ids = list(base._app_ids)
        view._app_index = base._app_index.fork()
        view._removed = set(base._removed)
        view._node_weights = base._node_weights
        view._succ_off = base._succ_off
        view._succ_to = base._succ_to
        view._succ_w = base._succ_w
        view._pred_off = base._pred_off
        view._pred_to = base._pred_to
        view._pred_w = base._pred_w
        view._edge_count = base._edge_count
        view._min_edge = base._min_edge
        view._max_node = base._max_node
        view._edge_norms = base._edge_norms
        view._over_succ = base._over_succ.fork()
        view._over_pred = base._over_pred.fork()
        view._over_nw = base._over_nw.fork()
        view._owned_succ = set()
        view._owned_pred = set()
        # Live normaliser aggregates, maintained incrementally by the
        # mutators so the per-write stats refresh stays O(1) instead of
        # O(V + E).  ``_live_min`` is a lower bound on every edge weight
        # and ``_min_carriers`` edges carry exactly that weight; Eq. 1
        # re-weighing constantly replaces *one* minimum-weight edge with
        # a heavier one, and only when the last carrier goes is the
        # bound stale and a rescan due.  The node maximum is rescanned
        # when its holder is reweighed downward or removed.
        if isinstance(base, CSROverlayGraph):
            # The frozen snapshot, never the parent overlay: a fork
            # holding its parent would keep every earlier published
            # version alive.
            view._base = base._base
            view._live_min = base._live_min
            view._min_carriers = base._min_carriers
            view._live_max = base._live_max
            view._max_dirty = base._max_dirty
        else:
            view._base = base
            view._live_min = base._min_edge
            view._min_carriers = (
                base._succ_w.count(base._min_edge) if base._edge_count else 0
            )
            view._live_max = base._max_node
            view._max_dirty = False
        return view

    def fork(self) -> "CSROverlayGraph":
        """A child sharing the frozen spine, the base arrays and all
        overlay rows, at O(appended + removed) cost; the parent must
        not be mutated afterwards (snapshot contract)."""
        return CSROverlayGraph._over(self)

    @property
    def base(self) -> CSRGraph:
        """The frozen snapshot underneath (shared by every fork)."""
        return self._base

    @property
    def overlay_nodes(self) -> int:
        """Adjacency rows living in overlay dicts rather than the
        frozen arrays — the re-freeze signal (see docs/OPERATIONS.md)."""
        touched = set(self._over_succ)
        touched.update(self._over_pred)
        return len(touched)

    @property
    def shared_nodes(self) -> int:
        """Adjacency slots still read from shared storage (base arrays
        or the parent's overlay rows) — the O(delta) claim, observable."""
        return self._slot_count() - len(self._owned_succ)

    def refreeze(self) -> CSRGraph:
        """Collapse the overlay into a fresh frozen snapshot."""
        return CSRGraph.freeze(self)

    # -- aggregates (incremental) -------------------------------------------

    def min_edge_weight(self) -> float:
        if not self._edge_count:
            raise _GraphError("graph has no edges")
        if not self._min_carriers:
            self._live_min, self._min_carriers = self._scan_min_edge()
        return self._live_min

    def max_node_weight(self) -> float:
        if not self._slot_count():
            raise _GraphError("graph has no nodes")
        if self._max_dirty:
            self._live_max = self._scan_max_node()
            self._max_dirty = False
        return self._live_max

    def _scan_min_edge(self) -> Tuple[Optional[float], int]:
        """``(minimum edge weight, edges carrying it)`` — overlay rows
        read as dicts, untouched rows straight off the weight array."""
        over = self._over_succ.parts
        best: Optional[float] = None
        carriers = 0
        base_n = self._base_n()
        offsets, weights = self._succ_off, self._succ_w
        for index in range(self._slot_count()):
            row = over[index & _MASK].get(index)
            if row is not None:
                values = list(row.values())
            elif index < base_n:
                values = weights[offsets[index] : offsets[index + 1]]
            else:
                continue  # overlay-born node whose row was never written
            if not values:
                continue
            candidate = min(values)
            if best is None or candidate < best:
                best, carriers = candidate, values.count(candidate)
            elif candidate == best:
                carriers += values.count(candidate)
        return best, carriers

    def _scan_max_node(self) -> Optional[float]:
        # Tombstone slots count as 0.0, exactly as DiGraph's weight
        # list does after remove_node zeroes the slot.
        removed = self._removed
        best: Optional[float] = 0.0 if removed else None
        over = self._over_nw.parts
        base = self._node_weights
        for index in range(self._slot_count()):
            if index in removed:
                continue
            weight = over[index & _MASK].get(index)
            if weight is None:
                weight = base[index]
            if best is None or weight > best:
                best = weight
        return best

    # -- ownership ----------------------------------------------------------

    def _base_n(self) -> int:
        return len(self._succ_off) - 1

    def _own_succ(self, index: int) -> Dict[int, float]:
        over = self._over_succ
        i = index & _MASK
        if index in self._owned_succ:
            return over.parts[i][index]
        row = over.parts[i].get(index)
        if row is None:
            if index < self._base_n():
                lo, hi = self._succ_off[index], self._succ_off[index + 1]
                row = dict(zip(self._succ_to[lo:hi], self._succ_w[lo:hi]))
            else:
                row = {}
        else:
            row = dict(row)
        over.own(i)[index] = row
        self._owned_succ.add(index)
        return row

    def _own_pred(self, index: int) -> Dict[int, float]:
        over = self._over_pred
        i = index & _MASK
        if index in self._owned_pred:
            return over.parts[i][index]
        row = over.parts[i].get(index)
        if row is None:
            if index < self._base_n():
                lo, hi = self._pred_off[index], self._pred_off[index + 1]
                row = dict(zip(self._pred_to[lo:hi], self._pred_w[lo:hi]))
            else:
                row = {}
        else:
            row = dict(row)
        over.own(i)[index] = row
        self._owned_pred.add(index)
        return row

    # -- mutators -----------------------------------------------------------

    def add_node(self, node: Node, weight: float = 0.0) -> int:
        existing = self._lookup(node)
        if existing is not None:
            return existing
        index = self._slot_count()
        self._app_index[node] = index
        self._app_ids.append(node)
        value = float(weight)
        i = index & _MASK
        self._over_nw.own(i)[index] = value
        self._over_succ.own(i)[index] = {}
        self._over_pred.own(i)[index] = {}
        self._owned_succ.add(index)
        self._owned_pred.add(index)
        if not self._max_dirty and (
            self._live_max is None or value > self._live_max
        ):
            self._live_max = value
        return index

    def add_edge(self, source: Node, target: Node, weight: float) -> None:
        if source == target:
            raise _GraphError(f"self loop rejected: {source!r}")
        if weight < 0:
            raise _GraphError(f"negative edge weight rejected: {weight!r}")
        source_index = self.add_node(source)
        target_index = self.add_node(target)
        succ = self._own_succ(source_index)
        pred = self._own_pred(target_index)
        previous = succ.get(target_index)
        if previous is None:
            self._edge_count += 1
        else:
            self._note_removed(previous)
        value = float(weight)
        succ[target_index] = value
        pred[source_index] = value
        # Every other edge weighs at least the bound, so a value at or
        # under it is the minimum even when the carriers had run out.
        live = self._live_min
        if live is None or value < live:
            self._live_min, self._min_carriers = value, 1
        elif value == live:
            self._min_carriers += 1

    def _note_removed(self, weight: float) -> None:
        if weight == self._live_min:
            self._min_carriers -= 1

    def remove_edge(self, source: Node, target: Node) -> None:
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        succ = self._own_succ(source_index)
        if target_index not in succ:
            raise _GraphError(f"no edge {source!r} -> {target!r}")
        pred = self._own_pred(target_index)
        self._note_removed(succ.pop(target_index))
        del pred[source_index]
        self._edge_count -= 1

    def remove_node(self, node: Node) -> None:
        index = self.index_of(node)
        succ = self._own_succ(index)
        pred = self._own_pred(index)
        for target_index, weight in succ.items():
            del self._own_pred(target_index)[index]
            self._note_removed(weight)
        self._edge_count -= len(succ)
        succ.clear()
        for source_index, weight in pred.items():
            del self._own_succ(source_index)[index]
            self._note_removed(weight)
        self._edge_count -= len(pred)
        pred.clear()
        previous = self._current_node_weight(index)
        base_n = self._base_n()
        if index >= base_n:
            self._app_ids[index - base_n] = None
            del self._app_index[node]
        self._removed.add(index)
        self._over_nw[index] = 0.0
        if not self._max_dirty:
            if previous == self._live_max:
                self._max_dirty = True
            elif self._live_max is None or self._live_max < 0.0:
                self._live_max = 0.0  # the tombstone slot counts as 0.0

    def set_node_weight(self, node: Node, weight: float) -> None:
        index = self.index_of(node)
        previous = self._current_node_weight(index)
        value = float(weight)
        self._over_nw[index] = value
        if not self._max_dirty:
            live = self._live_max
            if live is None or value > live:
                self._live_max = value
            elif previous == live and value < live:
                self._max_dirty = True

    def _current_node_weight(self, index: int) -> float:
        weight = self._over_nw.parts[index & _MASK].get(index)
        if weight is None:
            weight = self._node_weights[index]
        return weight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSROverlayGraph({self.num_nodes} nodes, {self.num_edges} "
            f"edges, {self.overlay_nodes} overlaid)"
        )


def freeze_graph(graph) -> CSROverlayGraph:
    """A mutable overlay view over a frozen ``graph`` — the
    facade-facing idiom (search reads the arrays, delta replay writes
    the overlay).  A frozen :class:`CSRGraph`, which is
    what :func:`repro.core.model.build_data_graph` returns, is wrapped
    as it is; anything else (a DiGraph, an overlay) is frozen first."""
    if type(graph) is not CSRGraph:
        graph = CSRGraph.freeze(graph)
    return graph.overlay()
