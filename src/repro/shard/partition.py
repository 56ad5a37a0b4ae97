"""Partitioning the BANKS data graph into shards.

A partition assigns every graph node — every ``(table, rid)`` tuple —
to exactly one shard and counts the *cut edges*: directed edges whose
endpoints live on different shards.  It runs in place on the one built
data graph and copies nothing of it: the shards own answer roots and
index slices, while every shard searches that same graph.  The shard
node sets are a disjoint cover and the intra-shard edges plus the cut
edges are exactly the graph's edges (``tests/shard/test_stitch.py``).

The per-shard node sets are the only record of ownership, and the cut
is kept as a count, not as records: both are what the graph's arrays
plus the owner sets already imply, and a parent that forks its shard
workers pays every retained byte once more per worker.
:meth:`Partition.cut_links` derives the cut edges on demand as
:class:`repro.federate.links.TupleLink` records — the federation
layer's explicit tuple-to-tuple link — with the shard name as the
member-database name.  A future deployment that moves shards onto
separate machines can hand those links to a
:class:`~repro.federate.federation.Federation` unchanged.

Placement hashes ``table:rid`` with CRC32, which is stable across
processes and Python versions (``hash()`` is randomised per process and
must never decide placement).  Tests plant other layouts by passing
any callable ``node -> int``.
"""

from __future__ import annotations

import zlib
from itertools import chain, repeat
from operator import ne, sub
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ShardError
from repro.federate.links import TupleLink
from repro.relational.database import RID

#: A placement rule: node -> shard index in ``range(shards)``.
ShardStrategy = Callable[[RID], int]

#: Shard indexes are kept in one byte per node while partitioning.
MAX_SHARDS = 256


def hash_strategy(shards: int) -> ShardStrategy:
    """Hash-by-table-row: spreads every table uniformly."""

    def place(node: RID) -> int:
        table, rid = node
        return zlib.crc32(f"{table}:{rid}".encode("utf-8")) % shards

    return place


class Partition:
    """One concrete split of a data graph into ``shards`` shards.

    The partition is *live*: :meth:`apply_delta` and :meth:`move_node`
    move the per-shard node sets and the cut-edge count along with a
    routed mutation or a rebalance move, touching only the edges the
    write touches, so a sharded deployment keeps serving a changing
    database without rebuilding the split.  The per-shard node sets
    are plain mutable sets shared by reference with each shard's
    searcher — one update is visible everywhere in thread mode.

    Attributes:
        shards: the shard count.
        shard_nodes: per shard, the (mutable) set of owned nodes — the
            one record of ownership.
        cut_edge_count: how many directed edges cross the partition.
    """

    def __init__(
        self, shards: int, shard_nodes: List[Set[RID]], cut_edge_count: int
    ):
        self.shards = shards
        self.shard_nodes = shard_nodes
        self.cut_edge_count = cut_edge_count

    def _owner(self, node: RID) -> Optional[int]:
        for shard, nodes in enumerate(self.shard_nodes):
            if node in nodes:
                return shard
        return None

    def shard_of(self, node: RID) -> int:
        """The shard owning ``node``."""
        shard = self._owner(node)
        if shard is None:
            raise ShardError(f"node {node!r} is not in the partition")
        return shard

    def _crosses(self, source: RID, target: RID) -> bool:
        """Whether both ends are owned, by different shards."""
        source_shard = self._owner(source)
        target_shard = self._owner(target)
        return (
            source_shard is not None
            and target_shard is not None
            and source_shard != target_shard
        )

    def apply_delta(self, delta, owner: int, graph) -> None:
        """Follow one routed mutation (see :mod:`repro.store.delta`).

        Call it *before* the graph absorbs ``delta``
        (:func:`~repro.store.delta.apply_graph_delta`): ``delta.edges``
        carries new weights only, so a re-weighed edge and a new one
        look alike until each is checked against the graph as it was.
        Inserts assign the new node to ``owner`` first (a new cut edge
        needs both endpoints placed); deletes unassign it last, after
        the edges its removal drops have left the count.  Only the
        delta's own edges and a deleted node's incident edges are
        read.
        """
        node = delta.node
        if delta.kind == "insert" and self._owner(node) is None:
            if not 0 <= owner < self.shards:
                raise ShardError(
                    f"delta for {node!r} routed to shard {owner}, "
                    f"outside range(0, {self.shards})"
                )
            self.shard_nodes[owner].add(node)
        removed = node if delta.kind == "delete" else None
        # Whether each touched edge exists once the write is applied.
        exists: Dict[Tuple[RID, RID], bool] = {
            (source, target): weight is not None
            for source, target, weight in delta.edges
        }
        # A delete lists only the re-weighed edges; the graph drops the
        # node's own edges with the node.
        if removed is not None and graph.has_node(removed):
            for pair in _incident_pairs(graph, removed):
                exists[pair] = False
        for (source, target), after in exists.items():
            if self._crosses(source, target):
                self.cut_edge_count += after - graph.has_edge(source, target)
        if removed is not None:
            shard = self._owner(removed)
            if shard is not None:
                self.shard_nodes[shard].discard(removed)

    def move_node(self, node: RID, target: int, graph) -> int:
        """Re-assign one node to ``target`` (live rebalancing); returns
        the shard it came from.

        The re-assignment itself is two set updates; the cut count
        moves by the node's incident edges only, classified before and
        after the move.  The graph itself never changes: only
        ownership moves.
        """
        if not 0 <= target < self.shards:
            raise ShardError(
                f"cannot move {node!r} to shard {target}, outside "
                f"range(0, {self.shards})"
            )
        source = self.shard_of(node)
        if source == target:
            return source
        incident = _incident_pairs(graph, node)
        before = sum(self._crosses(*pair) for pair in incident)
        self.shard_nodes[source].discard(node)
        self.shard_nodes[target].add(node)
        self.cut_edge_count += sum(self._crosses(*pair) for pair in incident) - before
        return source

    def cut_links(self, graph) -> List[TupleLink]:
        """The edges of ``graph`` crossing the partition, as federation
        tuple links (derived on demand: one walk over every edge)."""
        return [
            TupleLink(
                source_db=f"shard{self.shard_of(source)}",
                source=source,
                target_db=f"shard{self.shard_of(target)}",
                target=target,
                weight=weight,
            )
            for source, target, weight in graph.edges()
            if self._crosses(source, target)
        ]

    # -- reporting ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return sum(len(nodes) for nodes in self.shard_nodes)

    def cut_fraction(self, graph) -> float:
        """Share of directed edges that cross the partition."""
        if not graph.num_edges:
            return 0.0
        return self.cut_edge_count / graph.num_edges

    def balance(self) -> float:
        """Largest shard relative to the ideal even split (1.0 = even)."""
        if not self.num_nodes:
            return 1.0
        ideal = self.num_nodes / self.shards
        return max(len(nodes) for nodes in self.shard_nodes) / ideal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(len(nodes)) for nodes in self.shard_nodes)
        return (
            f"Partition({self.shards} shards: [{sizes}] nodes, "
            f"{self.cut_edge_count} cut edges)"
        )


def _incident_pairs(graph, node: RID) -> List[Tuple[RID, RID]]:
    """Every directed ``(source, target)`` edge touching ``node``."""
    successors = [(node, successor) for successor, _w in graph.successors(node)]
    return successors + [(source, node) for source, _w in graph.predecessors(node)]


class GraphPartitioner:
    """Splits a data graph into shards under a placement strategy.

    Args:
        shards: number of shards (>= 1).
        strategy: a callable ``node -> int``; ``None`` (the default)
            is :func:`hash_strategy`.
    """

    def __init__(self, shards: int, strategy: Optional[ShardStrategy] = None):
        if shards < 1:
            raise ShardError("a partition needs at least 1 shard")
        if shards > MAX_SHARDS:
            raise ShardError(f"a partition holds at most {MAX_SHARDS} shards")
        self.shards = shards
        self.strategy = hash_strategy(shards) if strategy is None else strategy

    def partition(self, graph) -> Partition:
        """Assign every node of ``graph`` (a CSR graph or an overlay
        over one); count the cut edges.  The graph itself is only read.

        Each dense id is placed once, into a scratch owner byte; the
        cut is counted against those bytes straight off the successor
        arrays, then corrected row by row for the rows an overlay
        rewrote.
        """
        place, shards = self.strategy, self.shards
        shard_nodes: List[Set[RID]] = [set() for _ in range(shards)]
        owner = bytearray(graph._slot_count())
        removed = graph._removed
        for index, node in enumerate(chain(graph._ids, graph._app_ids)):
            if node is None or index in removed:
                continue
            shard = place(node)
            if not 0 <= shard < shards:
                raise ShardError(
                    f"strategy placed {node!r} on shard {shard}, outside "
                    f"range(0, {shards})"
                )
            shard_nodes[shard].add(node)
            owner[index] = shard
        # The base arrays' edges, then each row an overlay rewrote in
        # place of its base row.
        offsets = graph._succ_off
        degrees = map(sub, offsets[1:], offsets[:-1])
        source_owner = bytes(chain.from_iterable(map(repeat, owner, degrees)))
        target_owner = bytes(map(owner.__getitem__, graph._succ_to))
        cut = sum(map(ne, source_owner, target_owner))
        for index, row in graph._over_succ.items():
            shard = owner[index]
            if index < len(offsets) - 1:
                lo, hi = offsets[index], offsets[index + 1]
                cut -= hi - lo - target_owner.count(shard, lo, hi)
            cut += sum(owner[target] != shard for target in row)
        return Partition(shards, shard_nodes, cut)
