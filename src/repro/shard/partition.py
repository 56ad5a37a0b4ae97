"""Partitioning the BANKS data graph into shards.

A partition assigns every graph node — every ``(table, rid)`` tuple —
to exactly one shard and records the *cut edges*: directed edges whose
endpoints live on different shards.  It runs in place on the one built
data graph and copies nothing of it: the shards own answer roots and
index slices, while every shard searches that same graph.  The shard
node sets are a disjoint cover and the intra-shard edges plus the cut
edges are exactly the graph's edges (``tests/shard/test_stitch.py``).

Cut edges are recorded as :class:`repro.federate.links.TupleLink`
records — the federation layer's explicit tuple-to-tuple link — with
the shard name as the member-database name.  A future deployment that
moves shards onto separate machines can hand those links to a
:class:`~repro.federate.federation.Federation` unchanged.

Strategies are pluggable: any callable ``node -> int`` works.  The
default hashes ``table:rid`` with CRC32, which is stable across
processes and Python versions (``hash()`` is randomised per process and
must never decide placement).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Union

from repro.errors import ShardError
from repro.federate.links import TupleLink
from repro.relational.database import RID

#: A placement rule: node -> shard index in ``range(shards)``.
ShardStrategy = Callable[[RID], int]


def hash_strategy(shards: int) -> ShardStrategy:
    """Hash-by-table-row (the default): spreads every table uniformly."""

    def place(node: RID) -> int:
        table, rid = node
        return zlib.crc32(f"{table}:{rid}".encode("utf-8")) % shards

    return place


def table_strategy(shards: int) -> ShardStrategy:
    """Co-locate whole tables: every row of a table shares a shard.

    Keeps intra-table structure local (useful when one relation
    dominates traffic) at the price of skew when table sizes differ.
    """

    def place(node: RID) -> int:
        table, _rid = node
        return zlib.crc32(table.encode("utf-8")) % shards

    return place


def round_robin_strategy(shards: int) -> ShardStrategy:
    """Stripe rows of each table across shards by row id."""

    def place(node: RID) -> int:
        _table, rid = node
        return rid % shards

    return place


_NAMED_STRATEGIES = {
    "hash": hash_strategy,
    "table": table_strategy,
    "round_robin": round_robin_strategy,
}


@dataclass(frozen=True)
class CutEdge:
    """One directed edge crossing the partition, weight preserved."""

    source: RID
    target: RID
    weight: float
    source_shard: int
    target_shard: int

    def to_tuple_link(self) -> TupleLink:
        """The federation-layer record of this edge."""
        return TupleLink(
            source_db=f"shard{self.source_shard}",
            source=self.source,
            target_db=f"shard{self.target_shard}",
            target=self.target,
            weight=self.weight,
        )


class Partition:
    """One concrete split of a data graph into ``shards`` shards.

    The partition is *live*: :meth:`apply_delta` moves the assignment,
    per-shard node sets and cut-edge records along with a routed
    mutation, so a sharded deployment keeps serving a changing
    database without rebuilding the split.  The per-shard node sets
    are plain mutable sets shared by reference with each shard's
    searcher — one update is visible everywhere in thread mode.

    Attributes:
        shards: the shard count.
        shard_nodes: per shard, the (mutable) set of owned nodes.
        cut_edges: every directed edge crossing the partition.
    """

    def __init__(
        self,
        shards: int,
        assignment: Dict[RID, int],
        cut_edges: List[CutEdge],
    ):
        self.shards = shards
        self._assignment = assignment
        self.cut_edges = cut_edges
        nodes: List[List[RID]] = [[] for _ in range(shards)]
        for node, shard in assignment.items():
            nodes[shard].append(node)
        self.shard_nodes: List[Set[RID]] = [set(group) for group in nodes]

    def shard_of(self, node: RID) -> int:
        """The shard owning ``node``."""
        try:
            return self._assignment[node]
        except KeyError:
            raise ShardError(f"node {node!r} is not in the partition") from None

    def apply_delta(self, delta, owner: int) -> None:
        """Follow one routed mutation (see :mod:`repro.store.delta`).

        Inserts assign the new node to ``owner`` before the edge pass
        (a new cut edge needs both endpoints placed); deletes
        unassign after it.  Every edge the delta re-weighed is
        re-classified: its old cut record (if any) is dropped, and a
        fresh :class:`CutEdge` is recorded when the new edge crosses
        the partition — so ``cut_links()`` keeps describing exactly
        the graph's federation links.
        """
        if delta.kind == "insert" and delta.node not in self._assignment:
            if not 0 <= owner < self.shards:
                raise ShardError(
                    f"delta for {delta.node!r} routed to shard {owner}, "
                    f"outside range(0, {self.shards})"
                )
            self._assignment[delta.node] = owner
            self.shard_nodes[owner].add(delta.node)
        changed = {(source, target) for source, target, _weight in delta.edges}
        removed = delta.node if delta.kind == "delete" else None
        kept = [
            edge
            for edge in self.cut_edges
            if (edge.source, edge.target) not in changed
            and edge.source != removed
            and edge.target != removed
        ]
        for source, target, weight in delta.edges:
            if weight is None:
                continue
            source_shard = self._assignment.get(source)
            target_shard = self._assignment.get(target)
            if source_shard is None or target_shard is None:
                continue
            if source_shard != target_shard:
                kept.append(
                    CutEdge(source, target, weight, source_shard, target_shard)
                )
        self.cut_edges[:] = kept
        if removed is not None:
            shard = self._assignment.pop(removed, None)
            if shard is not None:
                self.shard_nodes[shard].discard(removed)

    def move_node(self, node, target: int, incident_edges) -> int:
        """Re-assign one node to ``target`` (live rebalancing); returns
        the shard it came from.

        The re-assignment itself is two set updates plus the dict
        entry; the cut-edge bookkeeping rides the existing
        :meth:`apply_delta` path as a synthetic ``update`` delta
        carrying the node's incident edges — every one of them is
        re-classified against the *new* assignment, so crossing edges
        gain :class:`CutEdge` records (federation ``TupleLink``\\ s
        re-point) and newly local ones lose theirs.  The graph itself
        never changes: only ownership moves.
        """
        from repro.store.delta import Delta

        if not 0 <= target < self.shards:
            raise ShardError(
                f"cannot move {node!r} to shard {target}, outside "
                f"range(0, {self.shards})"
            )
        source = self.shard_of(node)
        if source == target:
            return source
        self._assignment[node] = target
        self.shard_nodes[source].discard(node)
        self.shard_nodes[target].add(node)
        self.apply_delta(
            Delta(kind="update", node=node, edges=tuple(incident_edges)),
            target,
        )
        return source

    def cut_links(self) -> List[TupleLink]:
        """The cut edges as federation tuple links."""
        return [edge.to_tuple_link() for edge in self.cut_edges]

    # -- reporting ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._assignment)

    def cut_fraction(self, graph) -> float:
        """Share of directed edges that cross the partition."""
        if not graph.num_edges:
            return 0.0
        return len(self.cut_edges) / graph.num_edges

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
            f"{len(self.cut_edges)} cut edges)"
        )


class GraphPartitioner:
    """Splits a data graph into shards under a placement strategy.

    Args:
        shards: number of shards (>= 1).
        strategy: a named strategy (``"hash"``, ``"table"``,
            ``"round_robin"``) or any callable ``node -> int``.
    """

    def __init__(
        self,
        shards: int,
        strategy: Union[str, ShardStrategy] = "hash",
    ):
        if shards < 1:
            raise ShardError("a partition needs at least 1 shard")
        self.shards = shards
        if callable(strategy):
            self.strategy: ShardStrategy = strategy
            self.strategy_name = getattr(strategy, "__name__", "custom")
        else:
            try:
                factory = _NAMED_STRATEGIES[strategy]
            except KeyError:
                raise ShardError(
                    f"unknown shard strategy {strategy!r} (choose from "
                    f"{', '.join(sorted(_NAMED_STRATEGIES))}, or pass a "
                    "callable)"
                ) from None
            self.strategy = factory(shards)
            self.strategy_name = strategy

    def partition(self, graph) -> Partition:
        """Assign every node of ``graph``; record every cut edge.  The
        graph itself is only read."""
        assignment: Dict[RID, int] = {}
        for node in graph.nodes():
            shard = self.strategy(node)
            if not 0 <= shard < self.shards:
                raise ShardError(
                    f"strategy placed {node!r} on shard {shard}, outside "
                    f"range(0, {self.shards})"
                )
            assignment[node] = shard
        cut_edges: List[CutEdge] = []
        for source, target, weight in graph.edges():
            source_shard = assignment[source]
            target_shard = assignment[target]
            if source_shard != target_shard:
                cut_edges.append(
                    CutEdge(source, target, weight, source_shard, target_shard)
                )
        return Partition(self.shards, assignment, cut_edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphPartitioner({self.shards} shards, {self.strategy_name})"
