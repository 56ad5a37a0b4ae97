"""Rebalance planning: node-move plans from the shard metrics.

The :class:`~repro.shard.partition.Partition` is fixed at construction
— a hot or oversized shard stays that way forever.  This module closes
the *planning* half of that gap: it derives a deterministic
:class:`RebalancePlan` (an ordered list of single-node moves) from the
per-shard size and query counters the router already exports, and
:meth:`~repro.shard.router.ShardRouter.rebalance` executes it move by
move while serving.

A move rides the router's write gate: the router re-assigns the node
(:meth:`~repro.shard.partition.Partition.move_node` re-counts the cut
over the node's incident edges only) and re-slices the per-shard
inverted indexes.  The graph itself never changes (no edge or weight
moves — only ownership does), which is why search parity across a
rebalance is an invariant rather than an aspiration: ``tests/ops``
asserts it under random interleavings and under live query load.

Each executed move is one router epoch, and the router announces the
:data:`REBALANCE_STEPS` of every move to an optional
:class:`~repro.ops.faults.FaultInjector`; a fault mid-move rolls the
move back, so the partition is always a disjoint cover between epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ShardError

#: The named interruption points of one executed node move, in
#: protocol order (the router calls ``faults.step(name)`` immediately
#: after each action): **assign** — partition re-assignment plus
#: cut-edge re-classification; **reslice** — per-searcher ownership
#: and inverted-index slice updates; **replay** — forked workers'
#: private replicas updated (process backend); **republish** — both
#: affected engines' snapshots republished, epoch advanced.
REBALANCE_STEPS = ("assign", "reslice", "replay", "republish")


@dataclass(frozen=True)
class RebalanceMove:
    """Move one node from its current shard to another."""

    node: Any
    source: int
    target: int


@dataclass(frozen=True)
class RebalancePlan:
    """An ordered, deterministic list of node moves plus its rationale.

    Attributes:
        moves: the moves, executed in order.
        reason: one line describing how the plan was derived (logged
            and surfaced by ``banks rebalance``-style tooling).
    """

    moves: Tuple[RebalanceMove, ...]
    reason: str

    def __len__(self) -> int:
        return len(self.moves)

    def summary(self) -> Dict[str, Any]:
        """Per-shard net node flow — negative means draining."""
        flow: Dict[int, int] = {}
        for move in self.moves:
            flow[move.source] = flow.get(move.source, 0) - 1
            flow[move.target] = flow.get(move.target, 0) + 1
        return {"moves": len(self.moves), "net_flow": flow, "reason": self.reason}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RebalancePlan({len(self.moves)} moves: {self.reason})"


def _shard_loads(router: Any, qps_bias: float) -> List[float]:
    """Per-shard load scores: owned-node count, scaled up by the
    shard's share of scattered sub-searches.  With ``qps_bias=0`` the
    score is pure size; with 1.0 a shard receiving *all* the traffic
    counts double."""
    sizes = [len(nodes) for nodes in router.partition.shard_nodes]
    if not qps_bias:
        return [float(size) for size in sizes]
    snapshot = router.metrics.snapshot()
    searches = [
        snapshot.get(f"shard{shard_id}_searches_total", 0.0)
        for shard_id in range(router.partition.shards)
    ]
    total = sum(searches)
    return [
        size * (1.0 + qps_bias * (hits / total if total else 0.0))
        for size, hits in zip(sizes, searches)
    ]


def plan_rebalance(
    router: Any,
    max_moves: int = 64,
    tolerance: float = 0.1,
    qps_bias: float = 1.0,
) -> RebalancePlan:
    """Derive a plan that evens out shard load.

    Greedy and deterministic: while the most loaded shard exceeds the
    ideal even split by more than ``tolerance`` (and the move budget
    lasts), move one node from the most loaded shard to the least
    loaded one.  Candidate nodes are taken in sorted order, so the same
    metrics always produce the same plan.

    Args:
        router: the :class:`~repro.shard.router.ShardRouter` to plan
            for (only its partition and metrics are read).
        max_moves: hard cap on plan length.
        tolerance: acceptable overload of the hottest shard relative to
            the even split (0.1 = 10%).
        qps_bias: how much a shard's share of query traffic inflates
            its load score (0 = size only).
    """
    if max_moves < 0:
        raise ShardError(f"max_moves must be >= 0, got {max_moves}")
    if tolerance < 0:
        raise ShardError(f"tolerance must be >= 0, got {tolerance}")
    shards = router.partition.shards
    if shards < 2:
        return RebalancePlan((), "single shard: nothing to balance")
    loads = _shard_loads(router, qps_bias)
    # Work on sorted copies of the owned sets; planning must not touch
    # live state, and sorted order makes the plan reproducible.
    pools = [sorted(nodes) for nodes in router.partition.shard_nodes]
    sizes = [len(pool) for pool in pools]
    per_node = [
        loads[shard_id] / sizes[shard_id] if sizes[shard_id] else 0.0
        for shard_id in range(shards)
    ]
    ideal = sum(loads) / shards
    moves: List[RebalanceMove] = []
    while len(moves) < max_moves:
        source = max(range(shards), key=lambda i: (loads[i], -i))
        target = min(range(shards), key=lambda i: (loads[i], i))
        if source == target or loads[source] <= ideal * (1.0 + tolerance):
            break
        if not pools[source]:
            break
        node = pools[source].pop(0)
        pools[target].append(node)
        loads[source] -= per_node[source]
        loads[target] += per_node[source]
        moves.append(RebalanceMove(node, source, target))
    return RebalancePlan(
        tuple(moves),
        f"even out load (ideal {ideal:.1f}/shard, "
        f"tolerance {tolerance:.0%}, qps_bias {qps_bias:g})",
    )


def drain_plan(
    router: Any,
    shard: int,
    targets: Optional[List[int]] = None,
) -> RebalancePlan:
    """A plan that empties ``shard``, striping its nodes round-robin
    over the surviving shards (or an explicit ``targets`` list) in
    sorted node order.  Draining is the decommission primitive: after
    the drain the shard owns nothing, resolves nothing and emits
    nothing, and every one of its former nodes is owned by exactly one
    survivor."""
    shards = router.partition.shards
    if not 0 <= shard < shards:
        raise ShardError(
            f"cannot drain shard {shard}: outside range(0, {shards})"
        )
    if targets is None:
        targets = [other for other in range(shards) if other != shard]
    if not targets:
        raise ShardError("draining needs at least one target shard")
    for target in targets:
        if not 0 <= target < shards or target == shard:
            raise ShardError(
                f"invalid drain target {target} for shard {shard}"
            )
    nodes = sorted(router.partition.shard_nodes[shard])
    moves = tuple(
        RebalanceMove(node, shard, targets[position % len(targets)])
        for position, node in enumerate(nodes)
    )
    return RebalancePlan(
        moves,
        f"drain shard {shard} into {targets} ({len(moves)} nodes)",
    )
