"""Operational tooling: checkpoints, rebalancing, fault injection.

The serving stack persists every mutation epoch to a WAL
(:mod:`repro.store.wal`) and recovers by replaying it from the base
snapshot — correct, but O(history): a long-lived deployment pays an
unbounded replay on every restart and every
:meth:`~repro.cluster.replicaset.ReplicaSet.heal`.  Likewise the shard
partition is fixed at construction, so a hot or oversized shard stays
that way.  This package closes both gaps:

* :class:`~repro.ops.checkpoint.CheckpointManager` — periodically
  persists the facade's base state next to the WAL and records the
  checkpoint epoch in a manifest, re-basing the log: recovery
  (:meth:`~repro.core.incremental.IncrementalBANKS.recover` with
  ``checkpoints=``) and replica healing start from the newest valid
  checkpoint and replay only the tail, and
  :class:`~repro.store.wal.WalWriter` clamps retention pruning to the
  manifest epoch so the log can shrink without becoming unrecoverable.
* :class:`~repro.ops.rebalance.RebalancePlan` /
  :func:`~repro.ops.rebalance.plan_rebalance` — derive a node-move
  plan from the per-shard size and query metrics the router already
  exports; :meth:`~repro.shard.router.ShardRouter.rebalance` executes
  it epoch-by-epoch while serving.
* :class:`~repro.ops.faults.FaultInjector` — a deterministic
  clock/IO shim that can kill, stall or torn-write at every named step
  of both protocols, so ``tests/ops`` can prove crash consistency at
  every interruption point the way PR 4's fuzzing proved the WAL tail.
"""

from repro.ops.checkpoint import (
    CHECKPOINT_STEPS,
    CheckpointManager,
    CheckpointRecord,
)
from repro.ops.faults import FaultInjected, FaultInjector
from repro.ops.rebalance import (
    REBALANCE_STEPS,
    RebalanceMove,
    RebalancePlan,
    drain_plan,
    plan_rebalance,
)

__all__ = [
    "CHECKPOINT_STEPS",
    "CheckpointManager",
    "CheckpointRecord",
    "FaultInjected",
    "FaultInjector",
    "REBALANCE_STEPS",
    "RebalanceMove",
    "RebalancePlan",
    "drain_plan",
    "plan_rebalance",
]
