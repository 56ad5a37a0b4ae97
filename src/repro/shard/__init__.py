"""``repro.shard`` — sharded scatter-gather keyword search.

Partition the one built BANKS data graph across N shards (ownership
only: every shard searches that same graph), scatter each keyword
query to per-shard :class:`~repro.serve.engine.QueryEngine`-backed
searchers, and gather the per-shard answer trees into one global top-k
ranked by the paper's answer-relevance score:

* :mod:`repro.shard.partition` — :class:`GraphPartitioner` and its
  hash placement; counts the cut edges and derives them as federation
  tuple links on demand;
* :mod:`repro.shard.stitch` — the partition-losslessness helpers
  (:func:`graphs_equal`, and :func:`stats_of` re-exported);
* :mod:`repro.shard.searcher` — one shard's partitioned inverted index
  and root-restricted search;
* :mod:`repro.shard.process` — forked worker processes, one per shard
  (CPU scaling past the GIL);
* :mod:`repro.shard.router` — the :class:`ShardRouter` front end.

The router also serves a *changing* database: mutations derive
:class:`~repro.store.delta.Delta` records (see :mod:`repro.store`)
that are routed to the owning shard — index slice, ownership set,
cut-edge count and that shard's engine state move; everything else
stays put.  :meth:`~repro.shard.router.ShardRouter.apply_epochs`
consumes epochs published elsewhere, which is how a
:class:`~repro.store.wal.ReplicaFollower` keeps a whole forked router
(a replicated hot-shard deployment) caught up from a primary's WAL.

Dispatch policies and the measured gather-vs-route finding (exact
scatter-gather buys partitioned mechanics, routing buys QPS) are
documented in ``docs/ARCHITECTURE.md``; the operator knobs
(``banks serve --shards/--dispatch/--shard-backend``) in
``docs/OPERATIONS.md``.
"""

from repro.shard.partition import GraphPartitioner, Partition, hash_strategy
from repro.shard.process import (
    ProcessShardWorker,
    ProcessWorkerProxy,
    fork_available,
)
from repro.shard.router import ShardAnswer, ShardRouter
from repro.shard.searcher import ShardSearcher
from repro.shard.stitch import graphs_equal, stats_of

__all__ = [
    "GraphPartitioner",
    "Partition",
    "ProcessShardWorker",
    "ProcessWorkerProxy",
    "ShardAnswer",
    "ShardRouter",
    "ShardSearcher",
    "fork_available",
    "graphs_equal",
    "hash_strategy",
    "stats_of",
]
