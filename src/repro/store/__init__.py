"""``repro.store``: the delta write path.

BANKS targets live Web publishing of organisational data (Sec. 5.2),
so the write path matters as much as the read path.  Before this
subsystem existed, every mutation batch paid a deep copy of the
whole facade — O(data) writes on a graph the paper says should absorb
updates incrementally.  This package makes writes O(delta):

* :class:`~repro.store.delta.Delta` — one mutation's complete effect,
  as data: the affected node, the replay payload (row values /
  changes), every edge re-weigh pair, every prestige touch, and the
  index postings tokens that moved.  Deltas are immutable and
  picklable, so they travel to forked shard workers unchanged.
* :mod:`repro.store.delta` also holds the *derivation* functions
  (``derive_insert`` / ``derive_delete`` / ``derive_update``) that
  compute a delta while applying the relational + index part, the
  ``apply_graph_delta`` function that replays the graph part
  idempotently, and ``replay_delta`` for consumers holding their own
  replica (shard worker processes).
  :class:`~repro.core.incremental.IncrementalBANKS` delegates its
  mutation arithmetic here — one derivation serves the facade, the
  serving layer and the shard router.
* The graph a write touches is always a
  :class:`~repro.graph.csr.CSROverlayGraph`: ``fork()`` shares the
  frozen arrays, the frozen node spine and every overlay row with the
  parent and copies a row only when the child first mutates it, so
  publishing a snapshot copies O(delta) adjacency and node data — the
  nodes appended and removed since the freeze.  A fork references
  the frozen base, never its parent, so old versions are reclaimed as
  soon as no reader holds them.
* :class:`~repro.store.log.Epoch` — the publication record.  Every
  published snapshot is an **epoch**: a monotone number plus the tuple
  of deltas that produced it.
* :mod:`repro.store.wal` — the durable history:
  :class:`~repro.store.wal.WalWriter` appends each published epoch to
  a segmented, checksummed on-disk log,
  :class:`~repro.store.wal.WalReader` replays it —
  :meth:`~repro.core.incremental.IncrementalBANKS.recover` rebuilds
  the exact pre-crash facade from a base snapshot — and
  :class:`~repro.store.wal.ReplicaFollower` tails it from another
  process to keep a read-only replica (a facade behind an engine, or
  a whole shard router) caught up by epoch.

One write path, one history
---------------------------

:class:`~repro.serve.snapshot.SnapshotStore` forks the newest facade,
captures the batch's deltas, numbers the epoch, appends it to the WAL
and only then swaps the snapshot in — one reference assignment, so
readers stay wait-free.  A reader that only needs a consistent facade
grabs the current snapshot and holds the reference; structural sharing
makes ten live versions cost little more than one, and a version is
reclaimed as soon as no reader holds it.  The store keeps only the
newest epoch in memory.  A consumer that follows *history* (a replica,
a recovering process, a shard router catching up) reads the WAL with
:meth:`~repro.store.wal.WalReader.entries_since`; a WAL pruned past
the consumer's position raises :class:`~repro.errors.StoreError`
rather than silently skipping epochs.

The full mutation data flow (derivation → capture → epoch → WAL →
recovery/replica) is drawn in ``docs/ARCHITECTURE.md``; the operator
view (``banks serve --live --wal``, ``banks recover``, the metric
series) lives in ``docs/OPERATIONS.md``.
"""

from repro.store.delta import (
    Delta,
    apply_graph_delta,
    derive_delete,
    derive_insert,
    derive_insert_dict,
    derive_update,
    replay_delta,
)
from repro.store.log import Epoch
from repro.store.wal import (
    ReplicaFollower,
    WalReader,
    WalWriter,
    checkpoint_floor,
)

__all__ = [
    "Delta",
    "Epoch",
    "ReplicaFollower",
    "WalReader",
    "WalWriter",
    "apply_graph_delta",
    "checkpoint_floor",
    "derive_delete",
    "derive_insert",
    "derive_insert_dict",
    "derive_update",
    "replay_delta",
]
