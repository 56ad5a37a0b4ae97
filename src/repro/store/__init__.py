"""``repro.store``: the delta-log write path.

BANKS targets live Web publishing of organisational data (Sec. 5.2),
so the write path matters as much as the read path.  Before this
subsystem existed, every mutation batch paid ``copy.deepcopy`` of the
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
* :class:`~repro.store.log.DeltaLog` — the publication record.  Every
  published snapshot is an **epoch**: a monotone number plus the tuple
  of deltas that produced it.
* :mod:`repro.store.wal` — the durable half:
  :class:`~repro.store.wal.WalWriter` appends each published epoch to
  a segmented, checksummed on-disk log (``DeltaLog(wal=...)`` wires it
  in), :class:`~repro.store.wal.WalReader` replays it —
  :meth:`~repro.core.incremental.IncrementalBANKS.recover` rebuilds
  the exact pre-crash facade from a base snapshot — and
  :class:`~repro.store.wal.ReplicaFollower` tails it from another
  process to keep a read-only replica (a facade behind an engine, or
  a whole shard router) caught up by epoch.

The epoch / reclamation model
-----------------------------

Publishing is one reference assignment, exactly as in the deep-copy
path, so readers stay wait-free.  What changes is lifetime management:

* A reader that only needs a consistent facade keeps doing what it
  always did — grab the current snapshot and hold the reference; the
  interpreter's refcounting keeps that version alive.  Structural
  sharing makes this cheap: ten live versions share all untouched
  adjacency dicts, postings lists and table heaps.
* A consumer that needs to *catch up on history* (a shard router
  replaying deltas, a replica, a dashboard) calls
  :meth:`~repro.store.log.DeltaLog.pin` to mark the epoch it has seen,
  reads :meth:`~repro.store.log.DeltaLog.entries_since`, then drops
  the pin with :meth:`~repro.store.log.DeltaLog.release`.
* The log retains a bounded window of epochs (``retain``).  On every
  publish it reclaims entries older than both the window and the
  oldest pin — deliberate epoch-based reclamation instead of the
  refcount-by-accident the deep-copy path relied on.  A consumer that
  sleeps past the window gets :class:`~repro.errors.StoreError` from
  ``entries_since`` and must rebuild, rather than silently missing
  updates.

:class:`~repro.serve.snapshot.SnapshotStore` drives all of this under
``copy_mode="delta"`` (the default when the facade supports forking);
``copy_mode="deep"`` keeps the original deep-copy path as a fallback,
asserted equivalent by the hypothesis property test in
``tests/core/test_incremental.py``.

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
from repro.store.log import DeltaLog, Epoch
from repro.store.wal import (
    ReplicaFollower,
    WalReader,
    WalWriter,
    checkpoint_floor,
)

__all__ = [
    "Delta",
    "DeltaLog",
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
