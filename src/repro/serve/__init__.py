"""``repro.serve`` — concurrent query serving over a BANKS facade.

The layer between front ends (web app, CLI, federation) and the
in-memory engine.  The subsystem contract:

* :mod:`repro.serve.engine` — :class:`QueryEngine` fronts any facade
  with a ``search`` method: a fixed worker pool
  (:mod:`repro.serve.pool`), bounded admission that sheds over-bound
  requests, per-request deadlines, and single-flight
  deduplication (:mod:`repro.serve.singleflight`) keyed on the
  snapshot version, so deduplicated requests are exactly as consistent
  as independent ones.
* :mod:`repro.serve.snapshot` — :class:`SnapshotStore`, the
  single-writer / many-reader MVCC boundary: readers pin an immutable
  version wait-free; :meth:`~SnapshotStore.mutate` applies a batch to
  an O(delta) copy-on-write fork and publishes it atomically as one
  :class:`~repro.store.log.Epoch`; a store opened over a WAL
  (:meth:`~SnapshotStore.open`) makes every epoch durable before
  readers see it — the write-ahead contract behind ``banks recover``
  and :class:`~repro.store.wal.ReplicaFollower` replicas.  A facade
  that cannot fork is served read-only.
* :mod:`repro.serve.metrics` — the engine-level
  :class:`MetricsRegistry` (counters, gauges, latency windows,
  Prometheus-style histograms) rendered at ``/metrics``; every series
  is documented in ``docs/OPERATIONS.md``.

The layer map and request/mutation data flows are drawn in
``docs/ARCHITECTURE.md``; :mod:`repro.serve.engine` holds the
per-mechanism details.
"""

from repro.serve.engine import EngineConfig, QueryEngine, QueryOutcome
from repro.serve.metrics import Histogram, MetricsRegistry
from repro.serve.pool import WorkerPool
from repro.serve.singleflight import SingleFlight
from repro.serve.snapshot import Snapshot, SnapshotStore

__all__ = [
    "EngineConfig",
    "Histogram",
    "MetricsRegistry",
    "QueryEngine",
    "QueryOutcome",
    "SingleFlight",
    "Snapshot",
    "SnapshotStore",
    "WorkerPool",
]
