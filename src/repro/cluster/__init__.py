"""``repro.cluster`` — one public API over engine, shards, replicas, WAL.

BANKS is one system — keyword search served over a browsable database —
and this package is its one construction surface.  The subsystem
contract:

* :mod:`repro.cluster.spec` — :class:`ClusterSpec`, the declarative
  description of a deployment (topology ``single`` | ``sharded`` |
  ``replicated``, plus the write-path, WAL, admission and replica
  knobs) with **centralised validation**:
  every conflicting combination fails through
  :class:`~repro.errors.ClusterError` with one message format, at
  construction time.
* :mod:`repro.cluster.api` — :class:`Cluster`, the facade owning
  composition and lifecycle, and the typed request/response contract:
  :class:`QueryRequest` (keywords, k, deadline, consistency) →
  :class:`QueryResult` (answers + shard/replica provenance + the
  observed epoch + timing), via sync :meth:`~Cluster.query`,
  future-returning :meth:`~Cluster.submit` or the event generator
  :meth:`~Cluster.query_stream` — one read core, one sealed trace per
  read.
* :mod:`repro.cluster.replicaset` — :class:`ReplicaSet`, the serving
  half of replication the ROADMAP promised: N WAL-following replicas
  forked from one primary, load-balanced (fewest in flight, then the
  least recently picked), laggards excluded past a staleness bound,
  mutations routed to the primary, failover + re-admission surfaced on
  ``/metrics``.

:class:`~repro.serve.engine.QueryEngine`,
:class:`~repro.shard.router.ShardRouter` and
:class:`~repro.store.wal.ReplicaFollower` remain the internal layers
the cluster composes; constructing them directly is for their own
unit tests (``docs/API.md`` carries the migration table).
"""

from repro.cluster.api import Cluster, QueryRequest, QueryResult
from repro.cluster.replicaset import ReplicaAnswer, ReplicaSet
from repro.cluster.spec import CONSISTENCY_LEVELS, TOPOLOGIES, ClusterSpec

__all__ = [
    "CONSISTENCY_LEVELS",
    "Cluster",
    "ClusterSpec",
    "QueryRequest",
    "QueryResult",
    "ReplicaAnswer",
    "ReplicaSet",
    "TOPOLOGIES",
]
