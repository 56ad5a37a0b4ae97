"""Close what you open: a composer that opened a durable store closes
its WAL writer.

``Cluster.close`` (a live single deployment) and ``ReplicaSet.stop``
(the primary's store) both opened a ``WalWriter`` through
``SnapshotStore.open``; once they stop, the segment file must be
closed — no ``ResourceWarning`` when the objects are collected — and
the log must still recover to the epoch the deployment reached.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.incremental import IncrementalBANKS
from repro.datasets import generate_university


def _collect_resource_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.fixture
def quiet_heap():
    """Collect what earlier tests left behind (crash simulations abandon
    writers on purpose) before the test looks for warnings of its own."""
    _collect_resource_warnings()


@pytest.mark.parametrize(
    "topology, extra",
    [
        ("single", {"live": True}),
        ("replicated", {"replicas": 1, "replica_backend": "thread"}),
    ],
)
def test_close_closes_the_wal_writer(tmp_path, quiet_heap, topology, extra):
    wal_path = str(tmp_path / "wal")
    spec = ClusterSpec(topology=topology, wal_path=wal_path, wal_fsync="never", **extra)
    cluster = Cluster(spec, generate_university()[0])
    cluster.insert("student", ["S901", "Close Probe", "BIGDEPT"])
    cluster.insert("student", ["S902", "Close Probe Two", "BIGDEPT"])
    epoch = cluster.epoch
    # The replicated front end's durable store is its primary's.
    store = getattr(cluster.engine, "primary", cluster.engine).snapshots
    writer = store.wal
    assert writer._handle is not None
    cluster.close()
    assert writer._handle is None
    del cluster, store, writer
    assert _collect_resource_warnings() == []
    recovered = IncrementalBANKS.recover(generate_university()[0], wal_path)
    assert recovered.applied_epoch == epoch == 2
