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
import multiprocessing
import warnings

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.incremental import IncrementalBANKS
from repro.datasets import generate_university
from repro.errors import WalError


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


def test_failed_replica_set_build_stops_its_forked_workers(tmp_path):
    """Replicas fork before the primary's store opens; when the open
    fails (here: the WAL path is a regular file), the workers already
    forked are stopped, not left running."""
    from repro.shard.process import fork_available

    if not fork_available():  # pragma: no cover - fork exists on CI
        pytest.skip("the process backend needs fork")
    wal_file = tmp_path / "wal"
    wal_file.write_text("")
    before = set(multiprocessing.active_children())
    spec = ClusterSpec(
        topology="replicated",
        replicas=2,
        replica_backend="process",
        wal_path=str(wal_file),
    )
    with pytest.raises(WalError):
        Cluster(spec, generate_university()[0])
    gc.collect()
    assert set(multiprocessing.active_children()) <= before
