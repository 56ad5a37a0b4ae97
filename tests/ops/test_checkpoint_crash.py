"""Crash-point fuzz for the checkpoint protocol.

The discipline PR 4 set for the WAL, applied to checkpointing: every
interruption point is exercised mechanically.  The protocol's points
are its named steps (:data:`~repro.ops.checkpoint.CHECKPOINT_STEPS`) —
a kill and a torn write at each one — plus the byte-granular half the
WAL contributes: with a checkpoint on disk, the tail segment is
truncated at *every* byte offset and recovery must land exactly on the
last complete epoch (or the checkpoint, whichever is newer).
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.errors import ReproError
from repro.ops.checkpoint import CHECKPOINT_STEPS, CheckpointManager
from repro.ops.faults import FaultInjected, FaultInjector
from repro.relational import Database, load_sql
from repro.serve.snapshot import SnapshotStore
from repro.store.wal import WalReader, WalWriter

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'grace hopper');
INSERT INTO author VALUES ('a2', 'barbara liskov');
INSERT INTO paper VALUES ('p1', 'compiling arithmetic expressions');
INSERT INTO paper VALUES ('p2', 'abstraction mechanisms');
INSERT INTO writes VALUES ('a1', 'p1');
INSERT INTO writes VALUES ('a2', 'p2');
"""

QUERIES = ("grace", "abstraction", "epoch study", "compiling")


def make_db(name: str = "opscrash") -> Database:
    return load_sql(SCHEMA, name)


def top5(facade):
    return [
        [
            (a.tree.root, round(a.relevance, 9))
            for a in facade.search(query, max_results=5)
        ]
        for query in QUERIES
    ]


def build_history(
    tmp_path,
    epochs_before: int = 3,
    epochs_after: int = 2,
    segment_bytes: int = 4 * 1024 * 1024,
):
    """A WAL with ``epochs_before + epochs_after`` published epochs and
    a clean checkpoint taken between the two batches; returns
    ``(wal_dir, ckpt_dir, store)``.  The store's WAL writer is closed
    (every append was flushed, so the files are what a crash leaves);
    its snapshots stay readable."""
    wal_dir = str(tmp_path / "wal")
    ckpt_dir = str(tmp_path / "checkpoints")
    writer = WalWriter(
        wal_dir,
        fsync="never",
        segment_bytes=segment_bytes,
        checkpoint_path=ckpt_dir,
    )
    store = SnapshotStore(IncrementalBANKS(make_db()), wal=writer)

    def publish(step: int) -> None:
        store.mutate(
            lambda facade, step=step: facade.insert(
                "paper", [f"cp{step}", f"epoch study {step}"]
            )
        )

    for step in range(epochs_before):
        publish(step)
    if epochs_before:
        CheckpointManager(ckpt_dir).checkpoint(
            store.current().facade, store.epoch
        )
    for step in range(epochs_before, epochs_before + epochs_after):
        publish(step)
    store.close()
    return wal_dir, ckpt_dir, store


class TestKillAtEveryStep:
    @pytest.mark.parametrize("step", CHECKPOINT_STEPS)
    def test_kill_then_recovery_is_exact(self, tmp_path, step):
        wal_dir, ckpt_dir, store = build_history(tmp_path)
        live = top5(store.current().facade)

        faults = FaultInjector().kill_at(step)
        manager = CheckpointManager(ckpt_dir, faults=faults)
        with pytest.raises(FaultInjected) as caught:
            manager.checkpoint(store.current().facade, store.epoch)
        assert caught.value.step == step
        assert faults.fired == [(step, "kill", 1)]

        # The "restart": whatever the crash left on disk recovers to
        # the exact live state — newest valid checkpoint plus the tail.
        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert recovered.applied_epoch == store.epoch == 5
        assert top5(recovered) == live

        # And the protocol is not wedged: a clean retry re-bases.
        record = CheckpointManager(ckpt_dir).checkpoint(
            store.current().facade, store.epoch
        )
        assert record.epoch == store.epoch
        assert CheckpointManager(ckpt_dir).manifest_epoch() == store.epoch
        again = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert top5(again) == live


class TestTornWrites:
    @pytest.mark.parametrize("step", ("write", "manifest_write"))
    @pytest.mark.parametrize("keep", (0.0, 0.3, 0.9))
    def test_torn_write_then_recovery_is_exact(self, tmp_path, step, keep):
        wal_dir, ckpt_dir, store = build_history(tmp_path)
        live = top5(store.current().facade)

        faults = FaultInjector().torn_write_at(step, keep_fraction=keep)
        manager = CheckpointManager(ckpt_dir, faults=faults)
        with pytest.raises(FaultInjected) as caught:
            manager.checkpoint(store.current().facade, store.epoch)
        assert caught.value.mode == "torn_write"
        assert faults.fired == [(step, "torn_write", 1)]

        # tmp-then-rename means the torn prefix never lands under the
        # final name — the earlier checkpoint and manifest still rule.
        assert CheckpointManager(ckpt_dir).manifest_epoch() == 3
        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert recovered.applied_epoch == store.epoch
        assert top5(recovered) == live

        record = CheckpointManager(ckpt_dir).checkpoint(
            store.current().facade, store.epoch
        )
        assert record.epoch == store.epoch

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        """A checkpoint file corrupted *after* landing (bad sector, not
        a torn write) fails its CRC and is skipped for the next older
        one; recovery replays the longer tail and is still exact."""
        wal_dir, ckpt_dir, store = build_history(tmp_path)
        live = top5(store.current().facade)
        CheckpointManager(ckpt_dir).checkpoint(
            store.current().facade, store.epoch
        )

        newest = os.path.join(ckpt_dir, f"{store.epoch:012d}.ckpt")
        with open(newest, "rb+") as handle:
            handle.truncate(os.path.getsize(newest) // 2)

        manager = CheckpointManager(ckpt_dir)
        loaded = manager.newest_valid()
        assert loaded is not None and loaded[0] == 3

        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert recovered.applied_epoch == store.epoch
        assert top5(recovered) == live

    def test_every_checkpoint_corrupt_falls_back_to_base(self, tmp_path):
        wal_dir, ckpt_dir, store = build_history(tmp_path)
        live = top5(store.current().facade)
        for name in os.listdir(ckpt_dir):
            if name.endswith(".ckpt"):
                with open(os.path.join(ckpt_dir, name), "wb") as handle:
                    handle.write(b"not a checkpoint")
        assert CheckpointManager(ckpt_dir).newest_valid() is None
        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert recovered.applied_epoch == store.epoch
        assert top5(recovered) == live


class TestWalTailTruncation:
    def test_truncate_every_byte_of_tail_segment(self, tmp_path):
        """With a checkpoint at epoch 4 and small segments forcing
        rotation, cut the final WAL segment at every byte offset:
        recovery must land on ``max(checkpoint, last complete epoch)``
        with exactly that epoch's answers — never a partial epoch,
        never a WalError."""
        wal_dir, ckpt_dir, store = build_history(
            tmp_path, epochs_before=4, epochs_after=6, segment_bytes=256
        )
        store.current()  # settle the final publish

        # Per-epoch expected answers, replayed one epoch at a time.
        epochs = WalReader(wal_dir).read_all()
        assert [e.number for e in epochs] == list(range(1, 11))
        probe = IncrementalBANKS(make_db())
        expected = {0: top5(probe)}
        for epoch in epochs:
            probe.apply_epochs([epoch])
            expected[epoch.number] = top5(probe)

        segments = sorted(
            name for name in os.listdir(wal_dir) if name.endswith(".wal")
        )
        assert len(segments) >= 2, "segment_bytes must force rotation"
        tail_path = os.path.join(wal_dir, segments[-1])
        tail_first = int(segments[-1][: -len(".wal")])
        with open(tail_path, "rb") as handle:
            original = handle.read()

        # Offsets at which a record of the tail segment completes.
        ends = []
        offset = 0
        while offset < len(original):
            (length,) = struct.unpack_from("<I", original, offset)
            offset += 8 + length
            ends.append(offset)
        assert ends[-1] == len(original)

        for cut in range(len(original) + 1):
            with open(tail_path, "wb") as handle:
                handle.write(original[:cut])
            survived = sum(1 for end in ends if end <= cut)
            on_disk = tail_first - 1 + survived
            want = max(4, on_disk)  # checkpoint epoch floors recovery
            recovered = IncrementalBANKS.recover(
                make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
            )
            assert recovered.applied_epoch == want, cut
            assert top5(recovered) == expected[want], cut


class TestDirectoryOnFirstWrite:
    """Building or reading a manager touches nothing on disk; the
    directory appears with the first checkpoint."""

    def test_manager_creates_nothing_until_it_writes(self, tmp_path):
        missing = tmp_path / "absent" / "checkpoints"
        manager = CheckpointManager(str(missing), every=1)
        assert manager.newest_valid() is None
        assert manager.checkpoint_epochs() == []
        assert manager.manifest_epoch() == 0
        assert not (tmp_path / "absent").exists()
        manager.checkpoint(IncrementalBANKS(make_db()), epoch=1)
        assert manager.checkpoint_epochs() == [1]
        assert manager.manifest_epoch() == 1

    def test_recover_from_a_missing_directory_replays_the_log(self, tmp_path):
        wal_dir, _ckpt_dir, store = build_history(tmp_path, epochs_before=0)
        missing = tmp_path / "typo"
        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(str(missing))
        )
        assert recovered.applied_epoch == store.epoch == 2
        assert top5(recovered) == top5(store.current().facade)
        assert not missing.exists()

    def test_fresh_live_cluster_writes_the_directory_on_cadence(self, tmp_path):
        from repro.cluster import Cluster, ClusterSpec

        wal = tmp_path / "wal"
        spec = ClusterSpec(live=True, wal_path=str(wal), checkpoint_every=2)
        with Cluster(spec, database=make_db()) as cluster:
            assert cluster.recovered_epochs == 0
            assert not (wal / "checkpoints").exists()
            cluster.insert("paper", ["cp1", "epoch study one"])
            assert not (wal / "checkpoints").exists()
            cluster.insert("paper", ["cp2", "epoch study two"])
            assert CheckpointManager(str(wal / "checkpoints")).manifest_epoch() == 2


class TestCadenceFailureContainment:
    def test_maybe_checkpoint_records_failure_and_retries(self, tmp_path):
        _wal, ckpt_dir, store = build_history(tmp_path)
        faults = FaultInjector().kill_at("write")
        manager = CheckpointManager(ckpt_dir, every=1, faults=faults)
        facade = store.current().facade
        with pytest.warns(RuntimeWarning, match="checkpoint at epoch"):
            assert manager.maybe_checkpoint(facade, store.epoch) is None
        assert isinstance(manager.last_error, FaultInjected)
        # The plan fired once; the next cadence attempt succeeds.
        record = manager.maybe_checkpoint(facade, store.epoch + 1)
        assert record is not None and record.epoch == store.epoch + 1


class TestFaultInjectorMechanics:
    def test_occurrence_counting_and_injected_sleeper(self):
        naps = []
        faults = FaultInjector(sleeper=naps.append)
        faults.kill_at("write", occurrence=3).stall_at(
            "rename", seconds=0.5
        )
        faults.step("write")
        faults.step("write")
        faults.step("rename")
        assert naps == [0.5]
        with pytest.raises(FaultInjected):
            faults.step("write")
        assert ("write", "kill", 3) in faults.fired
        faults.reset()
        assert faults.fired == []
        faults.step("write")  # counters restarted; occurrence 3 rearmed

    def test_torn_bytes_peeks_without_advancing(self):
        faults = FaultInjector().torn_write_at("write", keep_fraction=0.5)
        assert faults.torn_bytes("write", 100) == 50
        assert faults.torn_bytes("write", 100) == 50  # still upcoming
        assert faults.torn_bytes("write", 1) == 0  # never the whole file
        assert faults.torn_bytes("other", 100) is None

    def test_invalid_plans_are_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector().torn_write_at("write", keep_fraction=1.0)
        with pytest.raises(ReproError):
            FaultInjector().kill_at("write", occurrence=0)
