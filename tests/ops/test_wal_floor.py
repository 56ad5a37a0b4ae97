"""Retention vs the checkpoint floor: pruning never outruns recovery.

Satellite of the checkpointing PR: a :class:`~repro.store.wal.
WalWriter` with both ``retain`` and a ``checkpoint_path`` clamps its
prune horizon to the newest *manifested* checkpoint epoch
(:func:`~repro.store.wal.checkpoint_floor`), warns once per stalled
floor value, and resumes pruning as checkpoints advance — so a
``retain`` window can no longer make the log unrecoverable while the
checkpointer lags.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.errors import StoreError
from repro.ops.checkpoint import CheckpointManager
from repro.serve.snapshot import SnapshotStore
from repro.store.wal import WalReader, WalWriter, checkpoint_floor

from tests.ops.test_checkpoint_crash import make_db, top5


@pytest.fixture
def build_store():
    """Build a delta store over a WAL that rotates every record into its
    own segment (``segment_bytes=1``), so the segment-granular pruner
    acts at epoch granularity and the clamp is observable exactly.
    Every store built is closed at teardown."""
    stores = []

    def build(wal_dir: str, ckpt_dir: str, retain: int):
        writer = WalWriter(
            wal_dir,
            fsync="never",
            segment_bytes=1,
            retain=retain,
            checkpoint_path=ckpt_dir,
        )
        stores.append(SnapshotStore(IncrementalBANKS(make_db()), wal=writer))
        return writer, stores[-1]

    yield build
    for store in stores:
        store.close()


def publish(store, step: int) -> None:
    store.mutate(
        lambda facade, step=step: facade.insert(
            "paper", [f"fl{step}", f"epoch study {step}"]
        )
    )


class TestFloorClampsPruning:
    def test_no_manifest_means_no_pruning_and_one_warning(self, tmp_path, build_store):
        wal_dir = str(tmp_path / "wal")
        ckpt_dir = str(tmp_path / "checkpoints")
        writer, store = build_store(wal_dir, ckpt_dir, retain=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for step in range(8):
                publish(store, step)
        clamped = [w for w in caught if "clamping" in str(w.message)]
        assert len(clamped) == 1  # deduped per floor value (floor 0)
        assert writer.pruned_segments == 0
        reader = WalReader(wal_dir)
        assert reader.first_epoch() == 1  # every epoch still on disk
        assert reader.last_epoch() == 8

    def test_manifest_advances_floor_and_rearms_warning(self, tmp_path, build_store):
        wal_dir = str(tmp_path / "wal")
        ckpt_dir = str(tmp_path / "checkpoints")
        writer, store = build_store(wal_dir, ckpt_dir, retain=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for step in range(4):
                publish(store, step)
            # Checkpoint epoch 4: the floor moves to 4, later appends
            # prune up to it but no further (horizon wants more), and
            # the warning fires again because the floor value changed.
            CheckpointManager(ckpt_dir).checkpoint(
                store.current().facade, store.epoch
            )
            for step in range(4, 7):
                publish(store, step)
        clamped = [w for w in caught if "clamping" in str(w.message)]
        assert len(clamped) == 2  # once at floor 0, once at floor 4
        assert WalReader(wal_dir).first_epoch() == 5
        assert writer.pruned_segments > 0

    def test_current_checkpoint_lets_retention_prune_freely(
        self, tmp_path, build_store
    ):
        wal_dir = str(tmp_path / "wal")
        ckpt_dir = str(tmp_path / "checkpoints")
        writer, store = build_store(wal_dir, ckpt_dir, retain=2)
        with pytest.warns(RuntimeWarning, match="clamping"):
            for step in range(5):  # no manifest yet: floor 0 clamps
                publish(store, step)
        CheckpointManager(ckpt_dir).checkpoint(store.current().facade, 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            publish(store, 5)  # horizon 6-2=4 <= floor 5: no clamp
        assert [w for w in caught if "clamping" in str(w.message)] == []
        assert WalReader(wal_dir).first_epoch() == 5

    def test_recovery_from_pruned_wal_requires_the_checkpoint(
        self, tmp_path, build_store
    ):
        wal_dir = str(tmp_path / "wal")
        ckpt_dir = str(tmp_path / "checkpoints")
        _writer, store = build_store(wal_dir, ckpt_dir, retain=1)
        with pytest.warns(RuntimeWarning, match="clamping"):
            for step in range(4):  # floor 0
                publish(store, step)
        CheckpointManager(ckpt_dir).checkpoint(
            store.current().facade, store.epoch
        )
        with pytest.warns(RuntimeWarning, match="clamping"):
            for step in range(4, 7):  # floor 4
                publish(store, step)  # prunes epochs 1..4 behind the floor
        assert WalReader(wal_dir).first_epoch() == 5
        live = top5(store.current().facade)

        # Base-snapshot replay refuses the hole; checkpointed recovery
        # starts at epoch 4 and replays only the retained tail.
        with pytest.raises(StoreError):
            IncrementalBANKS.recover(make_db, wal_dir)
        recovered = IncrementalBANKS.recover(
            make_db, wal_dir, checkpoints=CheckpointManager(ckpt_dir)
        )
        assert recovered.applied_epoch == store.epoch == 7
        assert top5(recovered) == live


class TestFloorParsing:
    def test_missing_directory_and_manifest_are_floor_zero(self, tmp_path):
        assert checkpoint_floor(None) == 0
        assert checkpoint_floor(str(tmp_path / "nowhere")) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        assert checkpoint_floor(str(empty)) == 0

    @pytest.mark.parametrize(
        "payload",
        (
            b"not json at all",
            b"{}",
            b'{"checkpoint_epoch": "forty-two"}',
            b'{"checkpoint_epoch": -3}',
            b'{"checkpoint_epoch": 0}',
        ),
    )
    def test_garbage_manifest_is_floor_zero(self, tmp_path, payload):
        (tmp_path / "MANIFEST.json").write_bytes(payload)
        assert checkpoint_floor(str(tmp_path)) == 0

    def test_valid_manifest_is_its_epoch(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format": 1, "checkpoint_epoch": 42})
        )
        assert checkpoint_floor(str(tmp_path)) == 42

    def test_manager_writes_the_floor_the_writer_reads(self, tmp_path, build_store):
        wal_dir = str(tmp_path / "wal")
        ckpt_dir = str(tmp_path / "checkpoints")
        _writer, store = build_store(wal_dir, ckpt_dir, retain=3)
        for step in range(3):
            publish(store, step)
        CheckpointManager(ckpt_dir).checkpoint(store.current().facade, 3)
        assert checkpoint_floor(ckpt_dir) == 3
        assert os.path.exists(os.path.join(ckpt_dir, "MANIFEST.json"))
