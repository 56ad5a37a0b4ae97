"""Batch publish x checkpoint cadence x WAL retention, pinned down.

``SnapshotStore.mutate_batch`` publishes one epoch per batch, so every
downstream epoch-denominated knob counts *chunks* during a bulk
ingest.  These tests pin the three interactions the docstring
promises:

1. ``CheckpointManager(every=E)`` checkpoints every E chunks;
2. a bounded WAL ``retain`` window cannot prune epochs the newest
   checkpoint has not covered (the checkpoint-floor clamp), so a long
   ingest can never starve its own recovery;
3. recovery from the newest checkpoint plus the WAL tail reproduces
   the live ingested state exactly, even with the WAL pruned below
   the checkpoint.
"""

from __future__ import annotations

import os

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.datasets import (
    DEMO_QUERY_SETS,
    synth_bibliography_base,
    synth_bibliography_records,
)
from repro.ingest import (
    GeneratorSource,
    IngestJob,
    IngestPipeline,
    JobRegistry,
    StoreTarget,
)
from repro.ops.checkpoint import CheckpointManager
from repro.serve.snapshot import SnapshotStore
from repro.store.wal import WalReader, WalWriter

N_PAPERS = 70
SEED = 3
CHUNK = 30
EVERY = 4


def make_source():
    return GeneratorSource(
        lambda: synth_bibliography_records(N_PAPERS, seed=SEED),
        name=f"synth:{N_PAPERS}:{SEED}",
    )


def ingest_with_checkpoints(workdir, retain=None):
    wal_dir = os.path.join(workdir, "wal")
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    manager = CheckpointManager(checkpoint_dir, every=EVERY)
    # Tiny segments so each epoch rotates into its own file — the WAL
    # prunes whole segments, so retention is only observable when the
    # ingest spans several of them.
    wal = WalWriter(
        wal_dir,
        segment_bytes=1,
        retain=retain,
        checkpoint_path=checkpoint_dir,
    )
    store = SnapshotStore(
        IncrementalBANKS(synth_bibliography_base()),
        wal=wal,
        checkpoints=manager,
    )
    registry = JobRegistry(os.path.join(workdir, "jobs"))
    job = registry.create(
        IngestJob("ckpt", "synth", "synth:0", chunk_size=CHUNK)
    )
    IngestPipeline(registry, StoreTarget(store)).run(job, make_source())
    return store, manager, wal_dir, job


def test_checkpoint_cadence_counts_chunks_not_records(tmp_path):
    store, manager, _wal_dir, job = ingest_with_checkpoints(str(tmp_path))
    store.close()
    # One epoch per chunk; cadence every=E fires every E chunks.
    assert store.epoch == job.chunks_committed
    expected = [
        epoch
        for epoch in range(1, job.chunks_committed + 1)
        if epoch % EVERY == 0
    ]
    kept = sorted(manager.checkpoint_epochs())
    # The manager prunes old checkpoints; whatever is kept must be a
    # suffix of the cadence epochs, ending at the newest one.
    assert kept == expected[-len(kept):]
    assert manager.manifest_epoch() == expected[-1]


def test_retention_clamped_to_checkpoint_floor(tmp_path):
    # retain=2 would keep only 2 epochs; the clamp must keep every
    # epoch after the newest checkpoint so recovery stays possible.
    with pytest.warns(RuntimeWarning, match="clamping"):
        store, manager, wal_dir, _job = ingest_with_checkpoints(
            str(tmp_path), retain=2
        )
    store.wal.close()
    floor = manager.manifest_epoch()
    first_retained = WalReader(wal_dir).first_epoch()
    assert first_retained <= floor + 1
    # And pruning did happen (the clamp bounds it, not disables it).
    assert first_retained > 1


def test_recovery_from_checkpoint_plus_tail_matches_live(tmp_path):
    with pytest.warns(RuntimeWarning, match="clamping"):
        store, manager, wal_dir, _job = ingest_with_checkpoints(
            str(tmp_path), retain=2
        )
    store.wal.close()
    live = store.current().facade
    recovered = IncrementalBANKS.recover(
        synth_bibliography_base, wal_dir, checkpoints=manager
    )
    assert recovered.applied_epoch == store.epoch
    queries = DEMO_QUERY_SETS["synth_bibliography"][:3]
    for query in queries:
        assert same(
            recovered.search(query, max_results=5),
            live.search(query, max_results=5),
        ), query
