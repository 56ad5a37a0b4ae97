"""Crash-point proofs: kill at every protocol step, resume, parity.

The discipline of PR 4 (WAL byte-fuzz) and PR 8 (checkpoint/rebalance
step kills), applied to the ingest protocol: a kill is injected at
every named step in :data:`~repro.ingest.pipeline.INGEST_STEPS`, at
an early, middle and late chunk, the "process" state is thrown away,
the facade is rebuilt from the WAL, and the job is resumed from the
registry cursor.  The resumed store must answer every probe query
**exactly** like an uninterrupted ingest of the same stream — a crash
is observationally free.
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
    INGEST_STEPS,
    GeneratorSource,
    IngestJob,
    IngestPipeline,
    JobRegistry,
    StoreTarget,
)
from repro.ops.faults import FaultInjected, FaultInjector
from repro.serve.snapshot import SnapshotStore

N_PAPERS = 60
SEED = 5
CHUNK = 40
QUERIES = DEMO_QUERY_SETS["synth_bibliography"][:4]


def make_source():
    return GeneratorSource(
        lambda: synth_bibliography_records(N_PAPERS, seed=SEED),
        name=f"synth:{N_PAPERS}:{SEED}",
    )


def top5(facade):
    """``((query, root), relevance)`` of each query's top five, in order."""
    return [
        ((query, a.tree.root), a.relevance)
        for query in QUERIES
        for a in facade.search(query, max_results=5)
    ]


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted ingest: answers plus chunk count."""
    store = SnapshotStore(IncrementalBANKS(synth_bibliography_base()))
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        registry = JobRegistry(work)
        job = registry.create(
            IngestJob("ref", "synth", "synth:0", chunk_size=CHUNK)
        )
        IngestPipeline(registry, StoreTarget(store)).run(job, make_source())
    return top5(store.current().facade), job.chunks_committed, (
        job.records_committed
    )


def crash_recover_resume(tmp_path, step, occurrence):
    """Kill at ``step`` x ``occurrence``; recover + resume; return the
    resumed store's answers and the final job."""
    wal_dir = os.path.join(str(tmp_path), "wal")
    registry = JobRegistry(os.path.join(str(tmp_path), "jobs"))
    store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    job = registry.create(
        IngestJob("killed", "synth", "synth:0", chunk_size=CHUNK)
    )
    faults = FaultInjector().kill_at(step, occurrence=occurrence)
    with pytest.raises(FaultInjected):
        IngestPipeline(registry, StoreTarget(store), faults=faults).run(
            job, make_source()
        )
    store.wal.close()
    del store  # the crash: all in-memory state is gone

    resumed_store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    resumed = registry.load("killed")
    assert resumed.state == "running"  # the stale claim of a dead process
    IngestPipeline(registry, StoreTarget(resumed_store)).run(
        resumed, make_source(), resume=True
    )
    resumed_store.close()
    return top5(resumed_store.current().facade), resumed


@pytest.mark.parametrize("step", INGEST_STEPS[:-1])
@pytest.mark.parametrize("when", ("early", "middle", "late"))
def test_kill_at_every_step_resume_parity(tmp_path, reference, step, when):
    answers, chunks, records = reference
    occurrence = {
        "early": 1,
        "middle": max(1, chunks // 2),
        "late": chunks,  # the final chunk's visit of the step
    }[when]
    resumed_answers, job = crash_recover_resume(tmp_path, step, occurrence)
    assert job.state == "done"
    assert job.records_committed == records
    assert job.chunks_committed == chunks
    assert same(resumed_answers, answers), (step, when)


def test_kill_at_finish_resume_is_noop(tmp_path, reference):
    """A crash after the job is marked done leaves nothing to redo."""
    answers, chunks, records = reference
    resumed_answers, job = crash_recover_resume_finish(tmp_path)
    assert job.state == "done"
    assert job.records_committed == records
    assert same(resumed_answers, answers)


def crash_recover_resume_finish(tmp_path):
    wal_dir = os.path.join(str(tmp_path), "wal")
    registry = JobRegistry(os.path.join(str(tmp_path), "jobs"))
    store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    job = registry.create(
        IngestJob("killed", "synth", "synth:0", chunk_size=CHUNK)
    )
    faults = FaultInjector().kill_at("ingest.finish")
    with pytest.raises(FaultInjected):
        IngestPipeline(registry, StoreTarget(store), faults=faults).run(
            job, make_source()
        )
    store.wal.close()
    del store

    resumed_store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    resumed = registry.load("killed")
    assert resumed.state == "done"  # the cursor save beat the crash
    epoch = resumed_store.epoch
    IngestPipeline(registry, StoreTarget(resumed_store)).run(
        resumed, make_source(), resume=True
    )
    assert resumed_store.epoch == epoch  # nothing re-published
    resumed_store.close()
    return top5(resumed_store.current().facade), resumed


def test_double_crash_then_resume(tmp_path, reference):
    """Crash, resume, crash the resume, resume again — the cursor
    protocol is idempotent across repeated failures."""
    answers, chunks, records = reference
    wal_dir = os.path.join(str(tmp_path), "wal")
    registry = JobRegistry(os.path.join(str(tmp_path), "jobs"))
    store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    job = registry.create(
        IngestJob("killed", "synth", "synth:0", chunk_size=CHUNK)
    )
    faults = FaultInjector().kill_at("ingest.chunk_commit", occurrence=1)
    with pytest.raises(FaultInjected):
        IngestPipeline(registry, StoreTarget(store), faults=faults).run(
            job, make_source()
        )
    store.wal.close()
    del store

    # First resume crashes too (one chunk later).
    resumed_store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    resumed = registry.load("killed")
    faults = FaultInjector().kill_at("ingest.cursor_save", occurrence=2)
    with pytest.raises(FaultInjected):
        IngestPipeline(
            registry, StoreTarget(resumed_store), faults=faults
        ).run(resumed, make_source(), resume=True)
    resumed_store.wal.close()
    del resumed_store

    final_store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    final = registry.load("killed")
    IngestPipeline(registry, StoreTarget(final_store)).run(
        final, make_source(), resume=True
    )
    final_store.close()
    assert final.state == "done"
    assert final.records_committed == records
    assert same(top5(final_store.current().facade), answers)
