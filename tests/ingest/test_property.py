"""Property: resume parity holds for *any* chunk size and kill point.

Hypothesis drives the same crash-recover-resume cycle as
``test_resume_faults`` over randomized chunk sizes (including 1 and
sizes that don't divide the stream), kill steps and kill occurrences.
The invariant: the resumed database holds exactly the rows a direct
build holds, and the job accounting reconciles to the record count.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.datasets import synth_bibliography, synth_bibliography_base
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

N_PAPERS = 25
SEED = 13

# Computed once: the stream the direct build and every ingest replay.
DIRECT_DB, N_RECORDS = synth_bibliography(N_PAPERS, seed=SEED)
DIRECT_FACADE = IncrementalBANKS(DIRECT_DB)
PROBE = "mining discovery"
PROBE_ANSWERS = DIRECT_FACADE.search(PROBE, max_results=5)


def make_source():
    from repro.datasets import synth_bibliography_records

    return GeneratorSource(
        lambda: synth_bibliography_records(N_PAPERS, seed=SEED),
        name=f"synth:{N_PAPERS}:{SEED}",
    )


def table_counts(database):
    return {
        name: len(database.table(name))
        for name in ("author", "paper", "writes", "cites")
    }


EXPECTED_COUNTS = table_counts(DIRECT_DB)


@settings(max_examples=20, deadline=None)
@given(
    chunk_size=st.integers(min_value=1, max_value=60),
    step=st.sampled_from(INGEST_STEPS[:-1]),
    kill_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_any_chunking_any_kill_point_resumes_exactly(
    tmp_path_factory, chunk_size, step, kill_fraction
):
    work = str(tmp_path_factory.mktemp("prop"))
    wal_dir = os.path.join(work, "wal")
    registry = JobRegistry(os.path.join(work, "jobs"))
    store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    job = registry.create(
        IngestJob("prop", "synth", "synth:0", chunk_size=chunk_size)
    )
    total_chunks = -(-N_RECORDS // chunk_size)
    occurrence = max(1, min(total_chunks, int(total_chunks * kill_fraction)))
    faults = FaultInjector().kill_at(step, occurrence=occurrence)
    with pytest.raises(FaultInjected):
        IngestPipeline(registry, StoreTarget(store), faults=faults).run(
            job, make_source()
        )
    store.wal.close()
    del store

    resumed_store = SnapshotStore.open(synth_bibliography_base, wal_dir)
    resumed = registry.load("prop")
    IngestPipeline(registry, StoreTarget(resumed_store)).run(
        resumed, make_source(), resume=True
    )
    resumed_store.close()

    assert resumed.state == "done"
    assert resumed.records_committed == N_RECORDS
    assert resumed.chunks_committed == total_chunks
    facade = resumed_store.current().facade
    assert table_counts(facade.database) == EXPECTED_COUNTS
    assert facade.graph.num_nodes == sum(EXPECTED_COUNTS.values())
    assert same(facade.search(PROBE, max_results=5), PROBE_ANSWERS)
