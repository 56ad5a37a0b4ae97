"""Pipeline behaviour: parity, metrics, tracing, retries, failure."""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.datasets import (
    DEMO_QUERY_SETS,
    synth_bibliography,
    synth_bibliography_base,
    synth_bibliography_records,
)
from repro.errors import IngestError
from repro.ingest import (
    GeneratorSource,
    IngestJob,
    IngestPipeline,
    JobRegistry,
    RouterTarget,
    StoreTarget,
)
from repro.obs import Trace
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshot import SnapshotStore

N_PAPERS = 80
SEED = 11
QUERIES = DEMO_QUERY_SETS["synth_bibliography"]


def make_source(n_papers=N_PAPERS, seed=SEED):
    return GeneratorSource(
        lambda: synth_bibliography_records(n_papers, seed=seed),
        name=f"synth:{n_papers}:{seed}",
    )


def make_store():
    return SnapshotStore(IncrementalBANKS(synth_bibliography_base()))


def make_job(registry, job_id="job", chunk_size=37):
    return registry.create(
        IngestJob(job_id, "synth", "synth:0", chunk_size=chunk_size)
    )


def top5(facade, queries=QUERIES):
    """``((query, root), relevance)`` of each query's top five, in order."""
    return [
        ((query, a.tree.root), a.relevance)
        for query in queries
        for a in facade.search(query, max_results=5)
    ]


def test_ingest_matches_direct_build(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry)
    IngestPipeline(registry, StoreTarget(store)).run(job, make_source())

    direct_db, n_records = synth_bibliography(N_PAPERS, seed=SEED)
    assert job.state == "done"
    assert job.records_committed == n_records
    # One epoch per chunk, cursor and epoch spine in lockstep.
    assert store.epoch == job.chunks_committed
    assert job.chunks_committed == -(-n_records // job.chunk_size)

    ingested = store.current().facade
    direct = IncrementalBANKS(direct_db)
    assert same(top5(ingested), top5(direct))
    for table in ("author", "paper", "writes", "cites"):
        assert len(ingested.database.table(table)) == len(
            direct_db.table(table)
        )


def test_metrics_and_trace_published(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry, chunk_size=50)
    metrics = MetricsRegistry()
    trace = Trace()
    IngestPipeline(
        registry, StoreTarget(store), metrics=metrics, trace=trace
    ).run(job, make_source())

    snap = metrics.snapshot()
    assert snap["ingest_records_total"] == job.records_committed
    assert snap["ingest_chunks_total"] == job.chunks_committed
    # done = index 4 in JOB_STATES, labelled per job.
    assert snap['ingest_job_state{job="job"}'] == 4.0

    spans = trace.export()
    names = [span["name"] for span in spans]
    assert names.count("ingest.run") == 1
    assert names.count("ingest.chunk") == job.chunks_committed
    root = next(s for s in spans if s["name"] == "ingest.run")
    chunk_spans = [s for s in spans if s["name"] == "ingest.chunk"]
    assert all(s["parent_id"] == root["span_id"] for s in chunk_spans)
    assert sum(s["attrs"]["records"] for s in chunk_spans) == (
        job.records_committed
    )


class FlakyTarget(StoreTarget):
    """Fail the Nth commit a fixed number of times, then recover."""

    def __init__(self, store, fail_chunk, failures):
        super().__init__(store)
        self.fail_chunk = fail_chunk
        self.failures = failures
        self.commits = 0

    def commit(self, chunk):
        self.commits += 1
        if self.commits >= self.fail_chunk and self.failures > 0:
            self.failures -= 1
            raise OSError("disk hiccup")
        super().commit(chunk)


def test_transient_failures_retry_with_backoff(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry, chunk_size=100)
    target = FlakyTarget(store, fail_chunk=2, failures=2)
    sleeps = []
    metrics = MetricsRegistry()
    pipeline = IngestPipeline(
        registry,
        target,
        metrics=metrics,
        max_retries=3,
        backoff_base=0.01,
        sleeper=sleeps.append,
    )
    pipeline.run(job, make_source())
    assert job.state == "done"
    assert job.retries == 2
    # Exponential: base, then double.
    assert sleeps == [0.01, 0.02]
    assert metrics.snapshot()["ingest_retries_total"] == 2


def test_retry_budget_exhausted_marks_failed(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry, chunk_size=100)
    target = FlakyTarget(store, fail_chunk=2, failures=99)
    sleeps = []
    pipeline = IngestPipeline(
        registry, target, max_retries=2, sleeper=sleeps.append
    )
    with pytest.raises(IngestError, match="after 2 retries"):
        pipeline.run(job, make_source())
    saved = registry.load("job")
    assert saved.state == "failed"
    assert "disk hiccup" in saved.error
    # The failed chunk was rolled back: only chunk 1 is published.
    assert store.epoch == 1
    assert saved.chunks_committed == 1


def test_resume_after_failure_completes(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry, chunk_size=100)
    flaky = FlakyTarget(store, fail_chunk=2, failures=99)
    with pytest.raises(IngestError):
        IngestPipeline(registry, flaky, max_retries=1, sleeper=lambda s: None).run(
            job, make_source()
        )
    # Operator fixed the cause; resume the failed job on a healthy target.
    resumed = registry.load("job")
    IngestPipeline(registry, StoreTarget(store)).run(
        resumed, make_source(), resume=True
    )
    assert resumed.state == "done"
    direct = IncrementalBANKS(synth_bibliography(N_PAPERS, seed=SEED)[0])
    assert same(top5(store.current().facade), top5(direct))


def test_state_discipline(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    pipeline = IngestPipeline(registry, StoreTarget(store))
    # Resume needs a crashed/paused/failed (or done) job, not a fresh one.
    pending = make_job(registry, job_id="pending-job")
    with pytest.raises(IngestError, match="not resumable"):
        pipeline.run(pending, make_source(n_papers=5), resume=True)
    # A fresh run needs a pending job.
    with pytest.raises(IngestError, match="needs a pending job"):
        pipeline.run(
            IngestJob("already", "s", "d", state="running"),
            make_source(n_papers=5),
        )


def test_resume_done_job_is_noop(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry)
    pipeline = IngestPipeline(registry, StoreTarget(store))
    pipeline.run(job, make_source(n_papers=10))
    epoch = store.epoch
    done = registry.load("job")
    pipeline.run(done, make_source(n_papers=10), resume=True)
    assert store.epoch == epoch  # nothing re-published


def test_irreconcilable_cursor_rejected(tmp_path):
    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry)
    pipeline = IngestPipeline(registry, StoreTarget(store))
    pipeline.run(job, make_source(n_papers=10))
    # Claim a cursor far behind the epoch spine: must refuse, the
    # protocol can only ever trail by one chunk.
    broken = registry.load("job")
    broken.state = "failed"
    broken.chunks_committed -= 2
    registry.save(broken)
    with pytest.raises(IngestError, match="does not reconcile"):
        pipeline.run(broken, make_source(n_papers=10), resume=True)


def test_router_target_ingests_in_lockstep(tmp_path):
    from repro.shard.router import ShardRouter

    store = make_store()
    registry = JobRegistry(str(tmp_path))
    job = make_job(registry, chunk_size=60)
    router = ShardRouter(
        synth_bibliography_base(), shards=2, backend="thread"
    )
    with router:
        IngestPipeline(registry, RouterTarget(router, store)).run(
            job, make_source()
        )
        facade = store.current().facade
        # Structural lockstep: every chunk's deltas reached the router,
        # so its replica database and graph match the store's
        # exactly.  (Scatter-gather answer parity is the shard layer's
        # own guarantee, proven in tests/shard on its workloads.)
        for table in ("author", "paper", "writes", "cites"):
            assert len(router.database.table(table)) == len(
                facade.database.table(table)
            )
        assert router.graph.num_nodes == facade.graph.num_nodes
        assert router.graph.num_edges == facade.graph.num_edges
        for query in QUERIES[:2]:
            assert router.search(query, max_results=5), query
