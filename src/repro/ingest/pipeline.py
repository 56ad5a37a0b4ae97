"""The resumable chunked ingest pipeline.

The protocol per chunk is *commit first, save the cursor second*:

1. assemble the next ``chunk_size`` records from the source
   (``ingest.chunk_begin``);
2. commit them to the target — one :meth:`~repro.serve.snapshot.
   SnapshotStore.mutate_batch` call, hence **one published epoch**
   per chunk, durable in the WAL before it is visible
   (``ingest.chunk_commit``);
3. save the job cursor in the :class:`~repro.ingest.jobs.JobRegistry`
   (``ingest.cursor_save``).

A crash can therefore leave exactly two states: cursor and target
agree (crash outside the window), or the target is **one chunk
ahead** of the cursor (crash between 2 and 3).  Resume reconciles by
arithmetic, not by trust: the target's epoch spine counts committed
chunks (``target.epoch - job.base_epoch``), the job file holds the
stream cursor, and when the spine is one ahead, the first chunk
re-read from the source is *skipped past* — it is already durable —
and only the cursor is advanced.  This is why sources must be
deterministic and chunk size immutable per job: the re-read chunk
must cover exactly the records the pre-crash commit published.

Transient chunk failures (anything but an injected crash) are retried
with exponential backoff; when the budget is exhausted the job file
records ``state="failed"`` plus the error before the failure
propagates, so ``banks ingest --resume`` can pick the job up after
the operator fixes the cause.  :class:`~repro.ops.faults.
FaultInjected` is *not* retried — it simulates the process dying at a
protocol step, and the fault tests assert resume-after-kill parity at
every named step in :data:`INGEST_STEPS`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, List, Tuple

from repro.errors import IngestError
from repro.ingest.jobs import JOB_STATES, RESUMABLE_STATES, IngestJob, JobRegistry
from repro.ingest.sources import Source
from repro.ops.faults import FaultInjected

#: The pipeline's named protocol steps, in order, for fault-injection
#: tests (the injector fires immediately *after* the named action).
INGEST_STEPS = (
    "ingest.chunk_begin",
    "ingest.chunk_commit",
    "ingest.cursor_save",
    "ingest.finish",
)

Record = Tuple[str, List[Any]]


class StoreTarget:
    """Commit chunks through a :class:`~repro.serve.snapshot.
    SnapshotStore` — one ``mutate_batch`` (one epoch) per chunk.

    The store's epoch is the resume spine: with a WAL attached it
    survives crashes, and ``epoch - base_epoch`` counts exactly the
    chunks whose records are durable.
    """

    def __init__(self, store: Any):
        self.store = store

    @property
    def epoch(self) -> int:
        return self.store.epoch

    def commit(self, chunk: List[Record]) -> None:
        self.store.mutate_batch(
            [
                (lambda facade, t=table, v=values: facade.insert(t, v))
                for table, values in chunk
            ]
        )


class RouterTarget(StoreTarget):
    """Commit chunks through a store *and* scatter each published
    epoch's deltas into a :class:`~repro.shard.router.ShardRouter`
    (the store's :attr:`~repro.serve.snapshot.SnapshotStore.published`
    epoch, so the pipeline must be the store's only writer).

    The store (over its own derivation facade) stays the durable
    epoch spine — WAL, resume arithmetic, checkpoint cadence all
    unchanged — while the router absorbs every delta via
    :meth:`~repro.shard.router.ShardRouter.apply` so a sharded
    deployment ingests in lockstep.  On resume, rebuild the router
    from the recovered store state first; this target only forwards
    epochs published *through it*.
    """

    def __init__(self, router: Any, store: Any):
        super().__init__(store)
        self.router = router

    def commit(self, chunk: List[Record]) -> None:
        super().commit(chunk)
        if chunk:  # an empty batch publishes no epoch
            self.router.apply_epochs([self.store.published])


class IngestPipeline:
    """Drive a job: stream, chunk, commit, checkpoint the cursor.

    Args:
        registry: the durable job registry.
        target: a :class:`StoreTarget` or :class:`RouterTarget`.
        metrics: optional :class:`~repro.serve.metrics.MetricsRegistry`;
            publishes ``ingest_records_total``, ``ingest_chunks_total``,
            ``ingest_retries_total`` and a per-job ``ingest_job_state``
            gauge (the state's index in :data:`~repro.ingest.jobs.
            JOB_STATES`).
        trace: optional :class:`~repro.obs.Trace`; every chunk becomes
            a span under one ``ingest.run`` root.
        faults: optional :class:`~repro.ops.faults.FaultInjector`
            (anything with ``step(name)``) announcing
            :data:`INGEST_STEPS`.
        max_retries: transient-failure retries per chunk before the
            job is marked failed.
        backoff_base: first retry delay; doubles per attempt.
        sleeper: injectable sleep (tests count backoffs without
            waiting).
    """

    def __init__(
        self,
        registry: JobRegistry,
        target: StoreTarget,
        *,
        metrics: Any = None,
        trace: Any = None,
        faults: Any = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.registry = registry
        self.target = target
        self.trace = trace
        self.faults = faults
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.sleeper = sleeper
        self._metrics = metrics
        if metrics is not None:
            self._records_total = metrics.counter(
                "ingest_records_total", "records committed by ingest"
            )
            self._chunks_total = metrics.counter(
                "ingest_chunks_total", "chunks committed by ingest"
            )
            self._retries_total = metrics.counter(
                "ingest_retries_total", "transient chunk failures retried"
            )

    # -- the protocol ---------------------------------------------------------

    def run(
        self, job: IngestJob, source: Source, *, resume: bool = False
    ) -> IngestJob:
        """Execute ``job`` over ``source`` to completion.

        Fresh runs take a job whose file :meth:`~repro.ingest.jobs.
        JobRegistry.create` just wrote (state ``pending``); resume
        runs take the loaded job of a crashed, failed or paused
        attempt.  Returns the job in state ``done``; raises
        :class:`~repro.errors.IngestError` after the retry budget is
        spent (job saved as ``failed`` first).
        """
        ahead = self._begin(job, resume)
        span_root = None
        if self.trace is not None:
            span_root = self.trace.begin(
                "ingest.run", job=job.job_id, source=source.name
            )
        try:
            stream = source.records(skip=job.records_committed)
            for chunk in _chunked(stream, job.chunk_size):
                self._step("ingest.chunk_begin")
                ahead = self._commit_chunk(job, chunk, ahead, span_root)
            job.state = "done"
            self.registry.save(job)
            self._set_state_gauge(job)
            self._step("ingest.finish")
            return job
        finally:
            if span_root is not None:
                self.trace.end(span_root)

    def _begin(self, job: IngestJob, resume: bool) -> int:
        """Validate the starting state; return how many chunks the
        target's epoch spine is ahead of the job cursor (0 normally,
        1 after a crash between commit and cursor save)."""
        if resume:
            if job.state == "done":
                return 0
            if job.state not in RESUMABLE_STATES:
                raise IngestError(
                    f"job {job.job_id!r} is {job.state!r}, not resumable "
                    f"(resumable: {', '.join(RESUMABLE_STATES)})"
                )
            ahead = (self.target.epoch - job.base_epoch) - job.chunks_committed
            if ahead not in (0, 1):
                raise IngestError(
                    f"job {job.job_id!r} cursor ({job.chunks_committed} "
                    f"chunks from epoch {job.base_epoch}) does not "
                    f"reconcile with the target epoch {self.target.epoch}: "
                    f"{ahead} chunks ahead — wrong WAL, wrong job, or "
                    "the target was mutated outside this job"
                )
        else:
            if job.state != "pending":
                raise IngestError(
                    f"job {job.job_id!r} is {job.state!r}; a fresh run "
                    "needs a pending job (use resume)"
                )
            job.base_epoch = self.target.epoch
            ahead = 0
        job.state = "running"
        job.error = None
        self.registry.save(job)
        self._set_state_gauge(job)
        return ahead

    def _commit_chunk(
        self,
        job: IngestJob,
        chunk: List[Record],
        ahead: int,
        span_root: Any,
    ) -> int:
        span = None
        if self.trace is not None:
            span = self.trace.begin(
                "ingest.chunk",
                parent_id=span_root.span_id,
                chunk=job.chunks_committed,
                records=len(chunk),
                already_committed=bool(ahead),
            )
        try:
            if ahead:
                # The pre-crash commit published this chunk (the epoch
                # spine proves it); only the cursor needs advancing.
                ahead -= 1
            else:
                self._commit_with_retry(job, chunk)
            self._step("ingest.chunk_commit")
            job.chunks_committed += 1
            job.records_committed += len(chunk)
            self.registry.save(job)
            self._step("ingest.cursor_save")
            if self._metrics is not None:
                self._records_total.inc(len(chunk))
                self._chunks_total.inc()
            return ahead
        finally:
            if span is not None:
                self.trace.end(span)

    def _commit_with_retry(self, job: IngestJob, chunk: List[Record]) -> None:
        attempt = 0
        while True:
            try:
                self.target.commit(chunk)
                return
            except FaultInjected:
                # A simulated crash, not a transient failure: the
                # "process" dies here, leaving the job file claiming
                # "running" — exactly what resume reconciles.
                raise
            except Exception as error:  # noqa: BLE001 - retry boundary
                attempt += 1
                job.retries += 1
                if self._metrics is not None:
                    self._retries_total.inc()
                if attempt > self.max_retries:
                    job.state = "failed"
                    job.error = (
                        f"chunk {job.chunks_committed} failed after "
                        f"{self.max_retries} retries: {error}"
                    )
                    self.registry.save(job)
                    self._set_state_gauge(job)
                    raise IngestError(
                        f"job {job.job_id!r}: {job.error}"
                    ) from error
                self.sleeper(self.backoff_base * (2 ** (attempt - 1)))

    # -- plumbing -------------------------------------------------------------

    def _step(self, name: str) -> None:
        if self.faults is not None:
            self.faults.step(name)

    def _set_state_gauge(self, job: IngestJob) -> None:
        if self._metrics is not None:
            self._metrics.gauge(
                "ingest_job_state",
                "job state as its index in JOB_STATES",
                labels={"job": job.job_id},
            ).set(JOB_STATES.index(job.state))


def _chunked(
    stream: Iterator[Record], size: int
) -> Iterator[List[Record]]:
    chunk: List[Record] = []
    for record in stream:
        chunk.append(record)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
