"""Durable per-job ingest state: the resume cursor on disk.

A bulk ingest that dies 80K records in must not start over — the
whole point of chunked commits is that everything up to the last
published chunk is already durable (in the WAL) and already visible
(in the snapshot store).  What a crash *does* lose is the in-memory
cursor: which chunk was last committed.  The :class:`JobRegistry`
keeps that cursor on disk, one small JSON file per job, written with
the same tmp-then-rename discipline as the WAL's segments and the
checkpoint manager's files — a torn write can only ever leave a
``*.tmp`` orphan behind, never a half-readable job file.

The cursor is deliberately allowed to trail reality by **at most one
chunk**: the pipeline commits a chunk to the target first and saves
the cursor second, so a crash between the two leaves a job file one
chunk behind the target's epoch.  Resume reconciles the two by
arithmetic (see :class:`~repro.ingest.pipeline.IngestPipeline`)
instead of trusting either side alone — the epoch spine is
authoritative for *what is committed*, the job file for *where the
stream cursor was*.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import IngestError

#: Legal job states.  pending -> running -> done is the happy path;
#: running -> failed when a chunk exhausts its retries (resumable);
#: paused is an operator-set parking state (also resumable).
JOB_STATES = ("pending", "running", "paused", "failed", "done")

#: States a job may be resumed from.  ``running`` is included because
#: a crashed process leaves its job file saying "running" — that
#: stale claim *is* the crash marker resume exists for.
RESUMABLE_STATES = ("running", "paused", "failed")

_JOB_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class IngestJob:
    """One ingest job's durable state (what a resume needs to know).

    Attributes:
        job_id: filesystem-safe identifier; names the registry file.
        source: the source specifier (``jsonl:...``, ``synth:...``),
            recorded so ``banks jobs`` can say what was being loaded
            and resume can refuse a mismatched source.
        database: the base-database specifier, same purpose.
        chunk_size: records per committed chunk.  Fixed for the job's
            lifetime — the resume arithmetic (records skipped =
            cursor) depends on chunk boundaries being reproducible.
        state: one of :data:`JOB_STATES`.
        chunks_committed: chunks known (by this file) to be committed.
        records_committed: records covered by those chunks.
        base_epoch: the target's epoch when the job started; the
            epoch spine ``target.epoch - base_epoch`` counts committed
            chunks independently of this file.
        retries: transient chunk failures retried so far (cumulative).
        error: the failure text when ``state == "failed"``.
    """

    job_id: str
    source: str
    database: str
    chunk_size: int = 1000
    state: str = "pending"
    chunks_committed: int = 0
    records_committed: int = 0
    base_epoch: int = 0
    retries: int = 0
    error: Optional[str] = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if not _JOB_ID.match(self.job_id):
            raise IngestError(
                f"job id {self.job_id!r} is not filesystem-safe "
                "(letters, digits, dot, dash, underscore)"
            )
        if self.chunk_size < 1:
            raise IngestError(
                f"chunk size must be >= 1, got {self.chunk_size}"
            )
        if self.state not in JOB_STATES:
            raise IngestError(
                f"unknown job state {self.state!r} "
                f"(choose from {', '.join(JOB_STATES)})"
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IngestJob":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise IngestError(
                f"job file holds unknown fields {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as error:
            raise IngestError(f"job file is incomplete: {error}") from None


class JobRegistry:
    """One JSON file per job under ``path``, written atomically.

    Writes go to ``<job_id>.json.tmp`` first, are fsynced, then
    renamed over ``<job_id>.json`` — the same crash discipline as the
    WAL segments this registry typically lives next to (``<wal>/jobs``
    is the conventional location, so the cursor and the epochs it
    reconciles against share a filesystem).

    Args:
        path: the registry directory (created by the first save).
        clock: timestamp source for ``created_at``/``updated_at``
            (injectable for deterministic tests).
    """

    def __init__(self, path: str, clock: Callable[[], float] = time.time):
        self.path = str(path)
        self._clock = clock

    def path_of(self, job_id: str) -> str:
        return os.path.join(self.path, f"{job_id}.json")

    # -- writes ---------------------------------------------------------------

    def create(self, job: IngestJob) -> IngestJob:
        """Register a new job; refuses an id that already exists (a
        resume must go through :meth:`load`, not re-create)."""
        if os.path.exists(self.path_of(job.job_id)):
            raise IngestError(
                f"job {job.job_id!r} already exists in {self.path} "
                "(resume it, or pick a new id)"
            )
        job.created_at = self._clock()
        self.save(job)
        return job

    def save(self, job: IngestJob) -> None:
        """Persist ``job`` atomically (tmp write + fsync + rename)."""
        job.updated_at = self._clock()
        os.makedirs(self.path, exist_ok=True)
        final = self.path_of(job.job_id)
        tmp = final + ".tmp"
        data = json.dumps(job.to_dict(), indent=2, sort_keys=True) + "\n"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)

    # -- reads ----------------------------------------------------------------

    def load(self, job_id: str) -> IngestJob:
        path = self.path_of(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise IngestError(
                f"no job {job_id!r} in {self.path}"
            ) from None
        except (OSError, ValueError) as error:
            raise IngestError(
                f"job file {path} is unreadable: {error}"
            ) from None
        return IngestJob.from_dict(data)

    def try_load(self, job_id: str) -> Optional[IngestJob]:
        try:
            return self.load(job_id)
        except IngestError:
            return None

    def jobs(self) -> List[IngestJob]:
        """Every registered job, sorted by id.  ``*.tmp`` orphans from
        a crash mid-save are ignored (the rename never happened, so
        the previous job file — if any — is still the truth)."""
        try:
            names = sorted(os.listdir(self.path))
        except FileNotFoundError:
            raise IngestError(f"no job registry at {self.path}") from None
        result = []
        for name in names:
            if not name.endswith(".json"):
                continue
            result.append(self.load(name[: -len(".json")]))
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobRegistry({self.path!r})"
