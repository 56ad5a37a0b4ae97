"""Resumable bulk ingestion: stream, chunk, publish, survive crashes.

The serving stack already had everything a bulk load needs *except*
the loader: the snapshot store batches mutations into atomic epochs,
the WAL makes epochs durable, checkpoints bound replay.  This package
adds the missing driver loop and its crash contract:

* :mod:`~repro.ingest.sources` — where records come from (JSON-lines,
  CSV, deterministic generators), restartable by construction;
* :mod:`~repro.ingest.jobs` — the durable per-job cursor
  (:class:`JobRegistry`), written atomically next to the WAL;
* :mod:`~repro.ingest.pipeline` — the chunked commit protocol
  (:class:`IngestPipeline`): one epoch per chunk, cursor saved after
  the commit, resume reconciled by epoch arithmetic, transient
  failures retried with backoff, crashes provable at every named
  step in :data:`INGEST_STEPS`.

CLI: ``banks ingest DB SOURCE`` and ``banks jobs``.
"""

from repro.ingest.jobs import JOB_STATES, IngestJob, JobRegistry
from repro.ingest.pipeline import (
    INGEST_STEPS,
    IngestPipeline,
    RouterTarget,
    StoreTarget,
)
from repro.ingest.sources import (
    CsvSource,
    GeneratorSource,
    JsonLinesSource,
    Source,
    dump_jsonl,
    open_source,
)

__all__ = [
    "CsvSource",
    "GeneratorSource",
    "INGEST_STEPS",
    "IngestJob",
    "IngestPipeline",
    "JOB_STATES",
    "JobRegistry",
    "JsonLinesSource",
    "RouterTarget",
    "Source",
    "StoreTarget",
    "dump_jsonl",
    "open_source",
]
