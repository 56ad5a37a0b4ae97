"""Exception hierarchy shared by every ``repro`` subpackage.

All library errors derive from :class:`ReproError` so that callers can
catch everything raised by this package with a single ``except`` clause,
while still being able to discriminate finer-grained failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition is invalid (duplicate columns, bad FK, ...)."""


class IntegrityError(ReproError):
    """A data modification would violate a declared constraint."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the catalog."""

    def __init__(self, table_name: str):
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in its table."""

    def __init__(self, table_name: str, column_name: str):
        super().__init__(f"unknown column: {table_name!r}.{column_name!r}")
        self.table_name = table_name
        self.column_name = column_name


class TypeMismatchError(IntegrityError):
    """A value does not conform to the declared column type."""


class GraphError(ReproError):
    """An operation on the data graph failed."""


class UnknownNodeError(GraphError):
    """A node id is not present in the graph."""

    def __init__(self, node: object):
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class QueryError(ReproError):
    """A keyword query is malformed or cannot be answered."""


class EmptyQueryError(QueryError):
    """The query contained no usable search terms."""


class IndexError_(ReproError):
    """A keyword-index operation failed (named with a trailing underscore
    to avoid shadowing the builtin :class:`IndexError`)."""


class BrowseError(ReproError):
    """A browsing request was invalid (bad URL, unknown control, ...)."""


class FederationError(ReproError):
    """A multi-database federation is misconfigured (unknown member
    database, dangling external link, duplicate member name, ...)."""


class ShardError(ReproError):
    """The shard subsystem is misconfigured or a shard failed (bad
    partition strategy, dead shard worker process, ...)."""


class StoreError(ReproError):
    """The delta write path failed (pruned epoch requested, replica
    divergence on replay, bad log configuration, ...)."""


class WalError(StoreError):
    """The durable epoch log is corrupt or misused (mid-log torn
    record, epoch-number gap on append, refused resume after missing
    history, ...).  Torn *tails* are not errors — the reader stops at
    the last complete epoch and the writer truncates them on open."""


class ServeError(ReproError):
    """The query-serving engine could not process a request."""


class PoolSaturatedError(ServeError):
    """The worker pool's bounded task queue is full."""


class EngineOverloadedError(ServeError):
    """Admission control shed the request (queue at its bound)."""


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a worker could finish it."""


class EngineStoppedError(ServeError):
    """The engine (or pool) has been stopped and accepts no new work."""


class BatchMutationError(ServeError):
    """A batch mutation failed part-way; nothing was published.

    Carries the zero-based index of the failing operation so callers
    can retry or report precisely; the original exception rides along
    as both :attr:`cause` and ``__cause__``.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(
            f"batch operation {index} failed "
            f"({type(cause).__name__}: {cause}); batch rolled back, "
            "nothing published"
        )
        self.index = index
        self.cause = cause


class ClusterError(ReproError):
    """The cluster layer refused a spec or a request.

    Every invalid :class:`~repro.cluster.spec.ClusterSpec` — conflicting
    topology flags, a follower without a WAL, a WAL on a topology that
    publishes no epochs, ... — fails through this one error type with
    one message format (``invalid cluster spec: <detail>``), replacing
    the per-flag checks ``banks serve`` used to hand-roll.  Runtime
    cluster misuse (mutating a read-only follower, an unknown
    consistency level) raises it too.
    """


class NetError(ReproError):
    """The HTTP serving tier refused or failed a request.

    Raised by :mod:`repro.net` for malformed wire payloads, failed
    authentication and client-side HTTP failures.  Carries the HTTP
    ``status`` when one exists (``None`` for transport errors — a
    connection refused or reset before any response arrived).
    """

    def __init__(self, message: str, status=None):
        super().__init__(message)
        self.status = status


class IngestError(ReproError):
    """The bulk-ingestion pipeline refused or failed a job.

    Raised by :mod:`repro.ingest` for malformed source specifiers and
    records, job-registry misuse (unknown or corrupt job files, an
    illegal state transition), and chunks that exhausted their retry
    budget — the job file records the failure (``state="failed"`` plus
    the error text) before this propagates, so ``banks jobs`` shows
    why and ``banks ingest --resume`` can pick the job back up.
    """
