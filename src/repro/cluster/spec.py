""":class:`ClusterSpec` — one declarative description of a deployment.

Four PRs of scaling work left the repo with four parallel construction
idioms — an engine, a shard router, a WAL follower and a WAL-backed
store, each with its own kwargs and its own hand-rolled flag conflicts
in ``banks serve``.  The spec replaces all of that with one frozen
dataclass: *what* to stand up (the topology), *how* it serves
(worker/admission knobs), *how* it writes (WAL + checkpoints: the
fields :meth:`SnapshotStore.open
<repro.serve.snapshot.SnapshotStore.open>` takes; the engine config
holds none), and *how* replicas behave (backend, staleness bound).

Validation is centralised: every conflicting combination — the old
``--replica`` + ``--shards``/``--live`` matrix, a WAL-less follower,
a WAL on a topology that publishes no epochs, a field of the wrong
type in a spec file, … — fails through
:class:`~repro.errors.ClusterError` with one message format
(``invalid cluster spec: <detail>``), at construction time, before any
engine exists.

Topologies::

    single      one QueryEngine over one facade (a CachedBanks,
                or an IncrementalBANKS with --live or --follow)
    sharded     a ShardRouter over N graph shards
    replicated  a ReplicaSet: one WAL-writing primary plus N
                WAL-following replica engines behind a load-balancing
                front end

``follow=True`` (the old ``banks serve --replica``) is the external
half of replication: a read-only single-engine follower of *another
process's* WAL, valid only on the ``single`` topology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from numbers import Real
from typing import Any, Optional, Tuple, Union

from repro.errors import ClusterError, ReproError
from repro.obs import parse_sample
from repro.relational.database import Database
from repro.store.wal import FSYNC_POLICIES

#: The deployments the cluster layer can stand up.
TOPOLOGIES = ("single", "sharded", "replicated")

#: Per-request consistency levels (see repro.cluster.api.QueryRequest).
CONSISTENCY_LEVELS = (
    "eventual",
    "read_your_writes",
    "bounded_staleness",
    "monotonic_reads",
    "primary",
)

_DISPATCHES = ("gather", "route")
_BACKENDS = ("thread", "process", "auto")

#: Field types, checked before any value is compared: a spec file's
#: ``"live": "no"`` or ``"workers": "4"`` is refused, not deployed.
_FLAGS = ("live", "follow")
_COUNTS = (
    "shards", "replicas", "workers", "queue_bound", "checkpoint_every",
    "max_lag", "trace_buffer",
)
_DURATIONS = ("deadline", "slow_query_ms")
_OPTIONAL_STRINGS = ("wal_path", "checkpoint_path", "remote_token")

#: Spec fields a ``banks serve`` flag sets.  Each flag's argparse
#: destination is the field name, except ``--wal`` for ``wal_path``;
#: ``topology`` derives from the counts.
_SERVE_FIELDS = (
    "db", "shards", "replicas", "workers", "queue_bound", "deadline",
    "live", "wal_path", "wal_fsync", "follow", "checkpoint_every",
    "checkpoint_path", "shard_backend", "dispatch", "replica_backend",
    "max_lag", "remote_replicas", "remote_token",
    "trace_sample", "slow_query_ms", "trace_buffer",
)


def _invalid(detail: str) -> ClusterError:
    """The one error path every bad spec combination exits through."""
    return ClusterError(f"invalid cluster spec: {detail}")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of one cluster deployment.

    Attributes:
        topology: ``"single"`` | ``"sharded"`` | ``"replicated"``.
        db: optional data source — a loaded
            :class:`~repro.relational.database.Database` or a CLI
            specifier string (``"demo:bibliography"``,
            ``"sqlite:/path"``); :class:`~repro.cluster.api.Cluster`
            resolves it when no database is passed explicitly.
        shards: shard count (``sharded`` only).
        replicas: replica count (``replicated`` only).
        workers: worker threads for the (primary) engine.
        queue_bound: admission-queue bound before shedding
            (0 = unbounded).
        deadline: per-request queueing deadline in seconds.
        live: serve a mutable :class:`IncrementalBANKS` facade (single
            topology; a replicated topology is always live — the
            primary owns the write path).
        wal_path: durable epoch-log directory.  Required with
            ``follow``; optional for the replicated topology (an
            ephemeral log is created when omitted); with
            ``live`` it makes the single primary durable.
        wal_fsync: WAL durability policy.
        follow: read-only follower of an external primary's WAL (the
            old ``--replica``); single topology only.
        checkpoint_every: persist a facade checkpoint next to the WAL
            every N epochs (0 = off), so recovery and replica heal
            replay only the tail past the newest checkpoint instead of
            the full history.  Needs a WAL-writing primary: ``live``
            with ``wal_path``, or the replicated topology.
        checkpoint_path: checkpoint directory (default:
            ``<wal_path>/checkpoints``).  Setting it without
            ``checkpoint_every`` enables checkpoint-aware recovery and
            WAL prune clamping without a write cadence.
        shard_backend: ``"thread"`` | ``"process"`` | ``"auto"`` shard
            workers.
        dispatch: shard dispatch policy (``"gather"`` | ``"route"``).
            Shards are placed by the partitioner's hash of
            ``table:rid``.
        replica_backend: how replica workers run — ``"process"``
            (forked, CPU scaling), ``"thread"`` (where fork is absent,
            and the deterministic test backend) or ``"auto"``.
        max_lag: staleness bound in epochs; a replica trailing the WAL
            by more than this is excluded from balancing until it
            catches back up.
        remote_replicas: base URLs (``http://host:port``) of remote
            HTTP serving processes (:mod:`repro.net`) the replicated
            front end balances over instead of forking local workers;
            ``replicated`` topology only, mutually exclusive with
            ``replicas``.
        remote_token: bearer token the front end authenticates to the
            remote replicas with (when they require one).
        trace_sample: query-trace sampling — ``"always"`` (default),
            ``"off"``, ``"slow"`` (keep only slow queries) or a rate
            in (0, 1] (deterministic 1-in-N).
        slow_query_ms: queries at or above this duration are flagged
            slow, always kept in the trace store and logged at
            WARNING; ``None`` disables the slow-query log.
        trace_buffer: trace ring-buffer capacity (kept traces).
    """

    topology: str = "single"
    db: Any = None
    shards: int = 0
    replicas: int = 0
    # engine / admission knobs
    workers: int = 4
    queue_bound: int = 64
    deadline: Optional[float] = None
    # write path
    live: bool = False
    wal_path: Optional[str] = None
    wal_fsync: str = "always"
    follow: bool = False
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    # shard knobs
    shard_backend: str = "auto"
    dispatch: str = "gather"
    # replica-set knobs
    replica_backend: str = "auto"
    max_lag: int = 8
    # networked replicas (repro.net): base URLs of remote HTTP serving
    # processes the front end balances over instead of forking local
    # workers; each remote process keeps itself caught up (e.g. a
    # ``--follow`` follower over shared WAL storage) and reports its
    # epoch on ``/v1/health``.
    remote_replicas: Tuple[str, ...] = ()
    remote_token: Optional[str] = None
    # observability knobs
    trace_sample: Union[str, float] = "always"
    slow_query_ms: Optional[float] = 500.0
    trace_buffer: int = 256

    def __post_init__(self):
        self.validate()

    # -- the one validation path ----------------------------------------------

    def validate(self) -> "ClusterSpec":
        """Check the whole conflict matrix; raises
        :class:`~repro.errors.ClusterError` (``invalid cluster spec:
        <detail>``) on the first violation, returns ``self`` when
        clean."""
        self._validate_types()
        self._validate_enums()
        self._validate_counts()
        self._validate_modes()
        return self

    def _validate_types(self) -> None:
        for name in _FLAGS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise _invalid(f"{name} must be true or false (got {value!r})")
        for name in _COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise _invalid(f"{name} must be an integer (got {value!r})")
        for name in _DURATIONS:
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, Real)
            ):
                raise _invalid(f"{name} must be a number or null (got {value!r})")
        for name in _OPTIONAL_STRINGS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise _invalid(f"{name} must be a string or null (got {value!r})")
        if not isinstance(self.db, (type(None), str, Database)):
            raise _invalid(
                f"db must be a specifier string or a Database (got {self.db!r})"
            )
        if isinstance(self.trace_sample, bool) or not isinstance(
            self.trace_sample, (str, Real)
        ):
            raise _invalid(
                f"trace_sample must be a mode name or a rate "
                f"(got {self.trace_sample!r})"
            )
        if not isinstance(self.remote_replicas, (list, tuple)):
            raise _invalid(
                "remote_replicas must be a list of base URLs "
                f"(got {self.remote_replicas!r})"
            )

    def _validate_enums(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise _invalid(
                f"unknown topology {self.topology!r} "
                f"(choose from {', '.join(TOPOLOGIES)})"
            )
        if self.wal_fsync not in FSYNC_POLICIES:
            raise _invalid(
                f"unknown wal fsync policy {self.wal_fsync!r} "
                f"(choose from {', '.join(FSYNC_POLICIES)})"
            )
        if self.dispatch not in _DISPATCHES:
            raise _invalid(
                f"unknown dispatch policy {self.dispatch!r} "
                f"(choose from {', '.join(_DISPATCHES)})"
            )
        if self.shard_backend not in _BACKENDS:
            raise _invalid(
                f"unknown shard backend {self.shard_backend!r} "
                f"(choose from {', '.join(_BACKENDS)})"
            )
        if self.replica_backend not in _BACKENDS:
            raise _invalid(
                f"unknown replica backend {self.replica_backend!r} "
                f"(choose from {', '.join(_BACKENDS)})"
            )

    def _validate_counts(self) -> None:
        sharded = self.topology == "sharded"
        if sharded and self.shards < 1:
            raise _invalid(
                f"topology {self.topology!r} needs shards >= 1 "
                f"(got {self.shards})"
            )
        if not sharded and self.shards:
            raise _invalid(
                f"shards={self.shards} conflicts with topology "
                f"{self.topology!r}; use topology='sharded'"
            )
        if self.replicated and self.replicas < 1 and not self.remote_replicas:
            raise _invalid(
                f"topology {self.topology!r} needs replicas >= 1 "
                f"(got {self.replicas}) or remote_replicas URLs"
            )
        if not self.replicated and self.replicas:
            raise _invalid(
                f"replicas={self.replicas} conflicts with topology "
                f"{self.topology!r}; use topology='replicated'"
            )
        if self.workers < 1:
            raise _invalid(f"workers must be >= 1 (got {self.workers})")
        if self.queue_bound < 0:
            raise _invalid(
                f"queue_bound must be >= 0 (got {self.queue_bound})"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise _invalid(f"deadline must be positive (got {self.deadline})")
        if self.max_lag < 0:
            raise _invalid(f"max_lag must be >= 0 (got {self.max_lag})")
        if self.checkpoint_every < 0:
            raise _invalid(
                f"checkpoint_every must be >= 0 (got {self.checkpoint_every})"
            )
        try:
            parse_sample(self.trace_sample)
        except ReproError as error:
            raise _invalid(str(error)) from None
        if self.slow_query_ms is not None and self.slow_query_ms <= 0:
            raise _invalid(
                f"slow_query_ms must be positive or None "
                f"(got {self.slow_query_ms})"
            )
        if self.trace_buffer < 1:
            raise _invalid(
                f"trace_buffer must be >= 1 (got {self.trace_buffer})"
            )

    def _validate_modes(self) -> None:
        if self.follow:
            if self.topology != "single":
                raise _invalid(
                    "follow=True is its own serving mode (a read-only "
                    "WAL follower); it conflicts with topology "
                    f"{self.topology!r}"
                )
            if self.live:
                raise _invalid(
                    "follow=True conflicts with live=True: a follower's "
                    "state is owned by the primary's epoch log, a local "
                    "write path would silently diverge from it"
                )
            if not self.wal_path:
                raise _invalid(
                    "follow=True needs wal_path (the primary's log to "
                    "tail)"
                )
        if self.wal_path and self.topology == "sharded":
            raise _invalid(
                "wal_path is not wired into the sharded topology; use "
                "topology='replicated' (the primary owns the log, the "
                "replicas follow it)"
            )
        if self.wal_path and not (self.live or self.follow or self.replicated):
            raise _invalid(
                "wal_path needs a live primary (live=True), a follower "
                "(follow=True) or the self.replicated topology; the other "
                "serving modes publish no mutation epochs"
            )
        if self.checkpoint_every or self.checkpoint_path:
            if self.follow:
                raise _invalid(
                    "a follower takes no checkpoints (the primary owns "
                    "the WAL a checkpoint would re-base); drop "
                    "checkpoint_every / checkpoint_path"
                )
            if not (self.replicated or (self.live and self.wal_path)):
                raise _invalid(
                    "checkpoints re-base a WAL: they need a live durable "
                    "primary (live=True with wal_path) or the self.replicated "
                    "topology"
                )
        if self.remote_replicas:
            if self.topology != "replicated":
                raise _invalid(
                    "remote_replicas (networked HTTP replicas) only "
                    "exist on topology='replicated', not "
                    f"{self.topology!r}"
                )
            if self.replicas:
                raise _invalid(
                    "remote_replicas conflicts with replicas="
                    f"{self.replicas}: a replica set balances over "
                    "local forked workers or remote HTTP processes, "
                    "not a mix"
                )
            for url in self.remote_replicas:
                if not (
                    isinstance(url, str)
                    and url.startswith(("http://", "https://"))
                ):
                    raise _invalid(
                        f"remote replica {url!r} is not an http(s) "
                        "base URL"
                    )

    # -- conveniences ----------------------------------------------------------

    @property
    def replicated(self) -> bool:
        return self.topology == "replicated"

    @property
    def replica_count(self) -> int:
        """How many replicas the front end balances over (local forked
        workers, or remote HTTP processes)."""
        if self.remote_replicas:
            return len(self.remote_replicas)
        return self.replicas

    @property
    def read_only(self) -> bool:
        """Whether the deployment has no local write path: a follower
        (the primary's WAL owns its state), or a ``single`` topology
        without ``live`` (an immutable facade)."""
        return self.follow or (self.topology == "single" and not self.live)

    def with_overrides(self, **changes) -> "ClusterSpec":
        """A re-validated copy with ``changes`` applied."""
        return replace(self, **changes)

    def describe(self) -> dict:
        """The spec as a plain dict (benchmarks, status pages)."""
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name != "db"
        }

    # -- JSON round trip (spec-file deployments) -------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as JSON, loadable by :meth:`from_json`.

        Raises :class:`~repro.errors.ClusterError` when ``db`` holds a
        loaded database — spec files carry names, not objects.
        """
        payload = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "db":
                if value is None:
                    continue
                if not isinstance(value, str):
                    raise ClusterError(
                        "cannot serialise a spec holding a loaded "
                        "database; set db to a specifier string like "
                        "'demo:bibliography'"
                    )
            if isinstance(value, tuple):
                value = list(value)
            payload[field.name] = value
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        """Parse a spec from JSON and validate it (construction runs
        the full conflict matrix).  Unknown keys fail loudly — a typo
        in a spec file must not silently deploy the default."""
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise _invalid(f"not valid JSON ({error})") from None
        if not isinstance(payload, dict):
            raise _invalid("spec JSON must be an object")
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise _invalid(
                f"unknown spec field(s) {', '.join(map(repr, unknown))}"
            )
        if isinstance(payload.get("remote_replicas"), list):
            payload["remote_replicas"] = tuple(payload["remote_replicas"])
        return cls(**payload)

    @classmethod
    def from_json_file(cls, path: str) -> "ClusterSpec":
        """Load and validate a spec file (``banks serve --spec``)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise _invalid(f"cannot read spec file {path!r}: {error}") from None

    # -- the ``banks serve`` bridge -------------------------------------------

    @classmethod
    def from_serve_args(cls, args) -> "ClusterSpec":
        """Translate a ``banks serve`` argparse namespace into a spec.

        This is where the old flag surface funnels into the one
        validation path: any conflicting combination raises
        :class:`~repro.errors.ClusterError` from the spec constructor,
        with the same message a programmatic caller would get.  Every
        flag defaults to ``None`` (unset) and only the flags the user
        set are passed on, so the dataclass defaults above are the only
        defaults; an explicit value, zero included, reaches validation
        as given.
        """
        given = {}
        for field in _SERVE_FIELDS:
            flag = "wal" if field == "wal_path" else field
            value = getattr(args, flag, None)
            if value is not None:
                given[field] = value
        if "remote_replicas" in given:
            given["remote_replicas"] = tuple(given["remote_replicas"])
        if given.get("shards"):
            topology = "sharded"
        elif given.get("replicas") or given.get("remote_replicas"):
            topology = "replicated"
        else:
            topology = "single"
        return cls(topology=topology, **given)
