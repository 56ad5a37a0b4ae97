""":class:`Cluster` — one facade, one request/response contract.

The public construction path for every deployment shape the repo has
grown: hand a validated :class:`~repro.cluster.spec.ClusterSpec` to
:class:`Cluster` and it owns composition (engines, routers, replica
sets, WALs, followers), lifecycle (``start``/``close``, context
manager) and a single typed query surface::

    from repro.cluster import Cluster, ClusterSpec, QueryRequest

    with Cluster(ClusterSpec(topology="replicated", replicas=3,
                             db="demo:bibliography")) as cluster:
        cluster.insert("paper", ["p9", "epoch replication study"])
        result = cluster.query(QueryRequest(
            "epoch replication", k=5, consistency="read_your_writes"))
        print(result.served_by, result.epoch, result.answers[0].render())

Whatever the topology, :meth:`Cluster.query` returns a
:class:`QueryResult` carrying the answers **plus provenance** (which
replica / which shards served it) **and the epoch** the read observed;
:meth:`Cluster.submit` is the future-returning form.  Mutations route
to whichever component owns the write path — the live engine's
snapshot store, the shard router's delta routing, or the replica set's
primary.  A ``single`` deployment without ``live`` has no write path:
:attr:`Cluster.read_only` is true and every write raises.

``Cluster._read`` is the one read core and the only code that begins
and seals a trace: :meth:`Cluster.query` waits on its future,
:meth:`Cluster.submit` returns it and :meth:`Cluster.query_stream`
drains it.  The engine, the shard router and the replica set record
spans into the trace they are handed, so each read — a failed one
too — stores exactly one record in :attr:`Cluster.obs`.  On
engine-backed topologies a read is one hop: the caller hands it to an
engine worker, and that worker seals the trace and resolves the
caller's future.

Consistency levels (per request, ``QueryRequest.consistency``):

* ``"eventual"`` (default) — any eligible replica may serve; the
  answer reflects *some* published epoch at most ``max_lag`` behind.
* ``"read_your_writes"`` — the read observes at least the epoch of the
  last mutation made through this cluster; the replica set waits for
  the chosen replica (bounded) or falls back to the primary.
* ``"bounded_staleness"`` — the read skips replicas trailing the WAL
  by more than ``QueryRequest.staleness_bound`` epochs (default: the
  spec's ``max_lag``), falling back to the primary when none qualify.
* ``"monotonic_reads"`` — successive reads through one cluster never
  observe an older epoch than an earlier read did.
* ``"primary"`` — the read goes to the authoritative copy.

On unreplicated topologies every level is trivially satisfied (reads
and writes share one published state), so the levels are accepted —
and recorded in the result — everywhere.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ClusterError
from repro.obs import Observability, SearchProfile, TraceRecord
from repro.relational.database import Database, RID

from repro.cluster.replicaset import ReplicaSet
from repro.cluster.spec import CONSISTENCY_LEVELS, ClusterSpec


@dataclass(frozen=True)
class QueryRequest:
    """One keyword read, fully described.

    Attributes:
        keywords: the keyword query (a string, or a pre-parsed
            :class:`~repro.core.query.ParsedQuery`).
        k: how many answers to return.
        deadline: seconds the request may wait queued before it is
            failed (engine-backed topologies).
        consistency: ``"eventual"`` | ``"read_your_writes"`` |
            ``"bounded_staleness"`` | ``"monotonic_reads"`` |
            ``"primary"`` (see the module docstring).
        staleness_bound: with ``consistency="bounded_staleness"``, the
            per-request lag ceiling in epochs (default: the spec's
            ``max_lag``); ignored by the other levels.
        trace_id: adopt this correlation id for the request's trace
            (the HTTP tier forwards ``X-Trace-Id`` headers here), so
            the stored :class:`~repro.obs.TraceRecord` is findable
            under the id the client knows.
    """

    keywords: Any
    k: int = 10
    deadline: Optional[float] = None
    consistency: str = "eventual"
    staleness_bound: Optional[int] = None
    trace_id: Optional[str] = None

    def __post_init__(self):
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ClusterError(
                f"unknown consistency level {self.consistency!r} "
                f"(choose from {', '.join(CONSISTENCY_LEVELS)})"
            )
        if self.k < 1:
            raise ClusterError(f"k must be >= 1 (got {self.k})")
        if self.staleness_bound is not None and self.staleness_bound < 0:
            raise ClusterError(
                f"staleness_bound must be >= 0 (got {self.staleness_bound})"
            )


@dataclass
class QueryResult:
    """What every topology answers with.

    Attributes:
        answers: the ranked answer list (objects with ``tree``,
            ``relevance``, ``rank`` and ``render()``, whatever the
            backend).
        topology: the spec topology that served the read.
        served_by: human-readable provenance — ``"engine"``,
            ``"follower"``, ``"router"``, ``"primary"`` or
            ``"replica-N"``.
        replica: replica index (replicated topology; ``None`` when
            the primary or an unreplicated backend served).
        shards: shard ids contributing nodes to the answers (sharded
            topology; empty elsewhere).
        epoch: the mutation epoch the read observed.
        consistency: the level the request asked for.
        latency: request-to-answer seconds at the cluster surface.
        trace: the finished :class:`repro.obs.TraceRecord` (one rooted
            span tree across every layer and process the read touched)
            when the cluster samples traces; ``None`` with
            ``trace_sample="off"`` and no slow-query threshold.
        profile: the merged :class:`repro.obs.SearchProfile` kernel
            counters for the read (same condition).
    """

    answers: List[Any]
    topology: str
    served_by: str
    replica: Optional[int]
    shards: Tuple[int, ...]
    epoch: int
    consistency: str
    latency: float
    trace: Optional[TraceRecord] = None
    profile: Optional[SearchProfile] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryResult({len(self.answers)} answers via {self.served_by}, "
            f"epoch {self.epoch}, {1000 * self.latency:.1f} ms)"
        )


class Cluster:
    """Own one deployment: construction, lifecycle, queries, writes.

    Args:
        spec: the validated deployment description.
        database: the data to serve; optional when ``spec.db`` names it
            (a loaded :class:`~repro.relational.database.Database` or a
            CLI specifier string like ``"demo:bibliography"``).
    """

    def __init__(
        self, spec: ClusterSpec, database: Optional[Database] = None
    ):
        spec.validate()
        self.spec = spec
        #: The cluster-wide observability bundle: trace store, event
        #: log and sampling knobs.  :meth:`_read` is the only code that
        #: begins and seals traces; the layers below record spans into
        #: the trace they are handed, and the ``/trace`` pages read
        #: this one store.
        self.obs = Observability(
            sample=spec.trace_sample,
            slow_query_ms=spec.slow_query_ms,
            buffer=spec.trace_buffer,
        )
        self.database = self._resolve_database(spec, database)
        #: Epochs replayed from an existing WAL at startup (live
        #: recovery), for operator output.
        self.recovered_epochs = 0
        #: The follower tailing an external primary (follow mode only).
        self.follower = None
        #: The durable store a live cluster opened (closed with it).
        self._store = None
        self._pool = None
        self._started = False
        self._closed = False
        self._build()

    @staticmethod
    def _resolve_database(spec: ClusterSpec, database) -> Database:
        if database is not None:
            return database
        source = spec.db
        if isinstance(source, Database):
            return source
        if isinstance(source, str):
            from repro.cli import load_database

            return load_database(source)
        raise ClusterError(
            "no database: pass one to Cluster(...) or set ClusterSpec.db "
            "to a Database or a specifier string like 'demo:bibliography'"
        )

    # -- composition -----------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        self.backend: Any = None  # the engine-like component
        self.banks: Any = None  # the facade browse pages read
        if spec.replicated:
            replica_set = ReplicaSet(self.database, spec)
            self.backend = replica_set
            self.banks = replica_set  # facade property resolves per read
        elif spec.topology == "sharded":
            from repro.serve.engine import EngineConfig
            from repro.shard.router import ShardRouter

            router = ShardRouter(
                self.database,
                shards=spec.shards,
                backend=spec.shard_backend,
                dispatch=spec.dispatch,
                engine_config=EngineConfig(
                    queue_bound=spec.queue_bound,
                    default_deadline=spec.deadline,
                ),
            )
            self.backend = router
            self.banks = router
        elif spec.follow:
            self._build_follower()
        elif spec.live:
            self._build_live()
        else:
            from repro.core.cache import CachedBanks
            from repro.serve.engine import QueryEngine

            self.banks = CachedBanks(self.database)
            self.backend = QueryEngine(self.banks, self._engine_config())

    def _engine_config(self):
        from repro.serve.engine import EngineConfig

        spec = self.spec
        return EngineConfig(
            workers=spec.workers,
            queue_bound=spec.queue_bound,
            default_deadline=spec.deadline,
        )

    def _build_live(self) -> None:
        from repro.serve.engine import QueryEngine
        from repro.serve.snapshot import SnapshotStore

        spec = self.spec
        # Over an existing log this recovers the pre-crash facade.
        store = SnapshotStore.open(
            self.database,
            spec.wal_path,
            fsync=spec.wal_fsync,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=spec.checkpoint_path,
        )
        self.banks = store.current().facade
        # Checkpoint recovery adopts the checkpoint's database copy;
        # keep the cluster handle pointing at the served one.
        self.database = self.banks.database
        self.recovered_epochs = self.banks.applied_epoch
        self._store = store
        self.backend = QueryEngine(store, self._engine_config())

    def _build_follower(self) -> None:
        from repro.core.incremental import IncrementalBANKS
        from repro.serve.engine import QueryEngine
        from repro.store.wal import ReplicaFollower

        # A follower serves reads only: the loaded database is the base
        # snapshot, the external primary's WAL is the source of truth,
        # and epochs apply through the engine so readers keep snapshot
        # isolation.
        self.banks = IncrementalBANKS(self.database)
        self.backend = QueryEngine(self.banks, self._engine_config())
        self.follower = ReplicaFollower(
            self.spec.wal_path, self.backend, metrics=self.backend.metrics
        )
        self.follower.poll()

    # -- the public read surface -----------------------------------------------

    def query(self, request: Any, on_answer=None, **overrides) -> QueryResult:
        """Serve one read and wait for it; accepts a
        :class:`QueryRequest` or a plain keyword string (``overrides``:
        ``k``, ``deadline``, ``consistency``).

        ``on_answer`` (when the deployment streams inline — see
        :meth:`streams_inline`) fires with each answer as the search
        kernel emits it, strictly before the call returns; the final
        returned list stays authoritative.  Deployments that do not
        stream inline ignore it.  The router and the replica set serve
        on the calling thread; engine-backed topologies wait on the
        engine's future.
        """
        request = self._request(request, overrides)
        return self._read(request, on_answer, inline=True).result()

    def submit(
        self, request: Any, on_answer=None, **overrides
    ) -> "Future[QueryResult]":
        """Admit one read asynchronously; the future resolves to the
        same :class:`QueryResult` :meth:`query` returns.

        On engine-backed topologies (``single``, live, follower) the
        future is chained off :meth:`QueryEngine.submit
        <repro.serve.engine.QueryEngine.submit>`'s: the engine worker
        that runs the search also resolves it, with no thread between.
        The router and the replica set make blocking calls, which run on
        the cluster's submit pool.  ``on_answer`` is :meth:`query`'s
        hook and fires on that serving thread.  Cancelling the future
        abandons only this caller: the search, and a flight other
        callers share, run on, and the read's trace is still sealed.
        """
        return self._read(self._request(request, overrides), on_answer)

    def search(self, query: Any, max_results: int = 10, **kwargs) -> List[Any]:
        """Engine-compatible convenience: the bare answer list."""
        return self.query(QueryRequest(query, k=max_results, **kwargs)).answers

    def streams_inline(self) -> bool:
        """Whether this deployment can flush answers as the kernel
        finds them (the ``on_answer`` hook / SSE streaming).  True for
        every in-process backend but a gather; false when the serving
        workers live across a process boundary (forked shard or replica
        workers, remote HTTP replicas) — a Python callback cannot cross
        a pipe or a socket — and under ``dispatch="gather"``, whose
        shards emit candidates that are answers only once the merge has
        ranked them.  Those deployments deliver all answers at
        completion instead."""
        if getattr(self.backend, "backend", "thread") != "thread":
            return False
        return not (self.spec.shards and self.spec.dispatch == "gather")

    def query_stream(self, request: Any, **overrides):
        """Serve one read incrementally: a generator of ``(kind,
        payload)`` events — ``("answer", answer)`` for each answer as
        the kernel emits it, then exactly one ``("result", QueryResult)``
        carrying the authoritative ranked list (identical to what
        :meth:`query` returns for the same request).

        The read is :meth:`submit`'s: its ``on_answer`` hook and its
        done-callback feed a queue this generator drains on the
        caller's thread, so no thread is started per read.  On
        deployments that cannot stream inline (see
        :meth:`streams_inline`) the answer events are replayed from the
        result once the search completes — the event shape is the same
        either way.  An error raises out of the generator.
        """
        events: "queue.SimpleQueue" = queue.SimpleQueue()
        future = self.submit(
            request,
            on_answer=lambda answer: events.put(("answer", answer)),
            **overrides,
        )
        future.add_done_callback(events.put)
        yield from iter(events.get, future)
        result = future.result()
        if not self.streams_inline():
            for answer in result.answers:
                yield "answer", answer
        yield "result", result

    @staticmethod
    def _request(request: Any, overrides: dict) -> QueryRequest:
        if not isinstance(request, QueryRequest):
            return QueryRequest(request, **overrides)
        if overrides:
            raise ClusterError(
                "pass either a QueryRequest or keyword overrides, not both"
            )
        return request

    def _read(
        self, request: QueryRequest, on_answer=None, inline: bool = False
    ) -> "Future[QueryResult]":
        """The one read core: begin the read's trace, start the read,
        and seal the trace in the done-callback that resolves the
        returned future.

        Engine-backed topologies chain off the engine's future.  The
        router and the replica set block: with ``inline`` on the calling
        thread, otherwise on the submit pool.
        """
        self._check_open()
        spec = self.spec
        started = time.monotonic()
        engine_backed = not (spec.replicated or spec.topology == "sharded")
        kwargs: dict = {"max_results": request.k}
        if on_answer is not None and self.streams_inline():
            kwargs["on_answer"] = on_answer
        # The cluster surface is the one originator: one root ``query``
        # span per request, with every layer below (replica set, shard
        # router, engine, kernel) parenting its spans under it — across
        # forked workers too — and one sealed record per read, failed
        # reads included.
        trace = self.obs.begin(request.trace_id)
        profile = root = None
        if trace is not None:
            profile = SearchProfile()
            root = trace.begin(
                "query",
                topology=spec.topology,
                consistency=request.consistency,
                k=request.k,
            )
            kwargs.update(
                trace=trace, trace_parent=root.span_id, profile=profile
            )
        result: Future = Future()

        def seal(source: Future) -> None:
            failure = None
            try:
                answers, served_by, replica, epoch, shards = self._outcome(
                    source.result()
                )
            except BaseException as error:  # noqa: BLE001 - to the caller
                failure = error
            latency = time.monotonic() - started
            record = None
            if trace is not None:
                if failure is None:
                    root.attrs["answers"] = len(answers)
                    outcome_attrs = {"served_by": served_by}
                else:
                    outcome_attrs = {"error": type(failure).__name__}
                root.attrs.update(outcome_attrs)
                trace.end(root)
                record = self.obs.finish(
                    trace,
                    query=request.keywords,
                    topology=spec.topology,
                    duration_ms=latency * 1000.0,
                    profile=profile,
                    consistency=request.consistency,
                    **outcome_attrs,
                )
            if not result.set_running_or_notify_cancel():
                return  # the caller abandoned the read
            if failure is not None:
                result.set_exception(failure)
                return
            result.set_result(
                QueryResult(
                    answers=answers,
                    topology=spec.topology,
                    served_by=served_by,
                    replica=replica,
                    shards=shards,
                    epoch=epoch,
                    consistency=request.consistency,
                    latency=latency,
                    trace=record,
                    profile=profile,
                )
            )

        source: Future = Future()
        try:
            if engine_backed:
                source = self.backend.submit(
                    request.keywords, deadline=request.deadline, **kwargs
                )
            elif inline:
                source.set_result(self._routed_read(request, kwargs))
            else:
                source = self._submit_pool().submit(
                    self._routed_read, request, kwargs
                )
        except Exception as error:
            # A read that fails to start still resolves through seal.
            source.set_exception(error)
        source.add_done_callback(seal)
        return result

    def _routed_read(self, request: QueryRequest, kwargs: dict):
        """The replica set's or the router's blocking read."""
        if self.spec.replicated:
            return self.backend.query(
                request.keywords,
                deadline=request.deadline,
                consistency=request.consistency,
                staleness_bound=request.staleness_bound,
                **kwargs,
            )
        return self.backend.search(request.keywords, **kwargs)

    def _outcome(self, value):
        """What a topology's read returned — the replica set's
        ``(answers, replica, epoch)``, the router's answers or the
        engine's :class:`~repro.serve.engine.QueryOutcome` — as
        ``(answers, served_by, replica, epoch, shards)``."""
        spec = self.spec
        if spec.replicated:
            answers, replica, epoch = value
            served_by = "primary" if replica is None else f"replica-{replica}"
            return answers, served_by, replica, epoch, ()
        if spec.topology == "sharded":
            shards = {s for a in value for s in a.shards()}
            return value, "router", None, self.backend.epoch, tuple(sorted(shards))
        if self.follower is not None:
            # The follower's local store renumbers per poll batch; the
            # primary's WAL epoch is the one that means something to
            # the operator.
            epoch = self.follower.applied_epoch
            return value.answers, "follower", None, epoch, ()
        return value.answers, "engine", None, self.backend.snapshots.epoch, ()

    def _submit_pool(self):
        if self._pool is None:
            from repro.serve.pool import WorkerPool

            self._pool = WorkerPool(
                workers=max(4, self.spec.workers, 2 * self.spec.replicas),
                queue_bound=0,
                name="cluster-submit",
            )
        return self._pool

    # -- the public write surface ----------------------------------------------

    def insert(self, table_name: str, values) -> RID:
        writer = self._writer()
        if hasattr(writer, "insert"):
            return writer.insert(table_name, values)
        return writer.mutate(lambda f: f.insert(table_name, values))

    def delete(self, rid: RID) -> None:
        writer = self._writer()
        if hasattr(writer, "insert"):
            writer.delete(rid)
        else:
            writer.mutate(lambda f: f.delete(rid))

    def update(self, rid: RID, changes) -> None:
        writer = self._writer()
        if hasattr(writer, "insert"):
            writer.update(rid, changes)
        else:
            writer.mutate(lambda f: f.update(rid, changes))

    def mutate(self, fn) -> Any:
        """Apply a mutation batch function on the write path's facade
        (engine-backed topologies; the shard router exposes only the
        typed insert/delete/update surface)."""
        writer = self._writer()
        if not hasattr(writer, "mutate"):
            raise ClusterError(
                f"topology {self.spec.topology!r} routes typed mutations "
                "(insert/delete/update); it has no facade-function write "
                "path"
            )
        return writer.mutate(fn)

    def _writer(self):
        if not self.read_only:
            return self.backend
        if self.spec.follow:
            raise ClusterError(
                "this cluster is a read-only follower: its state is owned "
                "by the primary's epoch log (mutate through the primary)"
            )
        raise ClusterError(
            f"topology {self.spec.topology!r} is read-only (an immutable "
            "facade); set live=True (or a replicated topology) for a write "
            "path"
        )

    # -- introspection ---------------------------------------------------------

    @property
    def engine(self) -> Any:
        """The engine-like backend (engine, router or replica set)."""
        return self.backend

    @property
    def metrics(self):
        return getattr(self.backend, "metrics", None)

    @property
    def read_only(self) -> bool:
        """Whether every write raises (see :attr:`ClusterSpec.read_only`)."""
        return self.spec.read_only

    @property
    def epoch(self) -> int:
        if self.follower is not None:
            return int(self.follower.applied_epoch)
        backend = self.backend
        epoch = getattr(backend, "epoch", None)
        if epoch is not None:
            return int(epoch)
        return int(backend.snapshots.epoch)

    def describe(self) -> dict:
        facts = {"topology": self.spec.topology, "spec": self.spec.describe()}
        describe = getattr(self.backend, "describe", None)
        if callable(describe):
            facts["backend"] = describe()
        return facts

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Cluster":
        """Begin background work: WAL tailing (follower / replica
        set).  Idempotent; querying before ``start`` is fine — the
        backends are live from construction."""
        self._check_open()
        if self._started:
            return self
        self._started = True
        if self.follower is not None:
            self.follower.start(interval=0.5)
        if self.spec.replicated:
            self.backend.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.follower is not None:
            self.follower.stop()
        if self._pool is not None:
            self._pool.stop(wait=False)
        stop = getattr(self.backend, "stop", None)
        if callable(stop):
            stop()
        if self._store is not None:
            self._store.close()

    #: Engine-compatible alias.
    stop = close

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster is closed")

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.spec.topology}, {self.database.name}, "
            f"epoch {self.epoch})"
        )
