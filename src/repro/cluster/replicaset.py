""":class:`ReplicaSet` — N WAL-following replicas behind one front end.

The ROADMAP's missing serving half of replication: PR 4 shipped the
*primitive* (a :class:`~repro.store.wal.ReplicaFollower` keeps one
forked engine or router caught up from a primary's WAL); this module
ships the deployment — one **primary** that owns the write path and N
**replicas** that serve reads, load-balanced behind a single query
surface.

Mechanics:

* the primary is a :class:`~repro.serve.engine.QueryEngine` over an
  :class:`~repro.core.incremental.IncrementalBANKS` facade with a WAL
  attached: every mutation publishes an epoch durably before readers
  see it (the PR 4 write-ahead contract);
* each replica starts from a fork of the *base* database and is kept
  caught up by a :class:`~repro.store.wal.ReplicaFollower` tailing the
  primary's WAL — ``replica_backend="process"`` (the default where
  fork exists) runs each replica facade in a forked worker process so
  N replicas genuinely search N-way parallel on N cores, exactly the
  trick :mod:`repro.shard.process` plays for shards;
* queries pick a replica among the *eligible* ones — alive, and
  trailing the WAL by at most ``max_lag`` epochs — by one rule: fewest
  reads in flight, then the replica picked least recently, then the
  lowest index (strict rotation under sequential load).  A
  laggard is excluded until it catches back up (the exclusion and the
  re-admission are both counted on ``/metrics``); when no replica is
  eligible the primary serves the read itself — the front end degrades,
  it never goes dark;
* ``consistency="read_your_writes"`` waits (bounded) for the chosen
  replica to reach the epoch of the last local write, falling back to
  the primary — which trivially has it — when the wait would exceed
  the bound;
* a replica that dies mid-query (killed process, stopped engine) is
  marked dead and the query retries elsewhere; :meth:`ReplicaSet.heal`
  rebuilds dead replicas from the base snapshot plus the WAL and
  re-admits them once caught up.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.core.incremental import IncrementalBANKS
from repro.errors import (
    ClusterError,
    EngineStoppedError,
    ReproError,
    ShardError,
)
from repro.obs import SearchProfile, Trace
from repro.relational.database import RID
from repro.serve.engine import EngineConfig, QueryEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshot import SnapshotStore, checkpoint_dir
from repro.shard.process import ProcessWorkerProxy, fork_available
from repro.store.wal import ReplicaFollower, WalReader

from repro.cluster.spec import ClusterSpec


#: How long a read_your_writes request may wait for a replica to catch
#: up before falling back to the primary.
_RYW_WAIT_SECONDS = 2.0

#: Replica handle states (reported by :meth:`ReplicaSet.replica_status`).
_ACTIVE, _EXCLUDED, _DEAD = "active", "excluded", "dead"


@dataclass
class ReplicaAnswer:
    """One ranked answer with replica provenance.

    Attributes:
        tree: the connection tree.
        relevance: overall relevance in [0, 1].
        rank: position in the result list (0-based).
        replica: index of the replica that served it (``None`` when
            the primary served the read).
    """

    tree: Any
    relevance: float
    rank: int
    replica: Optional[int]
    _banks: "ReplicaSet"

    @property
    def root(self) -> RID:
        return self.tree.root

    def render(self) -> str:
        labels = {node: self._banks.node_label(node) for node in self.tree.nodes}
        return self.tree.render_indented(labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "primary" if self.replica is None else f"replica {self.replica}"
        return (
            f"ReplicaAnswer(rank={self.rank}, "
            f"relevance={self.relevance:.4f}, {where})"
        )


class _RemoteQueryFailure:
    """A query-level error from the forked replica, shipped back as a
    value.

    The transport reserves exceptions for *worker* failures (dead
    process, remote crash) — those mark the replica dead and fail
    over.  A bad query is not a bad replica: the child wraps the
    original exception here, the parent re-raises it, and the worker
    stays in rotation.  An exception that cannot round-trip through
    pickle travels as a :class:`~repro.errors.ReproError` carrying its
    repr instead.
    """

    def __init__(self, error: BaseException):
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            error = ReproError(f"{type(error).__name__}: {error}")
        self.error = error


class _ReplicaSearchTarget:
    """Child-side adapter around a replica facade.

    Lives in the forked worker process: searches return lightweight
    ``(tree, relevance)`` pairs (never facade-backed ``Answer`` objects,
    whose back-reference would drag the whole replica through the
    pipe), and ``apply_epochs`` replays WAL history pushed from the
    parent.
    """

    def __init__(self, facade: IncrementalBANKS):
        self.facade = facade

    def search_scored(
        self,
        query,
        timeout: Optional[float] = None,
        trace=None,
        profile=None,
        **kwargs,
    ):
        # ``timeout`` bounds the caller's wait, not the search itself;
        # the single-threaded child just runs to completion.
        # Tracing arrives over the pipe as a context dict (and
        # ``profile=True``); the reply becomes an (answers, obs)
        # envelope the parent-side proxy absorbs.
        envelope = isinstance(trace, dict) or profile is True
        local_trace = Trace.from_ctx(trace) if isinstance(trace, dict) else trace
        local_profile = SearchProfile() if profile is True else profile
        span = (
            local_trace.begin(
                "replica.search", parent_id=local_trace.parent_hint
            )
            if local_trace is not None
            else None
        )
        try:
            result = [
                (answer.tree, answer.relevance)
                for answer in self.facade.search(
                    query,
                    trace=local_trace,
                    trace_parent=span.span_id if span is not None else None,
                    profile=local_profile,
                    **kwargs,
                )
            ]
            if span is not None:
                span.attrs["answers"] = len(result)
        except Exception as error:
            if span is not None:
                span.attrs["error"] = type(error).__name__
            result = _RemoteQueryFailure(error)
        if span is not None:
            local_trace.end(span)
        if envelope:
            return result, {
                "spans": local_trace.export() if local_trace else [],
                "profile": (
                    local_profile.to_dict() if local_profile else {}
                ),
            }
        return result

    def apply_epochs(self, epochs) -> int:
        return self.facade.apply_epochs(epochs)


class ProcessReplicaWorker(ProcessWorkerProxy):
    """Parent-side proxy for one forked replica worker.

    The shard workers' pipe transport (:class:`ProcessWorkerProxy`)
    with replica semantics on top: transport failures raise
    :class:`~repro.errors.ClusterError` (the front end marks the
    replica dead and retries elsewhere), query-level errors re-raise
    as themselves (see :class:`_RemoteQueryFailure`), and ``kill()``
    terminates the child without a handshake — the crash-simulation
    hook the failover tests and runbooks use.
    """

    error_type = ClusterError

    def __init__(self, target: _ReplicaSearchTarget, index: int):
        self.index = index
        self.applied_epoch = int(getattr(target.facade, "applied_epoch", 0))
        super().__init__(
            target, label=f"replica {index}", name=f"replica-worker-{index}"
        )

    def search_scored(
        self, query, trace=None, trace_parent=None, profile=None, **kwargs
    ) -> List[Tuple[Any, float]]:
        # A live trace cannot cross the fork: ship the serialized
        # context, absorb the child's spans from the reply envelope.
        if trace is not None:
            kwargs["trace"] = trace.ctx(trace_parent)
        if profile is not None:
            kwargs["profile"] = True
        result = self._call("search_scored", query, **kwargs)
        if trace is not None or profile is not None:
            result, obs = result
            if trace is not None:
                trace.absorb(obs.get("spans") or [])
            if profile is not None:
                profile.merge_dict(obs.get("profile") or {})
        if isinstance(result, _RemoteQueryFailure):
            raise result.error
        return result

    def apply_epochs(self, epochs) -> int:
        epochs = list(epochs)
        applied = self._call("apply_epochs", epochs)
        if epochs:
            self.applied_epoch = epochs[-1].number
        return applied

    def kill(self) -> None:
        """Simulate a crash: SIGTERM the child, no shutdown handshake."""
        self._stopped = True
        self._process.terminate()


class _ThreadReplica(QueryEngine):
    """One in-process replica: a forked facade served by its own engine.

    Portability fallback (and the deterministic test backend): results
    are identical to the process worker, reads do not scale past the
    GIL.  The follower tails the WAL straight into the engine, so one
    poll batch publishes as one snapshot version.
    """

    def __init__(self, facade: IncrementalBANKS, spec: ClusterSpec):
        super().__init__(
            facade,
            EngineConfig(
                workers=1,
                queue_bound=spec.queue_bound,
                default_deadline=spec.deadline,
                dedup=False,
            ),
        )

    def search_scored(
        self, query, timeout: Optional[float] = None, **kwargs
    ) -> List[Tuple[Any, float]]:
        outcome = self.submit(query, **kwargs).result(timeout=timeout)
        return [(answer.tree, answer.relevance) for answer in outcome.answers]

    @property
    def alive(self) -> bool:
        return not self.pool.stopped

    def stop(self, wait: bool = False) -> None:
        super().stop(wait=wait)  # going down abandons the queue

    kill = stop


@dataclass
class _ReplicaHandle:
    """Front-end bookkeeping for one replica."""

    index: int
    worker: Any
    follower: Optional[ReplicaFollower] = None
    dead: bool = False
    excluded: bool = False
    inflight: int = 0
    served: int = 0
    #: the balancer's pick counter when it last chose this replica
    picked: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def applied_epoch(self) -> int:
        if self.follower is not None:
            return self.follower.applied_epoch
        return int(getattr(self.worker, "applied_epoch", 0))

    @property
    def alive(self) -> bool:
        return not self.dead and bool(getattr(self.worker, "alive", True))


class ReplicaSet:
    """One primary plus N WAL-following replicas behind one front end.

    Args:
        database: the *base* database.  The primary serves a fork of
            it (recovered through the WAL when the log already holds
            epochs) and every replica starts from its own fork; the
            caller's database is never mutated.
        spec: the validated :class:`~repro.cluster.spec.ClusterSpec`
            (``topology="replicated"``).
        metrics: external registry to record into (one per set).
    """

    def __init__(
        self,
        database,
        spec: ClusterSpec,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not spec.replicated:
            raise ClusterError(
                f"ReplicaSet needs a replicated topology, got "
                f"{spec.topology!r}"
            )
        self.spec = spec
        self._base = database
        self._wal_dir = spec.wal_path or tempfile.mkdtemp(
            prefix="banks-replicaset-"
        )
        self._owns_wal = spec.wal_path is None
        backend = spec.replica_backend
        if spec.remote_replicas:
            backend = "remote"
        elif backend == "auto":
            backend = "process" if fork_available() else "thread"
        self.backend = backend

        # Replica workers first: the process backend must fork
        # before the primary engine starts any thread, and before the
        # primary's facade is recovered — a child would inherit it and
        # copy its pages at its first full collection.
        self._handles: List[_ReplicaHandle] = []
        try:
            for index in range(spec.replica_count):
                self._handles.append(
                    _ReplicaHandle(index, self._build_worker(index))
                )
            # Then the primary's store, recovered to the pre-restart
            # state the replicas' followers replay too.
            store = SnapshotStore.open(
                self._base.fork,
                self._wal_dir,
                fsync=spec.wal_fsync,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_path=spec.checkpoint_path,
            )
        except BaseException:
            # A failed build stops the workers already built.
            for handle in self._handles:
                handle.worker.stop()
            raise
        self.primary = QueryEngine(
            store,
            EngineConfig(
                workers=spec.workers,
                queue_bound=spec.queue_bound,
                default_deadline=spec.deadline,
            ),
        )
        self.reader = WalReader(self._wal_dir)
        if not spec.remote_replicas:
            for handle in self._handles:
                # Each follower owns a private reader: its segment-range
                # cache is then only ever touched by that replica's
                # threads.  Remote replicas keep themselves caught up
                # (their own follower over shared WAL storage) — the
                # front end only observes their epoch.
                handle.follower = ReplicaFollower(self._wal_dir, handle.worker)

        self.last_write_epoch = self.primary.snapshots.epoch
        self._pick_lock = threading.Lock()
        self._picks = 0
        # monotonic_reads floor: the newest epoch any read served
        # through this front end has observed.
        self._read_lock = threading.Lock()
        self._read_floor = 0

        self.metrics = metrics or MetricsRegistry(prefix="banks_replicaset")
        m = self.metrics
        self._queries = m.counter("queries_total", "front-end reads admitted")
        self._primary_reads = m.counter(
            "primary_reads_total",
            "reads the primary served (consistency or fallback)",
        )
        self._mutations = m.counter("mutations_total", "writes to the primary")
        self._stale_skips = m.counter(
            "replica_stale_skips_total",
            "dispatches that skipped a replica past the staleness bound",
        )
        self._excluded_events = m.counter(
            "replica_excluded_total",
            "replicas newly excluded from balancing (lag past max_lag)",
        )
        self._readmitted = m.counter(
            "replica_readmitted_total",
            "replicas re-admitted to balancing after catching up or healing",
        )
        self._deaths = m.counter(
            "replica_deaths_total", "replicas observed dead (killed or failed)"
        )
        self._failovers = m.counter(
            "replica_failovers_total",
            "queries retried elsewhere after a replica failed mid-flight",
        )
        m.gauge("replicas", "configured replica count",
                fn=lambda: len(self._handles))
        m.gauge("replicas_active", "replicas alive and inside the lag bound",
                fn=self.active_replicas)
        m.gauge("primary_epoch", "the primary's published epoch",
                fn=lambda: self.primary.snapshots.epoch)
        self._latency = m.latency(
            "latency_seconds", "front-end read latency"
        )
        for handle in self._handles:
            m.gauge(
                "replica_lag_epochs",
                "epochs a replica trails the WAL by",
                fn=lambda i=handle.index: self.lag_epochs(i),
                labels={"replica": str(handle.index)},
            )
            m.gauge(
                "replica_served_total",
                "reads served by a replica",
                fn=lambda i=handle.index: self._handles[i].served,
                labels={"replica": str(handle.index)},
            )
        self._tail_interval: Optional[float] = None

    # -- construction helpers --------------------------------------------------

    def _replica_base(self) -> Tuple[int, Any]:
        """Where a (re)built replica starts: ``(epoch, database)`` from
        the newest valid checkpoint when the spec takes them — so a
        build or heal replays only the WAL tail — else epoch 0 and a
        fork of the base database (full-history replay).  Each call
        restores a fresh copy from the file, so replicas never share
        state.  The manager only reads; the primary's store owns the
        writing one."""
        spec = self.spec
        directory = checkpoint_dir(
            self._wal_dir, spec.checkpoint_every, spec.checkpoint_path
        )
        if directory is not None:
            from repro.ops.checkpoint import CheckpointManager

            loaded = CheckpointManager(directory).newest_valid()
            if loaded is not None:
                return loaded
        return 0, self._base.fork()

    def _build_worker(self, index: int) -> Any:
        if self.spec.remote_replicas:
            from repro.net.client import RemoteReplica

            return RemoteReplica(
                self.spec.remote_replicas[index],
                index=index,
                token=self.spec.remote_token,
            )
        start_epoch, database = self._replica_base()
        facade = IncrementalBANKS(database)
        facade.applied_epoch = start_epoch
        if self.backend == "process":
            return ProcessReplicaWorker(_ReplicaSearchTarget(facade), index)
        return _ThreadReplica(facade, self.spec)

    # -- replication state -----------------------------------------------------

    def lag_epochs(self, index: int) -> int:
        """Epochs replica ``index`` trails the WAL by."""
        handle = self._handles[index]
        return max(0, self.reader.last_epoch() - handle.applied_epoch)

    def sync(self, timeout: float = 10.0) -> int:
        """Poll every live replica up to the newest WAL epoch; returns
        the worst remaining lag."""
        target = self.reader.last_epoch()
        worst = 0
        for handle in self._handles:
            if not handle.alive or handle.follower is None:
                continue
            worst = max(worst, handle.follower.catch_up(target, timeout=timeout))
        return worst

    def start(self, interval: float = 0.1) -> "ReplicaSet":
        """Tail the WAL on background threads, one per replica."""
        self._tail_interval = interval
        for handle in self._handles:
            if handle.alive and handle.follower is not None:
                if not handle.follower.tailing:
                    handle.follower.start(interval)
        return self

    def suspend_replica(self, index: int) -> None:
        """Stop replica ``index``'s WAL tailing (it keeps serving and
        falls behind — the laggard-exclusion hook tests and drills use)."""
        follower = self._handles[index].follower
        if follower is not None:
            follower.stop()

    def resume_replica(self, index: int, timeout: float = 10.0) -> int:
        """Catch replica ``index`` back up (and resume tailing when the
        set is started); returns its remaining lag."""
        handle = self._handles[index]
        if handle.follower is None or not handle.alive:
            return self.lag_epochs(index)
        handle.follower.catch_up(self.reader.last_epoch(), timeout=timeout)
        if self._tail_interval is not None and not handle.follower.tailing:
            handle.follower.start(self._tail_interval)
        return self.lag_epochs(index)

    # -- failure and repair ----------------------------------------------------

    def kill_replica(self, index: int) -> None:
        """Take replica ``index`` down hard (crash simulation / drain)."""
        self._mark_dead(self._handles[index])

    def _mark_dead(self, handle: _ReplicaHandle) -> None:
        if handle.dead:
            return
        handle.dead = True
        self._deaths.inc()
        if handle.follower is not None:
            handle.follower.stop()
        try:
            handle.worker.kill()
        except Exception:  # pragma: no cover - defensive
            pass

    def heal(self, timeout: float = 30.0) -> int:
        """Rebuild every dead replica and re-admit each once it has
        caught up; returns how many were re-admitted.  The rebuilt
        replica starts from the newest valid checkpoint when the spec
        takes them (``checkpoint_every`` / ``checkpoint_path``) and its
        follower replays only the WAL tail past it — O(tail), not
        O(history); without checkpoints it starts from the base
        snapshot and replays the full log.

        Process-backend healing forks while the primary's threads are
        live — unlike construction, which forks first.  The child only
        touches its own pre-forked facade (no registry, pool or log
        locks), so the cloned-lock hazard the module docstring
        describes is confined to interpreter-internal locks; the
        thread backend is immune."""
        healed = 0
        for handle in self._handles:
            if handle.alive:
                continue
            handle.worker = self._build_worker(handle.index)
            if not self.spec.remote_replicas:
                handle.follower = ReplicaFollower(self._wal_dir, handle.worker)
                handle.follower.catch_up(
                    self.reader.last_epoch(), timeout=timeout
                )
                if self._tail_interval is not None:
                    handle.follower.start(self._tail_interval)
            handle.dead = False
            handle.excluded = False
            self._readmitted.inc()
            healed += 1
        return healed

    # -- balancing -------------------------------------------------------------

    def _eligible(self, handle: _ReplicaHandle, wal_epoch: int) -> bool:
        """Side-effect-free eligibility: alive, inside the staleness
        bound.  Gauges and status pages read through this — observing
        the set must never move counters or exclusion state."""
        if not handle.alive:
            return False
        return (wal_epoch - handle.applied_epoch) <= self.spec.max_lag

    def active_replicas(self) -> int:
        wal_epoch = self.reader.last_epoch()
        return sum(1 for h in self._handles if self._eligible(h, wal_epoch))

    def _dispatchable(self, handle: _ReplicaHandle, wal_epoch: int) -> bool:
        """Eligibility as the balancer observes it: the dispatch path
        (and only it) records stale skips and the exclusion /
        re-admission transitions."""
        if not handle.alive:
            return False
        if not self._eligible(handle, wal_epoch):
            self._stale_skips.inc()
            if not handle.excluded:
                handle.excluded = True
                self._excluded_events.inc()
            return False
        if handle.excluded:
            handle.excluded = False
            self._readmitted.inc()
        return True

    def _within_bound(
        self,
        handle: _ReplicaHandle,
        wal_epoch: int,
        bound: Optional[int],
    ) -> bool:
        """Per-request staleness filter (``bounded_staleness``); a
        tighter bound than the spec's ``max_lag`` skips laggards for
        this read only — it moves no exclusion state."""
        if bound is None:
            return True
        if (wal_epoch - handle.applied_epoch) <= bound:
            return True
        self._stale_skips.inc()
        return False

    def _catch_up(self, handle: _ReplicaHandle, want_epoch: int) -> None:
        """Bounded wait for ``handle`` to reach ``want_epoch`` — via
        its local follower, or the worker's own mechanism (remote
        replicas poll their serving process)."""
        if handle.follower is not None:
            handle.follower.catch_up(want_epoch, timeout=_RYW_WAIT_SECONDS)
            return
        catch_up = getattr(handle.worker, "catch_up", None)
        if catch_up is not None:
            catch_up(want_epoch, timeout=_RYW_WAIT_SECONDS)

    def _note_read(self, epoch: int) -> None:
        """Advance the monotonic_reads floor to the epoch just served."""
        with self._read_lock:
            if epoch > self._read_floor:
                self._read_floor = epoch

    def _pick(self, eligible: Sequence[_ReplicaHandle]) -> _ReplicaHandle:
        """Fewest reads in flight, then the replica picked least
        recently, then the lowest index.  Sequential reads rotate
        strictly; a replica re-admitted after exclusion rejoins the
        rotation instead of drawing a burst of reads."""
        with self._pick_lock:
            choice = min(eligible, key=lambda h: (h.inflight, h.picked, h.index))
            self._picks += 1
            choice.picked = self._picks
        return choice

    # -- the read path ---------------------------------------------------------

    def query(
        self,
        query: Any,
        max_results: int = 10,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        consistency: str = "eventual",
        staleness_bound: Optional[int] = None,
        trace=None,
        trace_parent=None,
        profile=None,
        **search_kwargs,
    ) -> Tuple[List[ReplicaAnswer], Optional[int], int]:
        """Serve one read; returns ``(answers, replica, epoch)`` where
        ``replica`` is ``None`` when the primary served it.

        Consistency dispatch:

        * ``eventual`` — any balancer-eligible replica;
        * ``read_your_writes`` — the chosen replica must reach the
          epoch of the last local write (bounded wait, then primary);
        * ``bounded_staleness`` — replicas trailing the WAL by more
          than ``staleness_bound`` epochs (default: the spec's
          ``max_lag``) are skipped for this request;
        * ``monotonic_reads`` — the read observes at least the newest
          epoch any earlier read through this front end observed
          (bounded wait, then primary), so successive reads never step
          backwards in time;
        * ``primary`` — straight to the authoritative copy.

        With a ``trace``, balancing records a ``replicaset.query`` span
        with one ``replicaset.dispatch`` child per attempt (failovers
        included), each covering the chosen replica's or the primary's
        execution subtree — forked replicas' spans come back in the
        response envelope and re-parent under their dispatch span.
        """
        started = time.monotonic()
        query_span = (
            trace.begin(
                "replicaset.query",
                parent_id=trace_parent,
                consistency=consistency,
            )
            if trace is not None
            else None
        )
        parent_id = query_span.span_id if query_span is not None else None
        self._queries.inc()
        try:
            if consistency == "primary":
                self._primary_reads.inc()
                return self._query_primary(
                    query, max_results, timeout, deadline, search_kwargs,
                    trace, parent_id, profile,
                )
            want_epoch = None
            bound: Optional[int] = None
            if consistency == "read_your_writes":
                want_epoch = self.last_write_epoch
            elif consistency == "monotonic_reads":
                want_epoch = self._read_floor
            elif consistency == "bounded_staleness":
                bound = (
                    self.spec.max_lag
                    if staleness_bound is None
                    else staleness_bound
                )
            attempted: Set[int] = set()
            while True:
                # One WAL probe per dispatch round, not one per replica.
                wal_epoch = self.reader.last_epoch()
                eligible = [
                    h
                    for h in self._handles
                    if h.index not in attempted
                    and self._dispatchable(h, wal_epoch)
                    and self._within_bound(h, wal_epoch, bound)
                ]
                if not eligible:
                    self._primary_reads.inc()
                    return self._query_primary(
                        query, max_results, timeout, deadline, search_kwargs,
                        trace, parent_id, profile,
                    )
                handle = self._pick(eligible)
                if want_epoch and handle.applied_epoch < want_epoch:
                    self._catch_up(handle, want_epoch)
                    if handle.applied_epoch < want_epoch:
                        # The primary trivially has the wanted epoch.
                        self._primary_reads.inc()
                        return self._query_primary(
                            query, max_results, timeout, deadline,
                            search_kwargs, trace, parent_id, profile,
                        )
                attempted.add(handle.index)
                dispatch_span = (
                    trace.begin(
                        "replicaset.dispatch",
                        parent_id=parent_id,
                        replica=handle.index,
                        lag_epochs=max(0, wal_epoch - handle.applied_epoch),
                    )
                    if trace is not None
                    else None
                )
                with handle.lock:
                    handle.inflight += 1
                try:
                    scored = handle.worker.search_scored(
                        query,
                        timeout=timeout,
                        max_results=max_results,
                        trace=trace,
                        trace_parent=(
                            dispatch_span.span_id
                            if dispatch_span is not None
                            else None
                        ),
                        profile=profile,
                        **search_kwargs,
                    )
                except (ClusterError, EngineStoppedError, ShardError):
                    # The replica itself failed (dead process, stopped
                    # engine) — never the query: mark it down and retry
                    # elsewhere.  Query errors propagate unchanged.
                    if dispatch_span is not None:
                        dispatch_span.attrs["error"] = "failover"
                        trace.end(dispatch_span)
                    self._mark_dead(handle)
                    self._failovers.inc()
                    continue
                finally:
                    with handle.lock:
                        handle.inflight -= 1
                if dispatch_span is not None:
                    dispatch_span.attrs["answers"] = len(scored)
                    trace.end(dispatch_span)
                handle.served += 1
                epoch = handle.applied_epoch
                self._note_read(epoch)
                return (self._wrap(scored, handle.index), handle.index, epoch)
        finally:
            self._latency.observe(time.monotonic() - started)
            if query_span is not None:
                trace.end(query_span)

    def _query_primary(
        self, query, max_results, timeout, deadline, search_kwargs,
        trace=None, parent_id=None, profile=None,
    ) -> Tuple[List[ReplicaAnswer], Optional[int], int]:
        dispatch_span = (
            trace.begin(
                "replicaset.dispatch", parent_id=parent_id, target="primary"
            )
            if trace is not None
            else None
        )
        outcome = self.primary.submit(
            query,
            deadline=deadline,
            max_results=max_results,
            trace=trace,
            trace_parent=(
                dispatch_span.span_id if dispatch_span is not None else None
            ),
            profile=profile,
            **search_kwargs,
        ).result(timeout=timeout)
        if dispatch_span is not None:
            dispatch_span.attrs["answers"] = len(outcome.answers)
            trace.end(dispatch_span)
        scored = [(a.tree, a.relevance) for a in outcome.answers]
        epoch = self.primary.snapshots.epoch
        self._note_read(epoch)
        return self._wrap(scored, None), None, epoch

    def _wrap(self, scored, replica: Optional[int]) -> List[ReplicaAnswer]:
        return [
            ReplicaAnswer(tree, relevance, rank, replica, self)
            for rank, (tree, relevance) in enumerate(scored)
        ]

    def search(
        self,
        query: Any,
        max_results: int = 10,
        timeout: Optional[float] = None,
        **search_kwargs,
    ) -> List[ReplicaAnswer]:
        """The plain engine-compatible read surface (browse app)."""
        answers, _replica, _epoch = self.query(
            query, max_results=max_results, timeout=timeout, **search_kwargs
        )
        return answers

    def search_on(
        self,
        index: int,
        query: Any,
        max_results: int = 10,
        timeout: Optional[float] = None,
        **search_kwargs,
    ) -> List[ReplicaAnswer]:
        """Probe one specific replica (parity checks, benchmarks)."""
        scored = self._handles[index].worker.search_scored(
            query, timeout=timeout, max_results=max_results, **search_kwargs
        )
        return self._wrap(scored, index)

    # -- the write path (routed to the primary) --------------------------------

    def mutate(self, fn) -> Any:
        result = self.primary.mutate(fn)
        self._note_write()
        return result

    def insert(self, table_name: str, values: Sequence[Any]) -> RID:
        rid = self.primary.mutate(lambda f: f.insert(table_name, values))
        self._note_write()
        return rid

    def delete(self, rid: RID) -> None:
        self.primary.mutate(lambda f: f.delete(rid))
        self._note_write()

    def update(self, rid: RID, changes) -> None:
        self.primary.mutate(lambda f: f.update(rid, changes))
        self._note_write()

    def _note_write(self) -> None:
        self.last_write_epoch = self.primary.snapshots.epoch
        self._mutations.inc()

    # -- introspection ---------------------------------------------------------

    @property
    def facade(self) -> Any:
        """The primary's current facade (browse pages read it)."""
        return self.primary.facade

    @property
    def database(self):
        """The primary's current database (browse pages read it)."""
        return self.facade.database

    @property
    def epoch(self) -> int:
        return self.primary.snapshots.epoch

    def node_label(self, node: RID) -> str:
        return self.facade.node_label(node)

    def replica_status(self) -> List[dict]:
        """Per-replica facts for ``/replicas`` and benchmarks
        (read-only: one WAL probe, no counter or state movement)."""
        wal_epoch = self.reader.last_epoch()
        return [
            {
                "replica": handle.index,
                "state": (
                    _DEAD
                    if not handle.alive
                    else (_EXCLUDED if handle.excluded else _ACTIVE)
                ),
                "applied_epoch": handle.applied_epoch,
                "lag_epochs": max(0, wal_epoch - handle.applied_epoch),
                "served": handle.served,
                "inflight": handle.inflight,
            }
            for handle in self._handles
        ]

    def describe(self) -> dict:
        return {
            "topology": self.spec.topology,
            "replicas": len(self._handles),
            "backend": self.backend,
            "max_lag": self.spec.max_lag,
            "epoch": self.epoch,
            "wal_path": self._wal_dir,
            "replica_status": self.replica_status(),
        }

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        for handle in self._handles:
            if handle.follower is not None:
                handle.follower.stop()
            try:
                handle.worker.stop()
            except Exception:  # pragma: no cover - defensive
                pass
        self.primary.stop()
        self.primary.snapshots.close()
        if self._owns_wal:
            import shutil

            shutil.rmtree(self._wal_dir, ignore_errors=True)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        active = sum(1 for h in self._handles if h.alive)
        return (
            f"ReplicaSet({len(self._handles)} replicas ({active} alive), "
            f"{self.backend}, epoch {self.epoch})"
        )
