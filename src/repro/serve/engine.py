"""The :class:`QueryEngine`: concurrent query serving over one facade.

The paper deploys BANKS as a web front end; a front end means many
simultaneous clients hitting one in-memory graph.  The engine is the
missing layer between HTTP handlers and the
:class:`~repro.core.banks.BANKS` facade, composing four mechanisms:

1. **worker pool** — searches run on a fixed set of threads
   (:mod:`repro.serve.pool`), so one slow query cannot monopolise the
   process and callers get futures with timeouts;
2. **admission control** — the pool's task queue is bounded; when it is
   full the engine sheds the request (fail fast with
   :class:`~repro.errors.EngineOverloadedError`, so the client can
   retry elsewhere).  Each request may carry a deadline; a request
   whose deadline lapses while queued is failed without wasting a
   worker on it;
3. **single-flight deduplication** — identical queries already in
   flight share one computation (:mod:`repro.serve.singleflight`);
   the key includes the snapshot version, so deduplicated requests are
   exactly as consistent as independent ones;
4. **snapshot isolation** — searches pin an immutable snapshot while
   :meth:`QueryEngine.mutate` applies
   :class:`~repro.core.incremental.IncrementalBANKS` deltas to a
   private copy and publishes atomically (:mod:`repro.serve.snapshot`).

The engine only serves: durable state (WAL, checkpoints, recovery) is
opened by :meth:`SnapshotStore.open
<repro.serve.snapshot.SnapshotStore.open>` and handed in.

Every request updates the engine's :class:`~repro.serve.metrics.MetricsRegistry`
(QPS, p50/p95 latency, queue depth, shed count, cache hit rate), which
the browse app exposes at ``/metrics``.

Typical use::

    from repro.core.cache import CachedBanks
    from repro.serve import EngineConfig, QueryEngine

    with QueryEngine(CachedBanks(database), EngineConfig(workers=8)) as engine:
        answers = engine.search("soumen sunita", timeout=2.0)
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.cache import _query_key, _scoring_key
from repro.errors import (
    DeadlineExceededError,
    EngineOverloadedError,
    EngineStoppedError,
    PoolSaturatedError,
    ServeError,
)
from repro.obs import SearchProfile
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import WorkerPool
from repro.serve.singleflight import SingleFlight
from repro.serve.snapshot import Snapshot, SnapshotStore

#: Sliding window (seconds) for the QPS / latency-quantile metrics.
_METRICS_WINDOW = 60.0


def _mirror(source: "Future") -> "Future":
    """A caller-private view of a shared flight future.

    Resolves exactly as ``source`` does, but ``cancel()`` on the mirror
    abandons only this caller — the shared computation (and every other
    caller's mirror) is unaffected.
    """
    mirror: Future = Future()

    def propagate(completed: Future) -> None:
        if not mirror.set_running_or_notify_cancel():
            return  # this caller cancelled its mirror; nobody else cares
        if completed.cancelled():
            mirror.set_exception(CancelledError())
            return
        error = completed.exception()
        if error is not None:
            mirror.set_exception(error)
        else:
            mirror.set_result(completed.result())

    source.add_done_callback(propagate)
    return mirror


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for one :class:`QueryEngine`.

    Attributes:
        workers: worker threads executing searches.
        queue_bound: max queued (admitted, not yet running) requests;
            0 disables admission control (unbounded queue).
        default_deadline: seconds a request may spend queued before it
            is failed with :class:`~repro.errors.DeadlineExceededError`
            (``None`` = no deadline unless the request sets one).
        dedup: share one computation among identical in-flight queries.
    """

    workers: int = 4
    queue_bound: int = 64
    default_deadline: Optional[float] = None
    dedup: bool = True

    def __post_init__(self):
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ServeError("default_deadline must be positive")


@dataclass
class QueryOutcome:
    """What a completed request resolves to.

    Attributes:
        answers: the ranked answer list, exactly as the facade returns.
        snapshot_version: the data version the search ran against.
        latency: admission-to-completion seconds (queue wait included).
        profile: the :class:`repro.obs.SearchProfile` the kernel filled
            (``None`` for untraced, unprofiled requests; a dedup
            follower resolves to the leader's outcome and thus the
            leader's profile).
    """

    answers: List[Any]
    snapshot_version: int
    latency: float
    profile: Optional[SearchProfile] = None


class QueryEngine:
    """Concurrent serving wrapper around a BANKS-style facade.

    Args:
        facade_or_store: a :class:`~repro.serve.snapshot.SnapshotStore`,
            served as given, or a facade to wrap in one — anything
            with a ``search(query, **kwargs)`` method:
            :class:`~repro.core.banks.BANKS`,
            :class:`~repro.core.cache.CachedBanks` (recommended: its
            result cache composes with single-flight), or
            :class:`~repro.core.incremental.IncrementalBANKS` when
            :meth:`mutate` will be used.
        config: tuning knobs (see :class:`EngineConfig`).
        metrics: an external registry to record into (a fresh one is
            created otherwise; read it via :attr:`metrics`).  One
            registry per engine — sharing one across engines raises,
            since the computed gauges (queue depth, version) can only
            report a single source.
    """

    def __init__(
        self,
        facade_or_store: Any,
        config: Optional[EngineConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or EngineConfig()
        store = facade_or_store
        if not isinstance(store, SnapshotStore):
            store = SnapshotStore(store)
        self.snapshots = store
        self.pool = WorkerPool(
            workers=self.config.workers,
            queue_bound=self.config.queue_bound,
        )
        self.metrics = metrics or MetricsRegistry()
        self._flights = SingleFlight()

        m = self.metrics
        self._requests = m.counter("requests_total", "requests admitted or shed")
        self._completed = m.counter("completed_total", "searches finished")
        self._shed = m.counter("shed_total", "requests shed by admission control")
        self._deduped = m.counter(
            "dedup_shared_total", "requests served by an in-flight duplicate"
        )
        self._expired = m.counter(
            "deadline_expired_total", "requests whose deadline lapsed queued"
        )
        self._errors = m.counter("errors_total", "searches raising an error")
        self._mutations = m.counter("mutations_total", "published snapshots")
        m.gauge("queue_depth", "requests admitted, not yet running",
                fn=lambda: self.pool.depth)
        m.gauge("snapshot_version", "current data version",
                fn=lambda: self.snapshots.version)
        m.gauge("cache_hit_rate", "facade result-cache hit rate",
                fn=self._cache_hit_rate)
        m.gauge("snapshot_copies_total", "facade snapshot captures taken",
                fn=lambda: self.snapshots.copies)
        m.gauge("snapshot_copy_seconds_total",
                "seconds spent capturing facade snapshots",
                fn=lambda: self.snapshots.copy_seconds)
        m.gauge("snapshot_epoch", "epoch of the current version",
                fn=lambda: self.snapshots.epoch)
        m.gauge("snapshot_deltas_total", "deltas published in epochs",
                fn=lambda: self.snapshots.deltas_published)
        m.gauge("wal_epochs_written",
                "epochs appended to the durable log (0 = no WAL)",
                fn=lambda: self.snapshots.wal_epochs_written)
        m.gauge("wal_bytes",
                "bytes the durable log holds on disk (0 = no WAL)",
                fn=lambda: self.snapshots.wal_bytes)
        m.gauge("checkpoints_written",
                "checkpoints durably written (0 = checkpointing off)",
                fn=lambda: (
                    self.snapshots.checkpoints.checkpoints_written
                    if self.snapshots.checkpoints is not None
                    else 0
                ))
        self._latency = m.latency(
            "latency_seconds", "admission-to-completion latency",
            window_seconds=_METRICS_WINDOW,
        )
        self._latency_hist = m.histogram(
            "request_latency_seconds",
            "admission-to-completion latency distribution",
        )
        self._copy_hist = m.histogram(
            "snapshot_copy_cost_seconds",
            "per-capture snapshot copy/fork cost distribution",
        )
        self.snapshots.copy_observer = self._copy_hist.observe

    # -- read path ------------------------------------------------------------

    def submit(
        self,
        query: Any,
        *,
        deadline: Optional[float] = None,
        trace=None,
        trace_parent=None,
        profile: Optional[SearchProfile] = None,
        **search_kwargs,
    ) -> "Future[QueryOutcome]":
        """Admit one search; resolve to a :class:`QueryOutcome`.

        When a ``trace`` is handed in (by the cluster, which alone
        begins and seals traces), the engine records its
        ``engine.request`` span — with ``engine.queue``,
        ``engine.snapshot_pin`` and ``engine.execute`` children — under
        ``trace_parent``.

        Raises:
            EngineOverloadedError: queue at its bound.
            EngineStoppedError: after :meth:`stop`.
        """
        if self.pool.stopped:
            raise EngineStoppedError("engine is stopped")
        self._requests.inc()
        request_span = None
        if trace is not None:
            request_span = trace.begin(
                "engine.request", parent_id=trace_parent
            )
            if profile is None:
                profile = SearchProfile()
        pin_started = time.time()
        snapshot = self.snapshots.current()
        if request_span is not None:
            trace.record(
                "engine.snapshot_pin",
                request_span.span_id,
                pin_started,
                time.time(),
                version=snapshot.version,
            )
        admitted = time.monotonic()
        admitted_wall = time.time()
        if deadline is None:
            deadline = self.config.default_deadline

        key = self._flight_key(snapshot, query, deadline, search_kwargs)
        future, leader = self._flights.join(key)
        if not leader:
            self._deduped.inc()
            mirrored = _mirror(future)
            if trace is not None:
                def finalize_joined(_done: Future) -> None:
                    trace.record(
                        "engine.execute",
                        request_span.span_id,
                        admitted_wall,
                        time.time(),
                        dedup="joined",
                    )
                    trace.end(request_span)
                mirrored.add_done_callback(finalize_joined)
            return mirrored

        task = self._make_task(snapshot, admitted, deadline, key, query,
                               search_kwargs, trace=trace,
                               request_span=request_span, profile=profile,
                               admitted_wall=admitted_wall)
        try:
            self.pool.try_submit(task, future=future)
        except PoolSaturatedError:
            self._flights.forget(key)
            self._shed.inc()
            error = EngineOverloadedError(
                f"request queue full ({self.config.queue_bound} pending); "
                "request shed"
            )
            self._abort_trace(trace, request_span, "shed")
            # Followers of this flight hold the same future: fail it, or
            # they would wait forever on a request that was never queued.
            future.set_exception(error)
            raise error from None
        except EngineStoppedError as stopped:
            self._flights.forget(key)
            self._abort_trace(trace, request_span, "stopped")
            future.set_exception(stopped)
            raise
        # Deduplicatable flights hand every caller (leader included) a
        # mirror: cancelling one caller's handle must abandon only that
        # caller, not the computation other callers share.  Non-dedup
        # requests keep the raw future — nobody shares it, so genuine
        # cancellation of queued work stays possible.
        return _mirror(future) if key is not None else future

    def search(
        self,
        query: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        **search_kwargs,
    ) -> List[Any]:
        """Blocking search through the engine; returns the answer list.

        ``timeout`` bounds the caller's wait; ``deadline`` bounds how
        long the request may sit in the queue before a worker starts it.
        """
        future = self.submit(query, deadline=deadline, **search_kwargs)
        return future.result(timeout=timeout).answers

    # -- write path -----------------------------------------------------------

    def mutate(self, fn: Callable[[Any], Any]) -> Any:
        """Apply a mutation batch and publish a new snapshot.

        ``fn`` receives a private fork of the current facade (use
        :class:`~repro.core.incremental.IncrementalBANKS` methods on
        it); in-flight and later searches each see exactly one
        consistent version.  Returns ``fn``'s result.  A facade that
        cannot fork is read-only: this raises
        :class:`~repro.errors.ServeError` and ``fn`` never runs.
        """
        result = self.snapshots.mutate(fn)
        self._mutations.inc()
        return result

    def apply_epochs(self, epochs) -> int:
        """Replay WAL epochs through :meth:`mutate` (a
        :class:`~repro.store.wal.ReplicaFollower` target): each poll
        batch publishes as one version."""
        return self.mutate(lambda facade: facade.apply_epochs(epochs))

    def mutate_batch(self, operations) -> Any:
        """Apply a sequence of mutation operations under one fork
        (:meth:`SnapshotStore.mutate_batch`); an empty sequence is
        free — no fork, no new version, no metrics noise."""
        operations = list(operations)
        results = self.snapshots.mutate_batch(operations)
        if operations:
            self._mutations.inc()
        return results

    # -- introspection --------------------------------------------------------

    @property
    def facade(self) -> Any:
        """The facade of the *current* snapshot (read-only by contract)."""
        return self.snapshots.current().facade

    @property
    def applied_epoch(self) -> int:
        """The WAL epoch the current facade has absorbed (0 for a
        facade that follows no log)."""
        return int(getattr(self.facade, "applied_epoch", 0) or 0)

    def _cache_hit_rate(self) -> float:
        cache = getattr(self.facade, "cache", None)
        stats = getattr(cache, "stats", None)
        return getattr(stats, "hit_rate", 0.0)

    # -- lifecycle ------------------------------------------------------------

    def stop(self, wait: bool = True) -> None:
        """Drain queued work and stop the workers; further submissions
        raise :class:`~repro.errors.EngineStoppedError`."""
        self.pool.stop(wait=wait)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- internals ------------------------------------------------------------

    def _flight_key(self, snapshot: Snapshot, query, deadline, search_kwargs):
        """The single-flight identity of a request, or ``None`` when the
        request must not be deduplicated.

        Mirrors :class:`~repro.core.cache.CachedBanks` conservatism:
        only the knobs whose ranking effect we can key on participate;
        anything else opts out.  The snapshot version is part of the
        key, so requests spanning a mutation never share results; the
        deadline is part of the key, so a lenient request never
        inherits a strict leader's expiry (and vice versa) — in
        practice requests share the config default, so dedup still
        collapses them.  Followers do share the *leader's admission
        clock*: a follower that joins late may see the flight expire
        before its own wait reached the deadline.  That is deliberate —
        expiry only fires when queue wait exceeds the deadline, i.e.
        under overload, where failing the whole flight early is
        conservative shedding, not lost work.
        """
        if not self.config.dedup:
            return None
        recognised = {"max_results", "scoring"}
        if set(search_kwargs) - recognised:
            return None
        try:
            query_key = _query_key(query)
        except Exception:
            return None  # unparseable here; let the search path report it
        return (
            snapshot.version,
            query_key,
            deadline,
            search_kwargs.get("max_results"),
            _scoring_key(search_kwargs.get("scoring")),
        )

    @staticmethod
    def _abort_trace(trace, request_span, reason: str) -> None:
        """End the request span of a request that never reached a
        worker, marking why."""
        if trace is None:
            return
        request_span.attrs["error"] = reason
        trace.end(request_span)

    def _make_task(self, snapshot, admitted, deadline, key, query,
                   search_kwargs, trace=None, request_span=None,
                   profile=None, admitted_wall=0.0):
        def task():
            try:
                if trace is not None:
                    # Queue wait: admission to this worker picking it up.
                    trace.record(
                        "engine.queue",
                        request_span.span_id,
                        admitted_wall,
                        time.time(),
                    )
                if (
                    deadline is not None
                    and time.monotonic() - admitted > deadline
                ):
                    self._expired.inc()
                    if trace is not None:
                        request_span.attrs["error"] = "deadline"
                    raise DeadlineExceededError(
                        f"deadline of {deadline:.3f}s lapsed before a "
                        "worker picked the request up"
                    )
                kwargs = search_kwargs
                execute_span = None
                if trace is not None:
                    execute_span = trace.begin(
                        "engine.execute", parent_id=request_span.span_id
                    )
                    kwargs = dict(search_kwargs)
                    kwargs["trace"] = trace
                    kwargs["trace_parent"] = execute_span.span_id
                if profile is not None:
                    if kwargs is search_kwargs:
                        kwargs = dict(search_kwargs)
                    kwargs["profile"] = profile
                try:
                    answers = snapshot.facade.search(query, **kwargs)
                except Exception as error:
                    self._errors.inc()
                    if execute_span is not None:
                        execute_span.attrs["error"] = type(error).__name__
                        trace.end(execute_span)
                        request_span.attrs["error"] = type(error).__name__
                    raise
                if execute_span is not None:
                    execute_span.attrs["answers"] = len(answers)
                    trace.end(execute_span)
                latency = time.monotonic() - admitted
                self._latency.observe(latency)
                self._latency_hist.observe(latency)
                self._completed.inc()
                return QueryOutcome(
                    answers, snapshot.version, latency, profile=profile
                )
            finally:
                if trace is not None:
                    trace.end(request_span)
                # Before the future resolves: a duplicate arriving after
                # this point must start a fresh flight, not latch onto a
                # finished one.
                self._flights.forget(key)

        return task

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngine(v{self.snapshots.version}, {self.pool!r}, "
            f"{self._completed.value} completed)"
        )
