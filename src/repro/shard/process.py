"""Process-backed shard workers: search beyond one GIL.

Pure-Python graph search does not parallelise across threads — the GIL
serialises every shard's CPU work, making a threaded scatter a work
*multiplier*, not a speedup.  This module runs each
:class:`~repro.shard.searcher.ShardSearcher` inside a forked child
process: the parent builds the graph, the partition and every
searcher first, then forks, so each child inherits the whole read-only
state copy-on-write and no per-shard serialisation or rebuild happens.

The parent-side :class:`ProcessShardWorker` exposes the searcher's
``resolve`` / ``search`` methods over a pipe; the calling thread blocks
in ``recv`` *with the GIL released*, so N shard processes genuinely
search N-way parallel on N cores.

Fork is a hard requirement (``spawn`` would re-import and rebuild the
world in every child): :func:`fork_available` gates the backend, and
the router falls back to in-process threads where fork is missing
(Windows) — identical results, no CPU scaling.

Fork safety: workers must be created *before* any thread is started
(forking a multi-threaded parent can clone held locks).  The router
observes this by forking workers before it constructs engines or pools.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import traceback
from typing import Any, List

from repro.errors import ShardError

#: Message telling a worker process to exit its loop.
_SHUTDOWN = None


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _serve_loop(searcher, connection) -> None:  # pragma: no cover - child
    """Child-process request loop (runs in the forked worker)."""
    # A terminal Ctrl-C signals the whole foreground process group;
    # shutdown is the parent's job (pipe sentinel, then SIGTERM), so
    # the worker ignores SIGINT instead of dying mid-request with a
    # KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is _SHUTDOWN:
            break
        method_name, args, kwargs = message
        try:
            method = getattr(searcher, method_name)
            connection.send((True, method(*args, **kwargs)))
        except Exception:
            connection.send((False, traceback.format_exc(limit=8)))
    connection.close()


class ProcessWorkerProxy:
    """Parent-side proxy for one forked request/response worker.

    The generic transport both the shard and the replica workers ride:
    each call is one request/response round-trip on a private pipe,
    serialised by a lock (one in-flight request per child process; the
    calling thread blocks in ``recv`` with the GIL released).
    Subclasses set :attr:`error_type` (what transport failures raise)
    and pass a human ``label`` (``"shard 3"``, ``"replica 1"``) for
    the messages.
    """

    #: Raised for transport-level failures (stopped proxy, dead child,
    #: remote traceback).
    error_type: type = ShardError

    def __init__(self, target: Any, label: str, name: str):
        if not fork_available():
            raise self.error_type(
                f"the process {label} worker needs the fork start method; "
                "use the thread backend on this platform"
            )
        self.label = label
        context = multiprocessing.get_context("fork")
        self._connection, child_connection = context.Pipe()
        self._process = context.Process(
            target=_serve_loop,
            args=(target, child_connection),
            name=name,
            daemon=True,
        )
        self._process.start()
        child_connection.close()
        self._lock = threading.Lock()
        self._stopped = False

    def _call(self, method_name: str, *args, **kwargs) -> Any:
        with self._lock:
            if self._stopped:
                raise self.error_type(f"{self.label} worker is stopped")
            try:
                self._connection.send((method_name, args, kwargs))
                ok, payload = self._connection.recv()
                died = None
            except (EOFError, OSError) as error:
                died = type(error).__name__
        # Raised outside the handler, so the error does not chain the pipe
        # error, whose frames hold the pickled request's buffer: a cycle
        # through a caught error would free that buffer out of order.
        if died is not None:
            raise self.error_type(f"{self.label} worker process died ({died})")
        if not ok:
            raise self.error_type(
                f"{self.label} search failed in worker:\n{payload}"
            )
        return payload

    # -- lifecycle ------------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the worker down; escalate to SIGTERM if it lingers."""
        with self._lock:
            if self._stopped:
                self._process.join(timeout)
                return
            self._stopped = True
            try:
                self._connection.send(_SHUTDOWN)
            except (OSError, BrokenPipeError):
                pass
            self._connection.close()
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout)

    @property
    def alive(self) -> bool:
        return self._process.is_alive() and not self._stopped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "dead"
        return f"{type(self).__name__}({self.label}, {state})"


class ProcessShardWorker(ProcessWorkerProxy):
    """Parent-side proxy for one forked shard worker.

    Exposes the searcher methods the router scatters to (one in-flight
    request per shard process — the shard engine in front of it runs
    one worker thread, matching one CPU-bound child).
    """

    def __init__(self, searcher):
        self.shard_id = searcher.shard_id
        super().__init__(
            searcher,
            label=f"shard {searcher.shard_id}",
            name=f"shard-worker-{searcher.shard_id}",
        )

    # -- the searcher surface the router scatters to --------------------------

    def resolve(self, query) -> List[set]:
        return self._call("resolve", query)

    def search(
        self, query=None, trace=None, trace_parent=None, profile=None, **kwargs
    ):
        """Search in the worker; carry the trace across the pipe.

        A live trace cannot cross the fork boundary, so the proxy ships
        the serialized context (``trace.ctx``) and ``profile=True``
        instead; the child-side searcher replies with an
        ``(answers, {"spans": ..., "profile": ...})`` envelope whose
        spans are absorbed (re-parented under ``trace_parent``) and
        whose counters merge into the caller's profile.
        """
        if trace is None and profile is None:
            return self._call("search", query, **kwargs)
        if trace is not None:
            kwargs["trace"] = trace.ctx(trace_parent)
        if profile is not None:
            kwargs["profile"] = True
        answers, obs = self._call("search", query, **kwargs)
        if trace is not None:
            trace.absorb(obs.get("spans") or [])
        if profile is not None:
            profile.merge_dict(obs.get("profile") or {})
        return answers

    def apply_delta(self, delta, owner: int) -> bool:
        """Replay one routed delta into the worker's private replica.

        Serialised with searches by the per-worker pipe lock, so the
        child applies it atomically between requests.
        """
        return self._call("apply_delta", delta, owner)

    def move_node(self, node, source: int, target: int) -> bool:
        """Replay one rebalance move into the worker's private replica
        (ownership set + index slice; same pipe serialisation as
        :meth:`apply_delta`)."""
        return self._call("move_node", node, source, target)
