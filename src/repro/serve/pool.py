"""A bounded worker pool: the engine's unit of concurrency.

``concurrent.futures.ThreadPoolExecutor`` queues work unboundedly —
useless for admission control, where "the queue is full" must be an
observable, immediate signal.  :class:`WorkerPool` instead couples a
fixed set of worker threads to a *bounded* ``queue.Queue``:

* :meth:`WorkerPool.try_submit` never blocks — a full queue raises
  :class:`~repro.errors.PoolSaturatedError`, which the engine's
  admission controller turns into load shedding;
* :meth:`WorkerPool.submit` blocks until a slot frees (back-pressure);
* :meth:`WorkerPool.map` fans a function over items and gathers results
  in order — used by the federation layer to resolve sub-queries of
  every member database concurrently.

Results travel through :class:`concurrent.futures.Future`, so callers
get timeouts, exceptions and completion callbacks for free.
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import EngineStoppedError, PoolSaturatedError, ServeError

#: Sentinel telling a worker thread to exit its loop.
_POISON = object()


class WorkerPool:
    """Fixed worker threads draining one bounded task queue.

    Args:
        workers: number of worker threads (>= 1).
        queue_bound: maximum queued (not yet running) tasks; 0 means
            unbounded (no admission control at this layer).
        name: thread name prefix (visible in debuggers / faulthandler).
    """

    _counter = itertools.count(1)

    def __init__(self, workers: int = 4, queue_bound: int = 64, name: str = "serve"):
        if workers < 1:
            raise ServeError("worker pool needs at least 1 worker")
        if queue_bound < 0:
            raise ServeError("queue bound must be >= 0 (0 = unbounded)")
        self.workers = workers
        self.queue_bound = queue_bound
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_bound)
        self._stopped = threading.Event()
        pool_id = next(self._counter)
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{name}-{pool_id}-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------

    def _make_task(self, fn, args, kwargs, future: Optional[Future]):
        if self._stopped.is_set():
            raise EngineStoppedError("worker pool is stopped")
        return (future if future is not None else Future(), fn, args, kwargs)

    def try_submit(
        self,
        fn: Callable,
        *args,
        future: Optional[Future] = None,
        **kwargs,
    ) -> Future:
        """Enqueue without blocking; raise
        :class:`~repro.errors.PoolSaturatedError` when the queue is at
        its bound.  ``future``, when given, is resolved in place of a
        fresh one (the engine shares one future among deduplicated
        requests).
        """
        task = self._make_task(fn, args, kwargs, future)
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            raise PoolSaturatedError(
                f"task queue full ({self.queue_bound} pending)"
            ) from None
        return task[0]

    def submit(
        self,
        fn: Callable,
        *args,
        future: Optional[Future] = None,
        **kwargs,
    ) -> Future:
        """Enqueue, blocking until a queue slot is free (back-pressure)."""
        task = self._make_task(fn, args, kwargs, future)
        self._queue.put(task)
        if self._stopped.is_set():
            # stop() raced us between the check and the put; if the
            # workers are already gone, this task sits behind the
            # poison pills — fail it rather than strand its future.
            self._drain_stranded()
        return task[0]

    def map(self, fn: Callable, items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item concurrently; results in order.

        Blocks for queue slots (never sheds), so it is safe for
        arbitrarily long item sequences; re-raises the first exception.

        Called from one of this pool's own workers (e.g. a federated
        search fanning out sub-queries while itself running on the
        serving engine's pool), items run inline instead: blocking a
        worker on futures only other workers can run would deadlock
        once every worker does it.
        """
        if threading.current_thread() in self._threads:
            return [fn(item) for item in items]
        futures = [self.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    # -- introspection --------------------------------------------------------

    @property
    def depth(self) -> int:
        """Tasks admitted but not yet picked up by a worker."""
        return self._queue.qsize()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    # -- lifecycle ------------------------------------------------------------

    def stop(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join the workers.

        Already-queued tasks still run; a poison pill per worker follows
        them through the queue.  With ``wait=True`` (the default), any
        task that raced past the stopped check and landed *behind* the
        pills — which no worker will ever drain — has its future failed
        instead of left pending forever.  ``wait=False`` leaves that
        narrow race open; use it only when the process is exiting.
        """
        if self._stopped.is_set():
            if wait:
                for thread in self._threads:
                    thread.join()
                self._drain_stranded()
            return
        self._stopped.set()
        for _ in self._threads:
            self._queue.put(_POISON)
        if wait:
            for thread in self._threads:
                thread.join()
            self._drain_stranded()

    def _drain_stranded(self) -> None:
        """Fail tasks stuck behind the poison pills (workers all gone)."""
        if any(thread.is_alive() for thread in self._threads):
            return
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                return
            if task is _POISON:
                continue
            future = task[0]
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    EngineStoppedError("worker pool stopped before task ran")
                )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- worker loop ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            if task is _POISON:
                return
            future, fn, args, kwargs = task
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:  # noqa: BLE001 - forwarded
                future.set_exception(error)
            else:
                future.set_result(result)
            # Drop the task before blocking for the next one: a search
            # task's closure pins the snapshot it read, so a worker that
            # held it until its next task would keep a superseded
            # version alive, and that next task would pay for freeing it.
            task = future = fn = args = kwargs = result = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self.stopped else "running"
        return (
            f"WorkerPool({self.workers} workers, "
            f"depth={self.depth}/{self.queue_bound or '∞'}, {state})"
        )
