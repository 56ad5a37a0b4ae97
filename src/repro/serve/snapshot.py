"""Snapshot isolation between searches and graph mutations.

:mod:`repro.core.incremental` mutates the data graph *in place* — safe
for one thread, catastrophic for a worker pool: Dijkstra iterators
observe half-applied deltas, scoring normalisers change mid-ranking.
The serving layer therefore never lets readers and the writer share a
facade.  :class:`SnapshotStore` implements multi-version concurrency
control with a single writer:

* readers call :meth:`current` and pin an immutable-by-contract
  snapshot for the whole search — publication is one reference
  assignment, so pinning is wait-free and never blocks the writer;
* the writer calls :meth:`mutate` with a function receiving a private
  writable version of the newest facade; when the function returns,
  that version is published as the next snapshot.

There is one write path.  The private version is a copy-on-write
*fork* (:meth:`~repro.core.incremental.IncrementalBANKS.fork`): all
graph adjacency, postings lists and table heaps are shared
structurally and only what the batch touches is copied — writes are
O(delta).  Every mutation's :class:`~repro.store.delta.Delta` is
captured, and each publish becomes one :class:`~repro.store.log.Epoch`,
appended to the WAL (when one is attached) before readers see it.  The
store keeps only the newest epoch in memory; the WAL is the history
(see :mod:`repro.store`).

A facade that cannot fork (``BANKS``, ``CachedBanks``, a shard worker)
is served read-only: searches and :meth:`SnapshotStore.republish`
work, :meth:`SnapshotStore.mutate` raises
:class:`~repro.errors.ServeError`.

A reader admitted before a publish keeps its old version until it
finishes; structural sharing makes old versions cheap to keep alive.
Writers are serialised by a lock, so versions advance linearly.

Every composer opens a durable store through :meth:`SnapshotStore.open`,
which recovers the facade from the log before continuing it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import BatchMutationError, ServeError
from repro.store.log import Epoch
from repro.store.wal import WalWriter

#: Methods a facade must offer to be written through the store.
_FORK_PROTOCOL = ("fork", "begin_delta_capture", "end_delta_capture")


def checkpoint_dir(wal_path, checkpoint_every=0, checkpoint_path=None) -> Optional[str]:
    """``checkpoint_path``, else ``<wal>/checkpoints`` when
    ``checkpoint_every`` is set; ``None``: the store takes none."""
    if checkpoint_path:
        return str(checkpoint_path)
    if checkpoint_every:
        return os.path.join(str(wal_path), "checkpoints")
    return None


@dataclass(frozen=True)
class Snapshot:
    """One published version: never mutated after publication."""

    version: int
    facade: Any


class SnapshotStore:
    """Single-writer / many-reader versioned store of BANKS facades.

    The fork dominates write cost, so the store meters it:
    :attr:`copies` counts forks taken and :attr:`copy_seconds`
    accumulates the time spent inside them — the engine surfaces both
    through its metrics registry (plus a histogram via
    :attr:`copy_observer`), making the write price visible before
    anyone tunes batch sizes against it.

    Args:
        facade: the version-0 facade (never mutated by the store).  A
            facade without ``fork`` and delta capture is read-only.
        wal: durable epoch log — a
            :class:`~repro.store.wal.WalWriter`; every published epoch
            is appended before it becomes visible, and epoch numbering
            resumes from the WAL's last record (recovery and replicas
            read it back; see :mod:`repro.store.wal`).  Needs a facade
            that can fork, at the log's last epoch (:meth:`open`
            recovers it so).
        checkpoints: optional
            :class:`~repro.ops.checkpoint.CheckpointManager`; after
            each publish the store offers the new facade to
            ``maybe_checkpoint`` (under the write lock, so the epoch
            and the facade state are always consistent), re-basing the
            WAL on the manager's cadence.  Checkpoint failures never
            fail the publish — it is already durable in the WAL.
    """

    def __init__(self, facade: Any, wal: Any = None, checkpoints: Any = None):
        self.writable = all(
            callable(getattr(facade, name, None)) for name in _FORK_PROTOCOL
        )
        if wal is not None and not self.writable:
            raise ServeError(
                "a WAL needs a facade that can fork and capture deltas "
                f"(IncrementalBANKS); {type(facade).__name__} is read-only"
            )
        if checkpoints is not None and wal is None:
            raise ServeError(
                "checkpoints re-base a WAL: attach one (wal=...) or "
                "drop the checkpoint manager"
            )
        self.checkpoints = checkpoints
        if wal is not None and wal.last_epoch != facade.applied_epoch:
            # Epochs derived from a facade behind the log would be
            # numbered after it and make the WAL unrecoverable.
            raise ServeError(
                f"the WAL at {wal.path!r} ends at epoch {wal.last_epoch} "
                f"but the facade is at epoch {facade.applied_epoch}; "
                "open a durable store with SnapshotStore.open"
            )
        #: The attached :class:`~repro.store.wal.WalWriter` (or None).
        self.wal = wal
        #: The newest published epoch number (0 = nothing published);
        #: resumes from the WAL, so a restart continues the sequence.
        self.epoch = self.wal.last_epoch if self.wal is not None else 0
        #: The newest published :class:`~repro.store.log.Epoch` — the
        #: only one held in memory (None until the first publish).
        self.published: Optional[Epoch] = None
        self.deltas_published = 0
        self._current = Snapshot(0, facade)
        self._write_lock = threading.Lock()
        self.copies = 0
        self.copy_seconds = 0.0
        #: Optional per-fork cost observer (the engine points this at
        #: a metrics histogram).
        self.copy_observer: Optional[Callable[[float], None]] = None

    @classmethod
    def open(
        cls,
        base: Any,
        wal_path: Any = None,
        *,
        fsync: str = "always",
        checkpoint_every: int = 0,
        checkpoint_path: Any = None,
    ) -> "SnapshotStore":
        """The durable store over ``wal_path`` (``None``: no log): the
        one place a WAL writer and a checkpoint manager meet a facade.

        ``base`` is the state before WAL epoch 1, a database or a
        callable returning one.  The facade is
        :meth:`~repro.core.incremental.IncrementalBANKS.recover`-ed —
        newest valid checkpoint plus WAL tail; a missing or empty log
        is ``base`` at epoch 0.  The store's one
        :class:`~repro.ops.checkpoint.CheckpointManager` feeds that
        recovery, writes every ``checkpoint_every`` epochs, and its
        directory (:func:`checkpoint_dir`) is the writer's prune floor.
        """
        from repro.core.incremental import IncrementalBANKS
        from repro.ops.checkpoint import CheckpointManager

        directory = checkpoint_dir(wal_path, checkpoint_every, checkpoint_path)
        checkpoints = (
            CheckpointManager(directory, every=checkpoint_every)
            if directory is not None
            else None
        )
        if wal_path is None:  # the store refuses checkpoints without a WAL
            base = base() if callable(base) else base
            return cls(IncrementalBANKS(base), checkpoints=checkpoints)
        # The writer first: it creates a missing directory and cuts a
        # torn tail, so recovery reads exactly the log it continues.
        wal = WalWriter(wal_path, fsync=fsync, checkpoint_path=directory)
        try:
            facade = IncrementalBANKS.recover(base, wal_path, checkpoints=checkpoints)
        except BaseException:
            wal.close()
            raise
        return cls(facade, wal=wal, checkpoints=checkpoints)

    def close(self) -> None:
        """Close the attached WAL writer, if any.  Whoever opened the
        store calls this once serving has stopped."""
        if self.wal is not None:
            self.wal.close()

    def current(self) -> Snapshot:
        """Pin the newest snapshot (wait-free)."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    @property
    def wal_epochs_written(self) -> int:
        return self.wal.epochs_written if self.wal is not None else 0

    @property
    def wal_bytes(self) -> int:
        return self.wal.bytes_written if self.wal is not None else 0

    # -- the write path ----------------------------------------------------------

    def mutate(self, fn: Callable[[Any], Any]) -> Any:
        """Apply ``fn`` to a private version of the newest facade, then
        publish it as the next version.  Returns ``fn``'s result.

        ``fn`` typically calls :class:`IncrementalBANKS` mutation
        methods (``insert`` / ``delete`` / ``update``); it may apply any
        number of them — the whole batch becomes visible atomically.
        If ``fn`` raises, nothing is published (the private version is
        discarded) and the exception propagates.

        Raises:
            ServeError: the facade cannot fork (``fn`` never runs).
        """
        self._require_writable()
        with self._write_lock:
            clone = self._fork()
            try:
                result = fn(clone)
            except BaseException:
                clone.end_delta_capture()
                raise
            self._publish_fork(clone)
            return result

    def mutate_batch(self, operations: Sequence[Callable[[Any], Any]]) -> List[Any]:
        """Apply a batch of mutation operations under *one* fork.

        The batch form exists because the fork is the dominant cost:
        N operations through :meth:`mutate` pay N forks, a batch pays
        one — and an **empty batch pays none**: no fork, no published
        version, readers completely undisturbed.  Returns the
        operations' results, in order.

        One batch is **one epoch**.  Everything downstream counts in
        epochs, so a bulk loader chunking records through this method
        (:mod:`repro.ingest` commits one chunk per call) should size
        its knobs accordingly: a
        :class:`~repro.ops.checkpoint.CheckpointManager` with
        ``every=E`` checkpoints every E *batches* (E x chunk_size
        records), not every E records, and a WAL ``retain=N`` window
        holds the last N *batch* epochs.  A long ingest cannot starve
        checkpointing or prune its own recovery tail: the checkpoint
        offer runs under the write lock after every publish, and the
        WAL's retention horizon is clamped to the checkpoint floor
        (:func:`~repro.store.wal.checkpoint_floor`), so epochs newer
        than the newest checkpoint are never dropped — proven by
        ``tests/ingest/test_checkpoint_cadence.py``.

        Raises:
            ServeError: the facade cannot fork (no operation runs).
            BatchMutationError: operation *k* raised.  The batch is
                rolled back explicitly — the private version (holding
                the effects of operations ``0..k-1``) is discarded,
                nothing is published, and the error carries the
                failing index plus the original exception as its
                cause.
        """
        self._require_writable()
        operations = list(operations)
        if not operations:
            return []
        with self._write_lock:
            clone = self._fork()
            results: List[Any] = []
            for position, operation in enumerate(operations):
                try:
                    results.append(operation(clone))
                except BaseException as error:
                    clone.end_delta_capture()
                    raise BatchMutationError(position, error) from error
            self._publish_fork(clone)
            return results

    def republish(self) -> Snapshot:
        """Publish a new version of the *same* facade, without a fork.

        The shard layer uses this to advance a shard engine's version
        after routing a delta into the worker's own state: the facade
        object is unchanged, but readers — and the single-flight dedup
        keyed on the version — must see a new epoch.
        """
        with self._write_lock:
            self._publish(self._current.facade, ())
            return self._current

    # -- internals ---------------------------------------------------------------

    def _require_writable(self) -> None:
        if not self.writable:
            raise ServeError(
                f"{type(self._current.facade).__name__} cannot fork, so "
                "this store is read-only; serve an IncrementalBANKS "
                "facade to write"
            )

    def _fork(self) -> Any:
        """A private writable version of the newest facade, metered,
        with delta capture running."""
        started = time.perf_counter()
        clone = self._current.facade.fork()
        elapsed = time.perf_counter() - started
        self.copy_seconds += elapsed
        self.copies += 1
        if self.copy_observer is not None:
            self.copy_observer(elapsed)
        clone.begin_delta_capture()
        return clone

    def _publish_fork(self, clone: Any) -> None:
        deltas = clone.end_delta_capture()
        # Make the new version read-only in practice: IncrementalBANKS
        # recomputes scoring normalisers lazily on the first search
        # after a mutation — a hidden write that would race between
        # concurrent readers, so force it before publication.
        refresh = getattr(clone, "_refresh_stats", None)
        if callable(refresh):
            refresh()
        self._publish(clone, deltas)

    def _publish(self, facade: Any, deltas: Sequence[Any]) -> None:
        """Number the epoch, make it durable, then swap the snapshot.

        Write-ahead: the epoch reaches the WAL *before* the swap makes
        it visible.  A reader can never observe an epoch a crash would
        lose, and a failed WAL append aborts the publish — the write
        raises and the fork is discarded, keeping live state and WAL in
        lockstep.  Called under the write lock.
        """
        epoch = Epoch(self.epoch + 1, tuple(deltas))
        if self.wal is not None:
            self.wal.append(epoch)
        self.epoch = epoch.number
        self.published = epoch
        self.deltas_published += len(epoch.deltas)
        self._current = Snapshot(self._current.version + 1, facade)
        if self.checkpoints is not None:
            # Still under the write lock: the database the manager
            # writes is exactly the state at this epoch.
            self.checkpoints.maybe_checkpoint(facade, epoch=self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotStore(version={self.version}, epoch={self.epoch})"
