"""The durable epoch log: write-ahead segments, recovery, replicas.

:class:`~repro.serve.snapshot.SnapshotStore` publishes every
snapshot as an :class:`~repro.store.log.Epoch` and keeps only the
newest in memory; this module is the epoch history.  It serialises
epochs to disk (the :class:`~repro.store.delta.Delta` records are
plain picklable data) for two consumers:

* **replay-from-disk recovery** —
  :meth:`~repro.core.incremental.IncrementalBANKS.recover` rebuilds
  the exact pre-crash facade from a base snapshot plus the WAL;
* **cross-process replicas** — a :class:`ReplicaFollower` in another
  process tails the WAL and keeps a read-only facade, an engine or a
  whole :class:`~repro.shard.router.ShardRouter` (anything with
  ``apply_epochs``) caught up by epoch.

Serving code gets its :class:`WalWriter` from :meth:`SnapshotStore.open
<repro.serve.snapshot.SnapshotStore.open>`.

On-disk format
--------------

A WAL is a directory of **segment** files named ``<first_epoch>.wal``
(zero-padded, so lexical order is epoch order).  A segment is a
sequence of records; each record is::

    <payload length: uint32 LE> <crc32(payload): uint32 LE> <payload>

where the payload is one pickled :class:`~repro.store.log.Epoch`.
Epoch numbers are strictly sequential across the whole log; the writer
enforces it on append and the reader verifies it on replay, so a hole
in history can never replay silently.

Durability and failure model
----------------------------

* ``fsync="always"`` (the default) flushes and fsyncs after every
  append — an acknowledged epoch survives power loss.
* ``fsync="rotate"`` fsyncs only when a segment closes — cheap, and
  bounded loss (at most the open segment's tail).
* ``fsync="never"`` leaves flushing to the OS — benchmarks only.

A crash mid-append leaves a **torn record** at the tail: a truncated
length prefix, a short payload, or a checksum mismatch.  The reader
treats any malformed record in the *final* segment as the torn tail
and stops at the last complete epoch — recovery never replays a
partial epoch.  A malformed record in a non-final segment means real
history is missing (not a torn tail), and raises
:class:`~repro.errors.WalError` instead of replaying past a hole.  The
writer repairs a torn tail on open (truncates to the last complete
record) so appends continue cleanly after a crash.

Retention is a window: with ``retain=N`` the writer deletes whole
segments whose newest epoch is older than ``last_epoch - N`` after
each append (segment-granular, so the window is a lower bound).  A
pruned WAL can still feed a replica that is inside the window; a
consumer reaching behind it gets :class:`~repro.errors.StoreError`
from :meth:`WalReader.entries_since`, and recovery-from-base refuses
it outright — both loud, never a silent gap.  The default
``retain=None`` keeps everything, which is what recovery from a base
snapshot needs.

With a ``checkpoint_path`` the writer additionally clamps the
retention horizon to the **checkpoint floor**: the newest epoch the
checkpoint directory's manifest records
(:func:`checkpoint_floor`; written by
:class:`~repro.ops.checkpoint.CheckpointManager`).  Epochs at or below
a durable checkpoint are re-based and safe to drop; epochs above it
are the replay tail recovery needs, and pruning them would make the
log unrecoverable — the old behaviour with ``retain`` alone, which is
why ``retain`` without checkpoints stays an explicit opt-in to bounded
recoverability.  When the floor holds the horizon back the writer
warns once (and again only after the floor advances), so a stalled
checkpointer shows up in logs instead of as silent disk growth.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import threading
import time
import warnings
import zlib
from typing import Any, List, Optional, Tuple

from repro.errors import StoreError, WalError
from repro.store.log import Epoch

#: ``<payload length> <crc32(payload)>``, little-endian.
_RECORD_HEADER = struct.Struct("<II")

_SEGMENT_SUFFIX = ".wal"

#: Accepted fsync policies (see module docstring).
FSYNC_POLICIES = ("always", "rotate", "never")

#: The checkpoint directory's manifest file (written atomically by
#: :class:`~repro.ops.checkpoint.CheckpointManager`; read here so the
#: store layer never imports the ops layer).
CHECKPOINT_MANIFEST = "MANIFEST.json"


def checkpoint_floor(checkpoint_path: Optional[str]) -> int:
    """The newest *manifested* checkpoint epoch under
    ``checkpoint_path`` — the retention prune floor.

    Conservative by construction: a missing directory, a missing
    manifest or an unreadable one all return 0 (nothing may be pruned),
    because the cost of a wrong floor is an unrecoverable log.  The
    manifest only ever names a checkpoint that was already durably
    renamed into place, so pruning up to its epoch is always safe.
    """
    if not checkpoint_path:
        return 0
    manifest = os.path.join(str(checkpoint_path), CHECKPOINT_MANIFEST)
    try:
        with open(manifest, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        epoch = record["checkpoint_epoch"]
    except (OSError, ValueError, KeyError, TypeError):
        return 0
    return int(epoch) if isinstance(epoch, int) and epoch > 0 else 0


def _segment_filename(first_epoch: int) -> str:
    return f"{first_epoch:012d}{_SEGMENT_SUFFIX}"


def _list_segments(path: str) -> List[Tuple[int, str]]:
    """``(first_epoch, absolute path)`` for every segment, in epoch
    order."""
    segments: List[Tuple[int, str]] = []
    for name in os.listdir(path):
        if not name.endswith(_SEGMENT_SUFFIX):
            continue
        stem = name[: -len(_SEGMENT_SUFFIX)]
        if not stem.isdigit():
            continue
        segments.append((int(stem), os.path.join(path, name)))
    segments.sort()
    return segments


def _encode_record(epoch: Epoch) -> bytes:
    payload = pickle.dumps(epoch, protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_segment(
    filepath: str, skip_records: int = 0
) -> Tuple[List[Epoch], int, Optional[str], int]:
    """Parse one segment; ``(epochs, valid_prefix_bytes, tear, skipped)``.

    ``tear`` describes the first malformed record (``None`` when the
    whole file parses); ``valid_prefix_bytes`` is where it starts — the
    truncation point that repairs the segment.

    The first ``skip_records`` records are frame-validated (length
    prefix and payload bounds) but neither checksummed nor unpickled —
    the epoch-number invariant (strictly sequential, first record named
    by the segment file) lets :meth:`WalReader.entries_since` skip the
    re-based prefix below a checkpoint without paying a decode per
    discarded record.  ``skipped`` is how many were actually present.
    """
    epochs: List[Epoch] = []
    with open(filepath, "rb") as handle:
        data = handle.read()
    offset = 0
    skipped = 0
    while offset < len(data):
        header_end = offset + _RECORD_HEADER.size
        if header_end > len(data):
            return epochs, offset, "truncated record header", skipped
        length, checksum = _RECORD_HEADER.unpack(data[offset:header_end])
        payload_end = header_end + length
        if payload_end > len(data):
            return epochs, offset, "truncated record payload", skipped
        if skipped < skip_records:
            skipped += 1
            offset = payload_end
            continue
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != checksum:
            return epochs, offset, "record checksum mismatch", skipped
        try:
            epoch = pickle.loads(payload)
        except Exception:
            return epochs, offset, "undecodable record payload", skipped
        if not isinstance(epoch, Epoch):
            return epochs, offset, "record is not an Epoch", skipped
        epochs.append(epoch)
        offset = payload_end
    return epochs, offset, None, skipped


def _complete_records(filepath: str) -> int:
    """Number of complete (frame- and checksum-valid) records in a
    segment, without decoding any payload.

    The epoch-number invariant (strictly sequential, first record
    named by the segment file) turns this count into the segment's
    epoch range — the :meth:`WalReader.last_epoch` probe needs nothing
    more.  A payload that checksums but would not unpickle still
    counts; only the decoding readers classify that deeper tear.
    """
    with open(filepath, "rb") as handle:
        data = handle.read()
    offset = 0
    count = 0
    total = len(data)
    while offset < total:
        header_end = offset + _RECORD_HEADER.size
        if header_end > total:
            break
        length, checksum = _RECORD_HEADER.unpack(data[offset:header_end])
        payload_end = header_end + length
        if payload_end > total:
            break
        if zlib.crc32(data[header_end:payload_end]) != checksum:
            break
        count += 1
        offset = payload_end
    return count


class WalReader:
    """Read-only view of a WAL directory.

    Safe to use concurrently with a live :class:`WalWriter` in another
    process: every read re-scans the directory, records are immutable
    once written, a torn tail (an append in progress) parses as "stop
    before it" — exactly the crash contract — and a segment pruned
    away between the directory listing and the read is retried against
    a fresh listing.

    Segments are append-only, so the reader caches each segment's
    complete-epoch range keyed by ``(path, size)`` — probes like
    :meth:`last_epoch` (a caught-up follower polls it constantly) cost
    one ``stat`` instead of a full parse.
    """

    def __init__(self, path: str):
        self.path = str(path)
        if not os.path.isdir(self.path):
            problem = (
                "is not a directory" if os.path.exists(self.path) else "does not exist"
            )
            raise StoreError(f"WAL directory {self.path!r} {problem}")
        #: ``(segment path, size) -> (first, last)`` complete epochs.
        self._ranges: dict = {}

    def _retry(self, read):
        """Run one read; on a concurrently pruned segment, re-list and
        try again before giving up loudly."""
        for _attempt in range(3):
            try:
                return read()
            except FileNotFoundError:
                continue
        raise StoreError(
            f"WAL at {self.path!r} is pruned faster than it can be "
            "read; rebuild from the current snapshot"
        )

    def _segment_range(self, filepath: str) -> Tuple[int, int]:
        """``(first, last)`` complete epoch numbers of one segment
        (``(0, 0)`` when it holds none), cached by file size — an
        append or a tail repair changes the size and invalidates.

        Counted, not decoded: the first epoch is the segment's
        filename and numbering is strictly sequential, so the range
        probe never pays a pickle per record."""
        size = os.path.getsize(filepath)
        key = (filepath, size)
        cached = self._ranges.get(key)
        if cached is None:
            stem = os.path.basename(filepath)[: -len(_SEGMENT_SUFFIX)]
            count = _complete_records(filepath)
            cached = (int(stem), int(stem) + count - 1) if count else (0, 0)
            if len(self._ranges) > 256:
                self._ranges.clear()
            self._ranges[key] = cached
        return cached

    # -- whole-log reads ------------------------------------------------------

    def read_all(self) -> List[Epoch]:
        """Every complete epoch on disk, oldest first.

        Tolerates a torn tail in the final segment (see the module
        docstring); raises :class:`~repro.errors.WalError` on a
        malformed record anywhere else, or on an epoch-number gap.
        """
        return self._retry(lambda: self._read(since=None))

    def entries_since(self, epoch: int) -> List[Epoch]:
        """Every complete epoch published after ``epoch``.

        Raises:
            StoreError: ``epoch + 1`` is older than the first retained
                epoch — the segments were pruned, and the consumer
                must rebuild from a current snapshot.
        """

        def read() -> List[Epoch]:
            if self._last_epoch() <= epoch:
                return []  # caught up: one stat, no parsing
            first = self._first_epoch()
            if first and epoch + 1 < first:
                raise StoreError(
                    f"epochs {epoch + 1}..{first - 1} were pruned from "
                    f"the WAL at {self.path!r}; rebuild from the "
                    "current snapshot"
                )
            return self._read(since=epoch)

        return self._retry(read)

    def _read(self, since: Optional[int]) -> List[Epoch]:
        segments = _list_segments(self.path)
        epochs: List[Epoch] = []
        previous: Optional[int] = None
        for position, (first_epoch, filepath) in enumerate(segments):
            final = position == len(segments) - 1
            # A later segment proves this one holds nothing wanted.
            if (
                since is not None
                and position + 1 < len(segments)
                and segments[position + 1][0] <= since + 1
            ):
                previous = segments[position + 1][0] - 1
                continue
            # Records below ``since`` inside this segment are re-based
            # history: frame-skip them (epochs are strictly sequential
            # and the first record's number is the segment's filename,
            # the same invariant the whole-segment skip above relies
            # on) instead of decoding and discarding each one.
            skip = 0
            if since is not None and first_epoch <= since:
                skip = since + 1 - first_epoch
            parsed, _valid_bytes, tear, skipped = _scan_segment(
                filepath, skip_records=skip
            )
            if tear is not None and not final:
                raise WalError(
                    f"segment {filepath!r} is corrupt mid-log ({tear}); "
                    "epochs after it cannot be replayed"
                )
            if skipped:
                previous = first_epoch + skipped - 1
            for epoch in parsed:
                if previous is not None and epoch.number != previous + 1:
                    raise WalError(
                        f"epoch gap in WAL at {self.path!r}: "
                        f"{previous} is followed by {epoch.number}"
                    )
                previous = epoch.number
                if since is None or epoch.number > since:
                    epochs.append(epoch)
        return epochs

    # -- cheap probes ---------------------------------------------------------

    def _first_epoch(self) -> int:
        for _first, filepath in _list_segments(self.path):
            first, _last = self._segment_range(filepath)
            if first:
                return first
        return 0

    def _last_epoch(self) -> int:
        for _first, filepath in reversed(_list_segments(self.path)):
            _first_number, last = self._segment_range(filepath)
            if last:
                return last
        return 0

    def first_epoch(self) -> int:
        """The oldest retained epoch number (0 when the log is empty)."""
        return self._retry(self._first_epoch)

    def last_epoch(self) -> int:
        """The newest complete epoch number (0 when the log is empty)."""
        return self._retry(self._last_epoch)

    def size_bytes(self) -> int:
        """Total bytes currently on disk across all segments."""
        total = 0
        for _first, filepath in _list_segments(self.path):
            try:
                total += os.path.getsize(filepath)
            except OSError:  # pruned between listing and stat
                continue
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalReader({self.path!r})"


class WalWriter:
    """Append-only writer over a WAL directory.

    Args:
        path: the WAL directory (created if missing).
        segment_bytes: rotate to a new segment once the current one
            reaches this size (checked before each append, so segments
            overshoot by at most one record).
        fsync: ``"always"`` | ``"rotate"`` | ``"never"`` (see the
            module docstring).
        retain: epochs kept behind the newest one; pruning drops
            whole segments only.  ``None`` (default) keeps everything —
            required for recovery from a base snapshot.
        checkpoint_path: the checkpoint directory whose manifest sets
            the prune floor (see :func:`checkpoint_floor`); retention
            never deletes epochs above the newest manifested
            checkpoint, so a ``retain`` window cannot make the log
            unrecoverable while checkpointing lags.

    Opening an existing directory resumes it: the torn tail of the
    last segment (if any) is truncated away and epoch numbering
    continues from the last complete record.
    """

    def __init__(
        self,
        path: str,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: str = "always",
        retain: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r} "
                f"(choose from {', '.join(FSYNC_POLICIES)})"
            )
        if segment_bytes < 1:
            raise StoreError("segment_bytes must be >= 1")
        if retain is not None and retain < 1:
            raise StoreError("retain must be >= 1 (or None to keep all)")
        self.path = str(path)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.retain = retain
        self.checkpoint_path = (
            str(checkpoint_path) if checkpoint_path is not None else None
        )
        self._floor_warned_at: Optional[int] = None
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as error:
            raise WalError(
                f"WAL directory {self.path!r} cannot be created ({error.strerror})"
            ) from None
        self._lock = threading.Lock()
        self._handle = None
        self._segment_size = 0
        self._segment_records = 0
        self.epochs_written = 0
        self.rotations = 0
        self.pruned_segments = 0
        self._resume()

    # -- resumption -----------------------------------------------------------

    def _resume(self) -> None:
        """Adopt the directory's state: find the last complete epoch,
        repair any torn tail, reopen the newest segment for append."""
        segments = _list_segments(self.path)
        self._last_epoch = 0
        self._bytes = 0
        for position, (first, filepath) in enumerate(segments):
            final = position == len(segments) - 1
            parsed, valid_bytes, tear, _skipped = _scan_segment(filepath)
            if tear is not None:
                if not final:
                    raise WalError(
                        f"segment {filepath!r} is corrupt mid-log ({tear}); "
                        "refusing to append after missing history"
                    )
                with open(filepath, "rb+") as handle:
                    handle.truncate(valid_bytes)
            if parsed:
                self._last_epoch = parsed[-1].number
            self._bytes += valid_bytes if final else os.path.getsize(filepath)
        if segments:
            _first, filepath = segments[-1]
            self._segment_path = filepath
            self._segment_size = os.path.getsize(filepath)
            parsed, _valid, _tear, _skipped = _scan_segment(filepath)
            self._segment_records = len(parsed)
            self._handle = open(filepath, "ab")
        else:
            self._segment_path = None

    # -- appending ------------------------------------------------------------

    @property
    def last_epoch(self) -> int:
        """The newest epoch this writer has durably appended."""
        return self._last_epoch

    @property
    def bytes_written(self) -> int:
        """Bytes currently on disk across all retained segments."""
        return self._bytes

    def append(self, epoch: Epoch) -> int:
        """Durably append one epoch; returns the bytes written.

        Raises :class:`~repro.errors.WalError` when ``epoch.number``
        is not exactly ``last_epoch + 1`` — the log never records a
        hole or a duplicate.
        """
        with self._lock:
            if epoch.number != self._last_epoch + 1:
                raise WalError(
                    f"epoch {epoch.number} does not follow "
                    f"{self._last_epoch}; the WAL only appends "
                    "sequential epochs"
                )
            if self._handle is None:
                if self._segment_path is None:
                    self._open_segment(epoch.number)
                else:  # reopened after close()
                    self._handle = open(self._segment_path, "ab")
            if self._segment_records and self._segment_size >= self.segment_bytes:
                self._rotate(epoch.number)
            record = _encode_record(epoch)
            self._handle.write(record)
            # Always flush to the OS (cross-process followers read the
            # file); the policy only decides whether to pay the fsync.
            self._handle.flush()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
            self._segment_size += len(record)
            self._segment_records += 1
            self._bytes += len(record)
            self._last_epoch = epoch.number
            self.epochs_written += 1
            if self.retain is not None:
                self._prune_locked()
            return len(record)

    def _open_segment(self, first_epoch: int) -> None:
        self._segment_path = os.path.join(self.path, _segment_filename(first_epoch))
        self._handle = open(self._segment_path, "ab")
        self._segment_size = 0
        self._segment_records = 0
        self._sync_directory()

    def _rotate(self, next_epoch: int) -> None:
        self._close_segment()
        self._open_segment(next_epoch)
        self.rotations += 1

    def _close_segment(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync in ("always", "rotate"):
            os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None

    def _sync_directory(self) -> None:
        """fsync the directory so segment creation/removal survives a
        crash (best-effort; not every platform allows it)."""
        if self.fsync == "never":
            return
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- retention ------------------------------------------------------------

    def _prune_locked(self) -> None:
        """Delete whole segments whose newest epoch is older than the
        retention horizon, clamped to the checkpoint floor (recovery
        must keep every epoch past the newest manifested checkpoint).
        The open segment is never pruned."""
        horizon = self._last_epoch - self.retain
        if self.checkpoint_path is not None:
            floor = checkpoint_floor(self.checkpoint_path)
            if floor < horizon:
                if self._floor_warned_at != floor:
                    self._floor_warned_at = floor
                    warnings.warn(
                        f"WAL retention wants to prune up to epoch "
                        f"{horizon} but the newest checkpoint covers "
                        f"only epoch {floor}; clamping — epochs "
                        f"{floor + 1}..{horizon} stay on disk until a "
                        "checkpoint re-bases them",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                horizon = floor
            else:
                self._floor_warned_at = None
        if horizon <= 0:
            return
        segments = _list_segments(self.path)
        removed = False
        for position, (first, filepath) in enumerate(segments):
            if filepath == self._segment_path:
                break
            # The next segment's first epoch bounds this segment's last.
            if position + 1 >= len(segments):
                break
            newest_here = segments[position + 1][0] - 1
            if newest_here > horizon:
                break
            self._bytes -= os.path.getsize(filepath)
            os.remove(filepath)
            self.pruned_segments += 1
            removed = True
        if removed:
            self._sync_directory()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._close_segment()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalWriter({self.path!r}, epoch={self._last_epoch}, "
            f"fsync={self.fsync})"
        )


class ReplicaFollower:
    """Tail a WAL and keep a replica caught up, epoch by epoch.

    The follower is the cross-process half of the replication story:
    the primary's :class:`~repro.serve.snapshot.SnapshotStore`
    appends every published epoch to a WAL; a follower in another
    process polls the directory and applies every new epoch to its
    ``target``.

    Args:
        wal: the WAL to tail — a :class:`WalReader` or directory path.
        target: anything with ``apply_epochs(epochs)`` — an
            :class:`~repro.core.incremental.IncrementalBANKS` replica,
            a :class:`~repro.shard.router.ShardRouter` (a replicated
            hot-shard deployment routes each delta to its owning
            shard), or a :class:`~repro.serve.engine.QueryEngine`
            (each poll batch publishes as one version, so replica
            readers keep snapshot isolation).
        metrics: optional :class:`~repro.serve.metrics.MetricsRegistry`
            to register the ``replica_lag_epochs`` gauge into.
        start_epoch: the epoch the target has already absorbed
            (defaults to the target's ``applied_epoch`` when it has
            one, else 0 — the base snapshot).

    A follower that sleeps past a pruned writer's retention window
    gets :class:`~repro.errors.StoreError` from :meth:`poll` — a loud
    "rebuild from a current snapshot" signal, never a silent gap.
    """

    def __init__(
        self,
        wal: Any,
        target: Any,
        metrics: Any = None,
        start_epoch: Optional[int] = None,
    ):
        self.reader = wal if isinstance(wal, WalReader) else WalReader(str(wal))
        self.target = target
        if start_epoch is None:
            start_epoch = int(getattr(target, "applied_epoch", 0) or 0)
        self.applied_epoch = start_epoch
        self.epochs_applied = 0
        self.deltas_applied = 0
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        # Polls are serialised: a background tail and a foreground
        # catch_up (e.g. a read-your-writes wait) must never both read
        # entries_since(applied) and double-apply the same epochs.
        self._poll_lock = threading.Lock()
        if metrics is not None:
            metrics.gauge(
                "replica_lag_epochs",
                "epochs the replica trails the WAL by",
                fn=self.lag_epochs,
            )

    # -- catching up ----------------------------------------------------------

    def poll(self) -> int:
        """Apply every epoch published since the last poll; returns
        how many were applied (0 = already caught up).  Thread-safe:
        concurrent polls serialise instead of double-applying."""
        with self._poll_lock:
            epochs = self.reader.entries_since(self.applied_epoch)
            if not epochs:
                return 0
            self.target.apply_epochs(epochs)
            self.applied_epoch = epochs[-1].number
            self.epochs_applied += len(epochs)
            self.deltas_applied += sum(len(e.deltas) for e in epochs)
            return len(epochs)

    def catch_up(
        self,
        to_epoch: int,
        timeout: float = 30.0,
        interval: float = 0.02,
    ) -> int:
        """Poll until ``applied_epoch >= to_epoch``; returns the lag
        left (0 on success).  Used by tests and the CLI self-check."""
        deadline = time.monotonic() + timeout
        while self.applied_epoch < to_epoch:
            if self.poll() == 0:
                if time.monotonic() > deadline:
                    break
                time.sleep(interval)
        return max(0, to_epoch - self.applied_epoch)

    def lag_epochs(self) -> int:
        """Epochs on disk the target has not absorbed yet."""
        return max(0, self.reader.last_epoch() - self.applied_epoch)

    # -- background tailing ---------------------------------------------------

    @property
    def tailing(self) -> bool:
        """Whether a background tailing thread is running."""
        return self._thread is not None

    def start(self, interval: float = 0.5) -> "ReplicaFollower":
        """Poll on a daemon thread every ``interval`` seconds until
        :meth:`stop`."""
        if self._thread is not None:
            raise StoreError("follower is already started")
        self._wake.clear()

        def tail() -> None:
            while not self._wake.wait(interval):
                try:
                    self.poll()
                except StoreError:  # pragma: no cover - needs pruned WAL race
                    # Behind the retention window: stop tailing; the
                    # lag gauge keeps reporting the distance.
                    break

        self._thread = threading.Thread(
            target=tail, name="wal-replica-follower", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._wake.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaFollower(epoch={self.applied_epoch}, "
            f"lag={self.lag_epochs()})"
        )
