"""Checkpointing: re-base the WAL so recovery is O(tail), not O(history).

:meth:`~repro.core.incremental.IncrementalBANKS.recover` replays the
WAL from the *base* snapshot — every epoch ever published.  A
checkpoint persists the facade's current database next to the WAL so
recovery (and :meth:`~repro.cluster.replicaset.ReplicaSet.heal`) can
start from it and replay only the epochs published since.

On-disk layout (the checkpoint directory: ``<wal>/checkpoints`` unless
configured — :func:`~repro.serve.snapshot.checkpoint_dir` picks it)::

    000000000042.ckpt    one checkpoint: <len u32 LE> <crc32 u32 LE>
                         <payload: one ASCII JSON object, format 2>
    MANIFEST.json        {"format": 2, "checkpoint_epoch": 42,
                          "file": "000000000042.ckpt"}

The payload (format 2) is the database's rows and nothing derived::

    {"format": 2, "epoch": 42, "name": "dblp",
     "schema": [TableSchema.to_document(), ...],
     "tables": {"author": [["a1", "grace hopper"], null, ...], ...}}

Each table is its heap as it stands: one array per RID, ``null`` for
a tombstone, so RIDs survive.  ``json.dumps`` with its default
``ensure_ascii`` writes every column type exactly — NaN, ±inf and -0.0
floats, big integers, booleans, NULLs, non-BMP and lone-surrogate
text — and keeps no memo over the rows it walks, so a checkpoint costs
about the size of its output in memory.  A manager keeps the text of
every heap chunk no table may write in place any more, so its next
checkpoint encodes only the chunks written since (:func:`_encode`).  Loading validates and rebuilds
in one bulk pass (:meth:`~repro.relational.database.Database.restore`):
row widths and value types, NOT NULL, unique primary keys, every
foreign key resolved; the PK indexes, the reverse-reference index and
the indegrees are derived again, not read.  Reverse-reference lists
therefore come back in table-major, RID order rather than write order.

The write protocol is crash-consistent at every step (proven by
``tests/ops/test_checkpoint_crash.py`` against every named step):

1. **serialize** — frame the JSON payload with a length + CRC32
   header (the WAL's record discipline: a torn or corrupt file is
   *detected*, never trusted);
2. **write** — write the frame to ``<file>.tmp`` and fsync it;
3. **rename** — atomically rename into place and fsync the directory
   (the checkpoint now exists or it does not — never half);
4. **manifest_write** / **manifest_rename** — record the checkpoint
   epoch in ``MANIFEST.json`` the same tmp-then-rename way.  The
   manifest is what :class:`~repro.store.wal.WalWriter` reads as its
   retention **prune floor**: segments holding epochs above the
   manifest epoch are never pruned, so the tail a checkpoint needs is
   always still on disk;
5. **prune** — drop checkpoint files older than the ``keep`` newest.

A crash between 3 and 4 leaves a newer checkpoint than the manifest
records: loading scans the files themselves (newest first, checksum
verified) and uses the manifest only as the conservative prune floor,
so that state recovers exactly too.  A file that fails any check is
skipped, never trusted and never fatal — recovery falls back to the
next older checkpoint, or to the base snapshot — and the skip is
recorded in :attr:`CheckpointManager.skipped` with its reason: ``crc``
(torn or corrupt frame), ``format`` (not a format-2 JSON document:
a format-1 file from an older release is skipped unread), ``schema``
(the schema documents do not describe a valid catalog) or
``integrity`` (rows that break it).

A manager creates its directory on the first write; reading a missing
one finds no checkpoint.  A store's one manager comes from
:meth:`SnapshotStore.open <repro.serve.snapshot.SnapshotStore.open>`.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import IntegrityError, SchemaError, StoreError
from repro.ops.faults import FaultInjector
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.store.wal import CHECKPOINT_MANIFEST, checkpoint_floor

#: ``<payload length> <crc32(payload)>``, little-endian — the WAL's
#: record framing, reused so torn checkpoints are detectable.
_FRAME = struct.Struct("<II")

_SUFFIX = ".ckpt"
_TEMP_SUFFIX = ".tmp"
_FORMAT = 2

#: The named interruption points of one checkpoint write, in protocol
#: order.  ``tests/ops`` iterates these; the manager calls
#: ``faults.step(name)`` immediately after each action completes.
CHECKPOINT_STEPS = (
    "serialize",
    "write",
    "rename",
    "manifest_write",
    "manifest_rename",
    "prune",
)


@dataclass(frozen=True)
class CheckpointRecord:
    """One durably written checkpoint.

    Attributes:
        epoch: the WAL epoch the checkpoint captures.
        path: the checkpoint file on disk.
        size_bytes: the framed file size.
        seconds: wall time the write took (serialize included).
    """

    epoch: int
    path: str
    size_bytes: int
    seconds: float


def _filename(epoch: int) -> str:
    return f"{epoch:012d}{_SUFFIX}"


def _list_checkpoints(path: str) -> List[Tuple[int, str]]:
    """``(epoch, absolute path)`` for every checkpoint file, newest
    first (by filename; the payload's own epoch is verified on load)."""
    found: List[Tuple[int, str]] = []
    if not os.path.isdir(path):
        return found  # created by the first write
    for name in os.listdir(path):
        if not name.endswith(_SUFFIX):
            continue
        stem = name[: -len(_SUFFIX)]
        if not stem.isdigit():
            continue
        found.append((int(stem), os.path.join(path, name)))
    found.sort(reverse=True)
    return found


def _encode(
    database: Database,
    epoch: int,
    texts: Optional[Dict[int, Tuple[list, str]]] = None,
) -> bytes:
    """The format-2 payload: the schema and every heap, as ASCII JSON.

    A heap is a list of row chunks (:class:`~repro.relational.table.Table`);
    each chunk is encoded on its own and spliced between the heap's
    brackets, so no heap is flattened into one list first.  The bytes
    are those of one ``json.dumps`` over the flat heaps.

    ``texts`` (``id(chunk) -> (chunk, text)``) carries encoded chunks
    from one payload to the next, and is replaced in place.  Only a
    chunk whose table may no longer write it in place (its ``_owned``
    flag is clear: a fork shares it, and a write copies it first) is
    kept, so a kept chunk never changes and its text is reused for as
    long as the heap still holds that chunk.  Between two checkpoints
    of a store only the chunks the writes copied are encoded again."""
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    previous = texts or {}
    shared: Dict[int, Tuple[list, str]] = {}

    def heap(table) -> str:
        parts = []
        for chunk, owned in zip(table._heap, table._owned):
            hit = previous.get(id(chunk))
            if hit is not None and hit[0] is chunk:
                text = hit[1]
            else:
                text = dumps(chunk)[1:-1]
            if not owned:
                shared[id(chunk)] = (chunk, text)
            parts.append(text)
        return "[" + ",".join(parts) + "]"

    head = dumps(
        {
            "format": _FORMAT,
            "epoch": int(epoch),
            "name": database.name,
            "schema": [table.to_document() for table in database.schema.tables()],
        }
    )
    tables = ",".join(
        dumps(table.schema.name) + ":" + heap(table) for table in database.tables()
    )
    if texts is not None:
        texts.clear()
        texts.update(shared)
    return (head[:-1] + ',"tables":{' + tables + "}}").encode("ascii")


def _read_checkpoint(
    filepath: str,
) -> Tuple[Optional[Tuple[int, Database]], Optional[str]]:
    """``((epoch, database), None)`` from one checkpoint file, or
    ``(None, reason)`` when the file must be skipped — never an
    exception: a bad checkpoint is skipped, not fatal.  ``reason`` is
    ``crc``, ``format``, ``schema`` or ``integrity`` (module
    docstring)."""
    try:
        with open(filepath, "rb") as handle:
            data = handle.read()
    except OSError:
        return None, "crc"
    if len(data) < _FRAME.size:
        return None, "crc"
    length, checksum = _FRAME.unpack(data[: _FRAME.size])
    payload = data[_FRAME.size : _FRAME.size + length]
    if len(payload) != length or zlib.crc32(payload) != checksum:
        return None, "crc"
    try:
        record = json.loads(payload)
    except (ValueError, RecursionError):
        return None, "format"
    if (
        not isinstance(record, dict)
        or record.get("format") != _FORMAT
        or type(record.get("epoch")) is not int
        or type(record.get("name")) is not str
        or not isinstance(record.get("schema"), list)
        or not isinstance(record.get("tables"), dict)
    ):
        return None, "format"
    try:
        schemas = [TableSchema.from_document(doc) for doc in record["schema"]]
        database = Database.restore(record["name"], schemas, record["tables"])
    except SchemaError:
        return None, "schema"
    except IntegrityError:
        return None, "integrity"
    return (record["epoch"], database), None


class CheckpointManager:
    """Writes, validates and loads checkpoints for one WAL.

    Args:
        path: the checkpoint directory (created by the first write).
        every: write a checkpoint every N epochs through
            :meth:`maybe_checkpoint` (0 disables the automatic cadence;
            explicit :meth:`checkpoint` always works).
        keep: newest checkpoint files retained after each write.
        fsync: pay the fsyncs (disable only for benchmarks, mirroring
            the WAL's ``fsync="never"``).
        faults: optional :class:`~repro.ops.faults.FaultInjector`; the
            manager announces every :data:`CHECKPOINT_STEPS` entry to
            it.
    """

    def __init__(
        self,
        path: str,
        every: int = 0,
        keep: int = 2,
        fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ):
        if every < 0:
            raise StoreError(f"checkpoint every must be >= 0, got {every}")
        if keep < 1:
            raise StoreError(f"checkpoint keep must be >= 1, got {keep}")
        self.path = str(path)
        self.every = every
        self.keep = keep
        self.fsync = fsync
        self.faults = faults
        self._lock = threading.Lock()
        self.checkpoints_written = 0
        self.last_error: Optional[BaseException] = None
        #: ``(path, reason)`` for each file the last :meth:`newest_valid`
        #: passed over (reasons: module docstring).
        self.skipped: List[Tuple[str, str]] = []
        #: Encoded heap chunks reused by the next checkpoint (:func:`_encode`).
        self._chunk_texts: Dict[int, Tuple[list, str]] = {}
        self._last_epoch = self.manifest_epoch()

    # -- manifest / inventory -------------------------------------------------

    def manifest_epoch(self) -> int:
        """The manifest's checkpoint epoch (0 when none) — the WAL's
        prune floor."""
        return checkpoint_floor(self.path)

    def checkpoint_epochs(self) -> List[int]:
        """Epochs with a checkpoint file on disk, newest first
        (unvalidated; loading verifies)."""
        return [epoch for epoch, _path in _list_checkpoints(self.path)]

    # -- writing --------------------------------------------------------------

    def checkpoint(self, facade: Any, epoch: int) -> CheckpointRecord:
        """Durably persist ``facade``'s database as the state at WAL
        ``epoch``; returns the record.  Raises on any IO failure (or
        injected fault) — nothing partial is ever visible under the
        final filename."""
        with self._lock:
            started = time.perf_counter()
            payload = _encode(facade.database, epoch, self._chunk_texts)
            frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            self._step("serialize")

            os.makedirs(self.path, exist_ok=True)
            final = os.path.join(self.path, _filename(epoch))
            self._write_file("write", final + _TEMP_SUFFIX, frame)
            os.replace(final + _TEMP_SUFFIX, final)
            self._sync_directory()
            self._step("rename")

            manifest = json.dumps(
                {
                    "format": _FORMAT,
                    "checkpoint_epoch": int(epoch),
                    "file": _filename(epoch),
                },
                indent=2,
                sort_keys=True,
            ).encode("utf-8")
            manifest_path = os.path.join(self.path, CHECKPOINT_MANIFEST)
            self._write_file(
                "manifest_write", manifest_path + _TEMP_SUFFIX, manifest
            )
            os.replace(manifest_path + _TEMP_SUFFIX, manifest_path)
            self._sync_directory()
            self._step("manifest_rename")

            self._prune(epoch)
            self._step("prune")

            self._last_epoch = max(self._last_epoch, int(epoch))
            self.checkpoints_written += 1
            return CheckpointRecord(
                epoch=int(epoch),
                path=final,
                size_bytes=len(frame),
                seconds=time.perf_counter() - started,
            )

    def maybe_checkpoint(
        self, facade: Any, epoch: int
    ) -> Optional[CheckpointRecord]:
        """Checkpoint when the cadence says so: ``every`` is set and at
        least ``every`` epochs passed since the last checkpoint.  A
        failure is recorded (:attr:`last_error`) and warned about, not
        raised — the publish that triggered it already succeeded
        durably, so serving must not fail over a background snapshot."""
        if not self.every or epoch - self._last_epoch < self.every:
            return None
        try:
            return self.checkpoint(facade, epoch)
        except BaseException as error:
            self.last_error = error
            warnings.warn(
                f"checkpoint at epoch {epoch} failed "
                f"({type(error).__name__}: {error}); recovery falls back "
                "to the previous checkpoint or the base snapshot",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    # -- loading --------------------------------------------------------------

    def newest_valid(self) -> Optional[Tuple[int, Database]]:
        """``(epoch, database)`` from the newest checkpoint that loads —
        files are scanned newest first and one that fails its checksum
        or its validation is skipped, so a crash mid-write costs at most
        one checkpoint interval of extra replay.  Every file passed over
        is listed, with its reason, in :attr:`skipped`."""
        self.skipped = []
        for _epoch, filepath in _list_checkpoints(self.path):
            loaded, reason = _read_checkpoint(filepath)
            if loaded is not None:
                return loaded
            self.skipped.append((filepath, reason))
        return None

    # -- internals ------------------------------------------------------------

    def _step(self, name: str) -> None:
        if self.faults is not None:
            self.faults.step(name)

    def _write_file(self, step: str, path: str, data: bytes) -> None:
        """Write ``data`` to ``path`` (fsynced), honouring a planned
        torn write: persist only the prefix, then crash."""
        torn = (
            self.faults.torn_bytes(step, len(data))
            if self.faults is not None
            else None
        )
        with open(path, "wb") as handle:
            handle.write(data if torn is None else data[:torn])
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        if torn is not None:
            raise FaultInjector.torn(step)
        self._step(step)

    def _sync_directory(self) -> None:
        if not self.fsync:
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

    def _prune(self, newest_epoch: int) -> None:
        """Drop checkpoints beyond the ``keep`` newest (never the one
        just written, never the manifest's), plus stale temp files."""
        kept = 0
        for epoch, filepath in _list_checkpoints(self.path):
            if epoch >= newest_epoch or kept < self.keep:
                kept += 1
                continue
            try:
                os.remove(filepath)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        for name in os.listdir(self.path):
            if name.endswith(_TEMP_SUFFIX):
                try:
                    os.remove(os.path.join(self.path, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointManager({self.path!r}, every={self.every}, "
            f"epoch={self._last_epoch})"
        )
