"""The :class:`Epoch`: one published snapshot version, as data.

Every version a :class:`~repro.serve.snapshot.SnapshotStore` publishes
is an **epoch**: a monotone number plus the tuple of
:class:`~repro.store.delta.Delta` records that produced it.  The store
appends each epoch to its WAL (:mod:`repro.store.wal`) before readers
see it and keeps only the newest one in memory; the WAL is the one
epoch history that recovery, replicas and shard routers read back
(:meth:`~repro.store.wal.WalReader.entries_since`).

Every WAL record pickles this class by its path,
``repro.store.log.Epoch``: moving it would make existing WAL
directories unreadable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.store.delta import Delta


@dataclass(frozen=True)
class Epoch:
    """One published version: its number and the deltas that made it."""

    number: int
    deltas: Tuple[Delta, ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Epoch({self.number}, {len(self.deltas)} delta(s))"
