"""Partitioned copy-on-write: the maps and heaps a publish forks.

Every write publishes a fork of the newest facade, so a fork must cost
what the write touches, not what the database holds.  A whole-dict copy
per fork is O(keys); a :class:`PartitionedMap` is instead
:data:`PARTITIONS` dicts, and forking it copies only the list of
partition references.  The first write into a partition after a fork
copies that one partition, shallowly — values stay shared, exactly as
they did under a whole-map copy.  A table heap follows the same rule
with :data:`CHUNK`-row chunks (:class:`repro.relational.table.Table`).

A key's partition is a pure function of the key: ``hash(key) & MASK``
by default, ``rid[1] & MASK`` (the slot bits) for ``(table, slot)``
row ids (:func:`by_slot`).  For an ``int`` key below ``2**61 - 1``,
``hash(key) & MASK`` is ``key & MASK``.  Per-row hot paths (bulk
loads, the search kernel) address ``parts[... & MASK]`` inline and
take ownership through :attr:`PartitionedMap.owned`, with no method
call per probe; everything else goes through the mapping methods.

Dependency-free on purpose: the relational, text and graph layers all
import it.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

#: Partitions per map: a fork copies this many references.
PARTITIONS = 256
#: ``key & MASK`` is an int key's partition.
MASK = PARTITIONS - 1
#: Rows per heap chunk; ``rid >> CHUNK_SHIFT`` is a row's chunk.
CHUNK_SHIFT = 8
CHUNK = 1 << CHUNK_SHIFT
#: ``rid & CHUNK_MASK`` is a row's position inside its chunk.
CHUNK_MASK = CHUNK - 1


def by_hash(key: Hashable) -> int:
    """The default partition of ``key``."""
    return hash(key) & MASK


def by_slot(rid: Tuple[str, int]) -> int:
    """The partition of a ``(table, slot)`` row id: its slot bits."""
    return rid[1] & MASK


def empty_parts() -> List[Dict[Any, Any]]:
    """:data:`PARTITIONS` fresh dicts, for a bulk build to fill."""
    return [{} for _ in range(PARTITIONS)]


class PartitionedMap:
    """A dict split into :data:`PARTITIONS` dicts; a fork costs
    :data:`PARTITIONS` references, whatever the number of keys.

    Attributes:
        parts: the partitions; ``parts[part_of(key)]`` holds ``key``.
        owned: ``owned[i]`` is set once this version may write
            ``parts[i]`` in place; a fork clears it on both sides.
        part_of: a key's partition number.
    """

    __slots__ = ("parts", "owned", "part_of")

    def __init__(
        self,
        part_of: Callable[[Any], int] = by_hash,
        parts: Optional[List[Dict[Any, Any]]] = None,
    ):
        self.part_of = part_of
        self.parts = empty_parts() if parts is None else parts
        self.owned = bytearray(b"\x01") * PARTITIONS

    def fork(self) -> "PartitionedMap":
        """A map sharing every partition with this one; whichever side
        writes a partition first copies it."""
        child = PartitionedMap.__new__(PartitionedMap)
        child.part_of = self.part_of
        child.parts = self.parts[:]
        child.owned = bytearray(PARTITIONS)
        self.owned = bytearray(PARTITIONS)
        return child

    def own(self, i: int) -> Dict[Any, Any]:
        """Partition ``i``, copied first unless this version owns it."""
        if self.owned[i]:
            return self.parts[i]
        part = self.parts[i] = self.parts[i].copy()
        self.owned[i] = 1
        return part

    # -- reads --------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self.parts[self.part_of(key)].get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self.parts[self.part_of(key)][key]

    def __contains__(self, key: Any) -> bool:
        return key in self.parts[self.part_of(key)]

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __bool__(self) -> bool:
        return any(self.parts)

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self.parts)

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return chain.from_iterable(part.items() for part in self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PartitionedMap):
            return self.parts == other.parts
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- writes -------------------------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        self.own(self.part_of(key))[key] = value

    def __delitem__(self, key: Any) -> None:
        i = self.part_of(key)
        if key not in self.parts[i]:
            raise KeyError(key)
        del self.own(i)[key]

    def pop(self, key: Any, default: Any = None) -> Any:
        i = self.part_of(key)
        if key not in self.parts[i]:
            return default
        return self.own(i).pop(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionedMap({len(self)} keys)"
