"""Heap table storage with RID addressing.

Tuples live in an append-only heap; a tuple's RID (row identifier) is its
slot number in that heap, which is exactly the addressing contract the
BANKS paper relies on: *"the in-memory node representation need not store
any attribute of the corresponding tuple other than the RID"*.  Deleting a
row leaves a tombstone so RIDs stay stable.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.cow import CHUNK, CHUNK_MASK, CHUNK_SHIFT, MASK, PartitionedMap, empty_parts
from repro.errors import IntegrityError, TypeMismatchError, UnknownColumnError
from repro.relational.schema import TableSchema


class Row:
    """One tuple plus the metadata needed to interpret it.

    A lightweight view object: it shares the underlying value tuple with
    the table's heap (no copying) and exposes column access by name.
    """

    __slots__ = ("table_name", "rid", "values", "_schema")

    def __init__(
        self, table_name: str, rid: int, values: Tuple[Any, ...], schema: TableSchema
    ):
        self.table_name = table_name
        self.rid = rid
        self.values = values
        self._schema = schema

    def __getitem__(self, column_name: str) -> Any:
        return self.values[self._schema.column_position(column_name)]

    def get(self, column_name: str, default: Any = None) -> Any:
        if not self._schema.has_column(column_name):
            return default
        return self[column_name]

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self._schema.column_names, self.values))

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return (
            self.table_name == other.table_name
            and self.rid == other.rid
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.table_name, self.rid))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._schema.column_names, self.values)
        )
        return f"Row({self.table_name}:{self.rid} {pairs})"


class Table:
    """An append-only heap of tuples conforming to a :class:`TableSchema`.

    The heap is a list of :data:`~repro.cow.CHUNK`-row chunks: RID
    ``r`` lives at ``_heap[r >> CHUNK_SHIFT][r & CHUNK_MASK]``; every
    chunk but the last is full.  Maintains a hash index on the primary
    key (if one is declared) so that foreign-key checks and browsing
    lookups are O(1).
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._heap: List[List[Optional[Tuple[Any, ...]]]] = []
        # ``_owned[i]``: this version may write chunk ``i`` in place.
        self._owned = bytearray()
        self._slots = 0
        self._live_count = 0
        self._pk_positions: Tuple[int, ...] = tuple(
            schema.column_position(c) for c in schema.primary_key
        )
        self._pk_index = PartitionedMap()
        # Column positions -> key -> first live slot holding that key,
        # built on first use (:meth:`key_index`) and kept by every write.
        self._key_indexes: Dict[Tuple[int, ...], PartitionedMap] = {}
        # Each column's exact Python type: a row matching it needs no coercion.
        self._types = tuple(c.datatype.python_type for c in schema.columns)

    # -- copy-on-write forking ---------------------------------------------

    def fork(self) -> "Table":
        """A copy-on-write fork sharing this table's heap chunks and PK
        index partitions.

        Both sides keep reading the shared storage for free; whichever
        side writes a chunk or a partition first copies that one (row
        tuples themselves are immutable and stay shared forever).  The
        snapshot store forks the newest version and never mutates
        published ones, so in practice only the fork pays — and only
        for the chunks and partitions its batch touches.
        """
        child = Table.__new__(Table)
        child.schema = self.schema
        child._pk_positions = self._pk_positions
        child._types = self._types
        child._heap = self._heap[:]
        child._owned = bytearray(len(self._heap))
        self._owned = bytearray(len(self._heap))
        child._slots = self._slots
        child._live_count = self._live_count
        child._pk_index = self._pk_index.fork()
        child._key_indexes = {}
        for positions, index in self._key_indexes.items():
            child._key_indexes[positions] = index.fork()
        return child

    def _own_chunk(self, i: int) -> List[Optional[Tuple[Any, ...]]]:
        """Chunk ``i``, copied first unless this version owns it."""
        if self._owned[i]:
            return self._heap[i]
        chunk = self._heap[i] = self._heap[i][:]
        self._owned[i] = 1
        return chunk

    def restore(self, heap: Sequence[Any]) -> None:
        """Adopt ``heap`` — one value sequence per slot, ``None`` for a
        tombstone, as a checkpoint saves it — cutting it into chunks and
        building the PK index in one pass.  Checks what :meth:`insert`
        enforces, without its coercion: each row's width, each value
        exactly its column's Python type or ``None``, NOT NULL, and
        primary keys non-NULL and unique.  Raises
        :class:`IntegrityError` on the first violation and leaves the
        table as it was."""
        name = self.schema.name
        columns = self.schema.columns
        expected = self._types
        if type(heap) is not list and type(heap) is not tuple:
            raise IntegrityError(f"{name}: {heap!r:.80} is not a heap")
        positions = self._pk_positions
        key_of = itemgetter(*positions) if positions else None
        single = len(positions) == 1
        parts = empty_parts()
        rows: List[Optional[Tuple[Any, ...]]] = []
        for slot, values in enumerate(heap):
            if values is None:
                rows.append(None)
                continue
            if type(values) is not list and type(values) is not tuple:
                raise IntegrityError(
                    f"{name} slot {slot}: {values!r:.80} is not a row"
                )
            row = tuple(values)
            if tuple(map(type, row)) != expected:  # a NULL, or a bad row
                if len(row) != len(columns):
                    raise IntegrityError(
                        f"{name} slot {slot}: expected {len(columns)} values, "
                        f"got {len(row)}"
                    )
                for value, column, python_type in zip(row, columns, expected):
                    if type(value) is not python_type and (
                        value is not None or not column.nullable
                    ):
                        raise TypeMismatchError(
                            f"{name}.{column.name} slot {slot}: {value!r:.80} "
                            f"is not a{' NOT NULL' if value is None else ''} "
                            f"{python_type.__name__}"
                        )
            rows.append(row)
            if key_of is not None:
                key = (key_of(row),) if single else key_of(row)
                parts[hash(key) & MASK][key] = slot
        live = len(rows) - rows.count(None)
        if key_of is not None:
            if sum(map(len, parts)) != live:
                raise IntegrityError(f"duplicate primary key in table {name!r}")
            if any(None in key for part in parts for key in part):
                raise IntegrityError(f"primary key of {name!r} cannot be NULL")
        self._heap = [rows[i : i + CHUNK] for i in range(0, len(rows), CHUNK)]
        self._owned = bytearray(b"\x01") * len(self._heap)
        self._slots = len(rows)
        self._pk_index = PartitionedMap(parts=parts)
        self._key_indexes = {}
        self._live_count = live

    @property
    def next_rid(self) -> int:
        """The RID the next successful :meth:`insert` will assign."""
        return self._slots

    # -- mutation ----------------------------------------------------------

    def _coerce(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """``values`` validated against the schema: width, types, NOT NULL.
        A row of exactly the columns' Python types passes with one
        compare, as in :meth:`restore`; any other goes to the coercers."""
        values = tuple(values)
        if tuple(map(type, values)) == self._types:
            return values
        columns = self.schema.columns
        if len(values) != len(columns):
            raise IntegrityError(
                f"table {self.schema.name!r} expects {len(columns)} values, "
                f"got {len(values)}"
            )
        coerced: List[Any] = []
        for column, value in zip(columns, values):
            try:
                typed = column.datatype.validate(value)
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"{self.schema.name}.{column.name}: {exc}"
                ) from None
            if typed is None and not column.nullable:
                raise IntegrityError(
                    f"{self.schema.name}.{column.name} is NOT NULL"
                )
            coerced.append(typed)
        return tuple(coerced)

    def insert(self, values: Sequence[Any]) -> int:
        """Validate and append one tuple; return its RID."""
        row_tuple = self._coerce(values)
        rid = self._slots
        positions = self._pk_positions
        if positions:
            if len(positions) == 1:
                key = (row_tuple[positions[0]],)
            else:
                key = tuple([row_tuple[p] for p in positions])
            if None in key:
                raise IntegrityError(
                    f"primary key of {self.schema.name!r} cannot be NULL"
                )
            pk = self._pk_index
            i = hash(key) & MASK
            part = pk.parts[i]
            if key in part:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            if not pk.owned[i]:
                part = pk.parts[i] = part.copy()
                pk.owned[i] = 1
            part[key] = rid
        if self._key_indexes:
            self._rekey(rid, None, row_tuple)

        if rid & CHUNK_MASK:
            i = rid >> CHUNK_SHIFT
            chunk = self._heap[i]
            if not self._owned[i]:
                chunk = self._heap[i] = chunk[:]
                self._owned[i] = 1
            chunk.append(row_tuple)
        else:
            self._heap.append([row_tuple])
            self._owned.append(1)
        self._slots = rid + 1
        self._live_count += 1
        return rid

    def insert_dict(self, mapping: Mapping[str, Any]) -> int:
        """Insert from a column-name mapping; absent columns become NULL."""
        for column_name in mapping:
            if not self.schema.has_column(column_name):
                raise UnknownColumnError(self.schema.name, column_name)
        values = [mapping.get(name) for name in self.schema.column_names]
        return self.insert(values)

    def update(self, rid: int, values: Sequence[Any]) -> None:
        """Replace the tuple at ``rid`` in place (the RID is preserved).

        Validates types, NOT NULL and primary-key uniqueness exactly like
        :meth:`insert`; on any failure the old tuple is left untouched.
        """
        old_tuple = self._fetch(rid)
        new_tuple = self._coerce(values)

        if self._pk_positions:
            old_key = tuple(old_tuple[p] for p in self._pk_positions)
            new_key = tuple(new_tuple[p] for p in self._pk_positions)
            if any(part is None for part in new_key):
                raise IntegrityError(
                    f"primary key of {self.schema.name!r} cannot be NULL"
                )
            if new_key != old_key:
                if new_key in self._pk_index:
                    raise IntegrityError(
                        f"duplicate primary key {new_key!r} "
                        f"in table {self.schema.name!r}"
                    )
                del self._pk_index[old_key]
                self._pk_index[new_key] = rid
        if self._key_indexes:
            self._rekey(rid, old_tuple, new_tuple)
        self._own_chunk(rid >> CHUNK_SHIFT)[rid & CHUNK_MASK] = new_tuple

    def delete(self, rid: int) -> None:
        """Tombstone the row at ``rid`` (RIDs of other rows are unchanged)."""
        row_tuple = self._fetch(rid)
        if self._pk_positions:
            key = tuple(row_tuple[p] for p in self._pk_positions)
            self._pk_index.pop(key, None)
        if self._key_indexes:
            self._rekey(rid, row_tuple, None)
        self._own_chunk(rid >> CHUNK_SHIFT)[rid & CHUNK_MASK] = None
        self._live_count -= 1

    def _rekey(
        self,
        rid: int,
        old: Optional[Tuple[Any, ...]],
        new: Optional[Tuple[Any, ...]],
    ) -> None:
        """Keep every :meth:`key_index` right as the row at ``rid``
        changes from ``old`` to ``new`` (``None``: no row)."""
        for positions, index in self._key_indexes.items():
            old_key = None if old is None else tuple([old[p] for p in positions])
            new_key = None if new is None else tuple([new[p] for p in positions])
            if old_key == new_key:
                continue
            if old_key is not None and index.get(old_key) == rid:
                # The key's first row leaves it: the next live row
                # holding it, if any, is first now.
                later = islice(chain.from_iterable(self._heap), rid + 1, None)
                for slot, row in enumerate(later, rid + 1):
                    if row is not None and tuple([row[p] for p in positions]) == old_key:
                        index[old_key] = slot
                        break
                else:
                    del index[old_key]
            if new_key is not None:
                first = index.get(new_key)
                if first is None or rid < first:
                    index[new_key] = rid

    # -- access ------------------------------------------------------------

    def _fetch(self, rid: int) -> Tuple[Any, ...]:
        if rid < 0 or rid >= self._slots:
            raise IntegrityError(
                f"RID {rid} out of range for table {self.schema.name!r}"
            )
        row_tuple = self._heap[rid >> CHUNK_SHIFT][rid & CHUNK_MASK]
        if row_tuple is None:
            raise IntegrityError(
                f"RID {rid} of table {self.schema.name!r} was deleted"
            )
        return row_tuple

    def row(self, rid: int) -> Row:
        return Row(self.schema.name, rid, self._fetch(rid), self.schema)

    def values_at(self, rid: int) -> Tuple[Any, ...]:
        """The raw value tuple at ``rid`` — :meth:`row` without the
        :class:`Row` wrapper, for hot paths that index by position."""
        return self._fetch(rid)

    def has_rid(self, rid: int) -> bool:
        return (
            0 <= rid < self._slots
            and self._heap[rid >> CHUNK_SHIFT][rid & CHUNK_MASK] is not None
        )

    def lookup_pk(self, key: Sequence[Any]) -> Optional[Row]:
        """Fetch the row with the given primary-key value(s), if present."""
        if not self._pk_positions:
            raise IntegrityError(
                f"table {self.schema.name!r} has no primary key"
            )
        rid = self._pk_index.get(tuple(key))
        if rid is None:
            return None
        return self.row(rid)

    def key_index(self, positions: Tuple[int, ...]) -> PartitionedMap:
        """The values at ``positions`` of each live row -> the first
        (lowest) live slot holding them: what a non-primary-key foreign
        key resolves through.  Built on first use in one pass over the
        heap; every later write keeps it, so a probe stays O(1)."""
        index = self._key_indexes.get(positions)
        if index is None:
            parts = empty_parts()
            for slot, row in enumerate(chain.from_iterable(self._heap)):
                if row is not None:
                    key = tuple([row[p] for p in positions])
                    parts[hash(key) & MASK].setdefault(key, slot)
            index = self._key_indexes[positions] = PartitionedMap(parts=parts)
        return index

    def scan(self) -> Iterator[Row]:
        """Yield every live row in RID order."""
        name = self.schema.name
        schema = self.schema
        for rid, row_tuple in enumerate(chain.from_iterable(self._heap)):
            if row_tuple is not None:
                yield Row(name, rid, row_tuple, schema)

    def rids(self) -> Iterator[int]:
        for rid, row_tuple in enumerate(chain.from_iterable(self._heap)):
            if row_tuple is not None:
                yield rid

    def __len__(self) -> int:
        return self._live_count

    def __iter__(self) -> Iterator[Row]:
        return self.scan()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.schema.name}, {self._live_count} rows)"
