"""Heap table storage with RID addressing.

Tuples live in an append-only list; a tuple's RID (row identifier) is its
slot number in that list, which is exactly the addressing contract the
BANKS paper relies on: *"the in-memory node representation need not store
any attribute of the corresponding tuple other than the RID"*.  Deleting a
row leaves a tombstone so RIDs stay stable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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

    Maintains a hash index on the primary key (if one is declared) so that
    foreign-key checks and browsing lookups are O(1).
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._heap: List[Optional[Tuple[Any, ...]]] = []
        self._live_count = 0
        self._pk_positions: Tuple[int, ...] = tuple(
            schema.column_position(c) for c in schema.primary_key
        )
        self._pk_index: Dict[Tuple[Any, ...], int] = {}
        self._shared = False

    # -- copy-on-write forking ---------------------------------------------

    def fork(self) -> "Table":
        """A copy-on-write fork sharing this table's heap and PK index.

        Both sides keep reading the shared storage for free; whichever
        side mutates first takes a private copy of the heap and PK
        index (row tuples themselves are immutable and stay shared
        forever).  The snapshot store forks the newest version and
        never mutates published ones, so in practice only the fork
        pays the copy — and only if the batch touches this table.
        """
        child = Table(self.schema)
        child._heap = self._heap
        child._pk_index = self._pk_index
        child._live_count = self._live_count
        child._shared = True
        self._shared = True
        return child

    def _materialize(self) -> None:
        if self._shared:
            self._heap = list(self._heap)
            self._pk_index = dict(self._pk_index)
            self._shared = False

    def restore(self, heap: Sequence[Any]) -> None:
        """Adopt ``heap`` — a saved :attr:`_heap`: one value sequence
        per slot, ``None`` for a tombstone — and build the PK index in
        one pass.  Checks what :meth:`insert` enforces, without its
        coercion: each row's width, each value exactly its column's
        Python type or ``None``, NOT NULL, and primary keys non-NULL
        and unique.  Raises :class:`IntegrityError` on the first
        violation and leaves the table as it was."""
        name = self.schema.name
        columns = self.schema.columns
        expected = tuple(c.datatype.python_type for c in columns)
        if type(heap) is not list and type(heap) is not tuple:
            raise IntegrityError(f"{name}: {heap!r:.80} is not a heap")
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
        live = len(rows) - rows.count(None)
        positions = self._pk_positions
        index: Dict[Tuple[Any, ...], int] = {}
        if positions:
            index = {
                tuple([row[p] for p in positions]): slot
                for slot, row in enumerate(rows)
                if row is not None
            }
            if len(index) != live:
                raise IntegrityError(f"duplicate primary key in table {name!r}")
            if any(None in key for key in index):
                raise IntegrityError(f"primary key of {name!r} cannot be NULL")
        self._heap = rows
        self._pk_index = index
        self._live_count = live
        self._shared = False

    @property
    def next_rid(self) -> int:
        """The RID the next successful :meth:`insert` will assign."""
        return len(self._heap)

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Validate and append one tuple; return its RID."""
        self._materialize()
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
        row_tuple = tuple(coerced)

        if self._pk_positions:
            key = tuple(row_tuple[p] for p in self._pk_positions)
            if any(part is None for part in key):
                raise IntegrityError(
                    f"primary key of {self.schema.name!r} cannot be NULL"
                )
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            self._pk_index[key] = len(self._heap)

        rid = len(self._heap)
        self._heap.append(row_tuple)
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
        self._materialize()
        old_tuple = self._fetch(rid)
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
        new_tuple = tuple(coerced)

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
        self._heap[rid] = new_tuple

    def delete(self, rid: int) -> None:
        """Tombstone the row at ``rid`` (RIDs of other rows are unchanged)."""
        self._materialize()
        row_tuple = self._fetch(rid)
        if self._pk_positions:
            key = tuple(row_tuple[p] for p in self._pk_positions)
            self._pk_index.pop(key, None)
        self._heap[rid] = None
        self._live_count -= 1

    # -- access ------------------------------------------------------------

    def _fetch(self, rid: int) -> Tuple[Any, ...]:
        if rid < 0 or rid >= len(self._heap):
            raise IntegrityError(
                f"RID {rid} out of range for table {self.schema.name!r}"
            )
        row_tuple = self._heap[rid]
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
        return 0 <= rid < len(self._heap) and self._heap[rid] is not None

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

    def lookup_pk_rid(self, key: Tuple[Any, ...]) -> Optional[int]:
        """RID of the row with the given primary-key tuple, if present —
        the :meth:`lookup_pk` hash probe without building a :class:`Row`,
        for callers that only need the slot number."""
        if not self._pk_positions:
            raise IntegrityError(
                f"table {self.schema.name!r} has no primary key"
            )
        return self._pk_index.get(key)

    def scan(self) -> Iterator[Row]:
        """Yield every live row in RID order."""
        name = self.schema.name
        schema = self.schema
        for rid, row_tuple in enumerate(self._heap):
            if row_tuple is not None:
                yield Row(name, rid, row_tuple, schema)

    def rids(self) -> Iterator[int]:
        for rid, row_tuple in enumerate(self._heap):
            if row_tuple is not None:
                yield rid

    def __len__(self) -> int:
        return self._live_count

    def __iter__(self) -> Iterator[Row]:
        return self.scan()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.schema.name}, {self._live_count} rows)"
