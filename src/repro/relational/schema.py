"""Schema objects: columns, tables, foreign keys and the database catalog.

The schema layer is deliberately explicit — BANKS derives its entire data
graph from this metadata (every foreign key becomes a pair of directed
edges), and the browsing subsystem derives its hyperlinks from it, so the
catalog is the single source of truth for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError
from repro.relational.types import BOOLEAN, INTEGER, REAL, TEXT, DataType

#: The canonical type names a schema document may use — strict, unlike
#: :func:`~repro.relational.types.type_from_name`'s sqlite affinity.
_DOCUMENT_TYPES = {t.name: t for t in (INTEGER, REAL, TEXT, BOOLEAN)}


@dataclass(frozen=True)
class Column:
    """A typed, optionally NOT NULL column."""

    name: str
    datatype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key from one table's columns to another table's key.

    Attributes:
        source_table: referencing table name.
        source_columns: referencing column names (composite keys allowed).
        target_table: referenced table name.
        target_columns: referenced column names, typically the primary key.
    """

    source_table: str
    source_columns: Tuple[str, ...]
    target_table: str
    target_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.source_columns) != len(self.target_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.source_columns} -> {self.target_columns}"
            )
        if not self.source_columns:
            raise SchemaError("foreign key must reference at least one column")

    @property
    def name(self) -> str:
        """A stable human-readable identifier for this constraint."""
        src = ",".join(self.source_columns)
        tgt = ",".join(self.target_columns)
        return f"{self.source_table}({src})->{self.target_table}({tgt})"


class TableSchema:
    """The definition of one table: columns, primary key, foreign keys."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name: {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self._column_index: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._column_index:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self._column_index[column.name] = position

        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        for key_column in self.primary_key:
            if key_column not in self._column_index:
                raise UnknownColumnError(name, key_column)

        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            if fk.source_table != name:
                raise SchemaError(
                    f"foreign key {fk.name} declared on wrong table {name!r}"
                )
            for source_column in fk.source_columns:
                if source_column not in self._column_index:
                    raise UnknownColumnError(name, source_column)

    # -- column access ----------------------------------------------------

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def has_column(self, column_name: str) -> bool:
        return column_name in self._column_index

    def column_position(self, column_name: str) -> int:
        """Ordinal position of ``column_name`` or raise."""
        try:
            return self._column_index[column_name]
        except KeyError:
            raise UnknownColumnError(self.name, column_name) from None

    def column(self, column_name: str) -> Column:
        return self.columns[self.column_position(column_name)]

    def text_columns(self) -> List[Column]:
        """Columns whose values are searchable text (used by indexing)."""
        return [c for c in self.columns if c.datatype.name == "TEXT"]

    # -- plain document ---------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """This table as plain JSON-ready data; :meth:`from_document`
        reads it back."""
        return {
            "name": self.name,
            "columns": [
                [c.name, c.datatype.name, c.nullable] for c in self.columns
            ],
            "primary_key": list(self.primary_key),
            "foreign_keys": [
                [list(fk.source_columns), fk.target_table, list(fk.target_columns)]
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_document(cls, document: Any) -> "TableSchema":
        """The table a :meth:`to_document` dict describes.  Any other
        shape — a missing field, an unknown type name, a non-string
        name — raises :class:`SchemaError`, so untrusted documents can
        be read without guarding against stray exceptions."""
        try:
            name = document["name"]
            columns = [
                Column(_text(column), _DOCUMENT_TYPES[datatype], _flag(nullable))
                for column, datatype, nullable in document["columns"]
            ]
            primary_key = [_text(c) for c in document["primary_key"]]
            foreign_keys = [
                ForeignKey(
                    _text(name),
                    tuple(_text(c) for c in source),
                    _text(target),
                    tuple(_text(c) for c in target_columns),
                )
                for source, target, target_columns in document["foreign_keys"]
            ]
            return cls(_text(name), columns, primary_key, foreign_keys)
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            raise SchemaError(
                f"malformed table document ({type(error).__name__}: {error})"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name} {c.datatype.name}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


def _text(value: Any) -> str:
    if type(value) is not str:
        raise SchemaError(f"schema document: expected a name, got {value!r}")
    return value


def _flag(value: Any) -> bool:
    if type(value) is not bool:
        raise SchemaError(f"schema document: expected a flag, got {value!r}")
    return value


class DatabaseSchema:
    """The catalog: a named collection of :class:`TableSchema` objects.

    Validates referential structure eagerly — every foreign key must point
    at an existing table/columns by the time :meth:`validate` runs (the
    :class:`repro.relational.database.Database` calls it on every DDL
    change).
    """

    def __init__(self, tables: Iterable[TableSchema] = ()):
        self._tables: Dict[str, TableSchema] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: TableSchema) -> None:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def drop_table(self, table_name: str) -> None:
        if table_name not in self._tables:
            raise UnknownTableError(table_name)
        for other in self._tables.values():
            if other.name == table_name:
                continue
            for fk in other.foreign_keys:
                if fk.target_table == table_name:
                    raise SchemaError(
                        f"cannot drop {table_name!r}: referenced by {fk.name}"
                    )
        del self._tables[table_name]

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def has_table(self, table_name: str) -> bool:
        return table_name in self._tables

    def table(self, table_name: str) -> TableSchema:
        try:
            return self._tables[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    def tables(self) -> List[TableSchema]:
        return list(self._tables.values())

    def foreign_keys(self) -> List[ForeignKey]:
        """All foreign keys in the catalog, in declaration order."""
        keys: List[ForeignKey] = []
        for table in self._tables.values():
            keys.extend(table.foreign_keys)
        return keys

    def references_to(self, table_name: str) -> List[ForeignKey]:
        """Foreign keys *into* ``table_name`` (used for reverse browsing)."""
        return [fk for fk in self.foreign_keys() if fk.target_table == table_name]

    def validate(self) -> None:
        """Check cross-table consistency of every foreign key."""
        for table in self._tables.values():
            for fk in table.foreign_keys:
                if fk.target_table not in self._tables:
                    raise UnknownTableError(fk.target_table)
                target = self._tables[fk.target_table]
                for target_column in fk.target_columns:
                    if not target.has_column(target_column):
                        raise UnknownColumnError(fk.target_table, target_column)
                for source_column, target_column in zip(
                    fk.source_columns, fk.target_columns
                ):
                    source_type = table.column(source_column).datatype
                    target_type = target.column(target_column).datatype
                    if source_type.name != target_type.name:
                        raise SchemaError(
                            f"foreign key {fk.name} joins incompatible types "
                            f"{source_type.name} and {target_type.name}"
                        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatabaseSchema({', '.join(self._tables)})"
