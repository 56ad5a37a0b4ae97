"""Import any sqlite3 database into a :class:`repro.relational.Database`.

This adapter is the reproduction's counterpart of the paper's JDBC layer:
*"The BANKS system is developed in Java using servlets and JDBC, and can
be run on any schema without any programming."*  Point
:func:`load_sqlite` at a sqlite file (or an open connection) and you get
a fully-catalogued database — tables, primary keys, foreign keys and all
rows — ready for :class:`repro.core.banks.BANKS`.

``sqlite3`` is also the one SQL engine: :func:`load_sql` runs a script
(test fixtures, a CSV directory's ``_schema.sql``, the examples) in an
in-memory sqlite database and loads that the same way, and
:func:`create_table_sql` is the one DDL writer for both dump formats.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import IntegrityError, ReproError, SchemaError
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import type_from_name


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _quote_all(identifiers: Sequence[str]) -> str:
    return ", ".join(_quote(identifier) for identifier in identifiers)


def _table_names(connection: sqlite3.Connection) -> List[str]:
    cursor = connection.execute(
        "SELECT name FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
    )
    return [row[0] for row in cursor.fetchall()]


def _columns_of(
    connection: sqlite3.Connection, table_name: str
) -> Tuple[List[Column], List[str]]:
    columns: List[Column] = []
    primary_key: List[Tuple[int, str]] = []
    cursor = connection.execute(f"PRAGMA table_info({_quote(table_name)})")
    for _cid, name, declared_type, notnull, _default, pk_position in cursor:
        datatype = type_from_name(declared_type or "TEXT")
        columns.append(Column(name, datatype, nullable=not notnull and not pk_position))
        if pk_position:
            primary_key.append((pk_position, name))
    primary_key.sort()
    return columns, [name for _, name in primary_key]


def _foreign_keys_of(
    connection: sqlite3.Connection, table_name: str
) -> List[ForeignKey]:
    """Read sqlite's foreign_key_list pragma, grouping composite keys.

    The pragma numbers keys from the last declared, so they are returned
    by descending id: in declaration order, as the DDL wrote them.
    """
    grouped: Dict[int, Dict[str, object]] = {}
    cursor = connection.execute(f"PRAGMA foreign_key_list({_quote(table_name)})")
    for fk_id, seq, target_table, source_col, target_col, *_rest in cursor:
        entry = grouped.setdefault(
            fk_id, {"target": target_table, "pairs": []}
        )
        entry["pairs"].append((seq, source_col, target_col))
    keys: List[ForeignKey] = []
    for _fk_id, entry in sorted(grouped.items(), reverse=True):
        pairs = sorted(entry["pairs"])  # type: ignore[arg-type]
        source_columns = tuple(source for _seq, source, _target in pairs)
        target_columns = tuple(target for _seq, _source, target in pairs)
        if any(target is None for target in target_columns):
            # `REFERENCES t` without explicit columns: resolve to t's PK.
            pk_cursor = connection.execute(
                f"PRAGMA table_info({_quote(str(entry['target']))})"
            )
            pk = sorted(
                (row[5], row[1]) for row in pk_cursor if row[5]
            )
            target_columns = tuple(name for _, name in pk)
            if len(target_columns) != len(source_columns):
                raise SchemaError(
                    f"cannot resolve implicit FK targets for {table_name!r}"
                )
        keys.append(
            ForeignKey(
                table_name,
                source_columns,
                str(entry["target"]),
                target_columns,
            )
        )
    return keys


def load_sqlite(
    source: Union[str, sqlite3.Connection], name: Optional[str] = None
) -> Database:
    """Build a :class:`Database` mirroring the sqlite database ``source``.

    Tables are read in creation order, so a :func:`dump_to_sqlite` round
    trip keeps table (and thus node-id) order.  Rows come in sqlite's
    storage order: insertion order, except that a table keyed by one
    ``INTEGER PRIMARY KEY`` column is stored, and so loaded, in key
    order.  Rows load with deferred foreign-key checks; every key is
    then re-validated, so a dangling reference raises
    :class:`IntegrityError` here.

    Args:
        source: a path, opened read-only (a missing file raises
            :class:`ReproError` and is not created), or an open sqlite3
            connection (including ``":memory:"`` databases under test).
        name: name for the resulting database; defaults to ``"sqlite"``.
    """
    if isinstance(source, sqlite3.Connection):
        connection, owned = source, False
    else:
        uri = Path(source).resolve().as_uri() + "?mode=ro"
        try:
            connection = sqlite3.connect(uri, uri=True)
        except sqlite3.Error as exc:
            raise ReproError(f"cannot open sqlite database {source!r}: {exc}") from exc
        owned = True
    try:
        database = Database(name or "sqlite", deferred_fk_check=True)
        try:
            table_names = _table_names(connection)
        except sqlite3.Error as exc:
            raise ReproError(f"cannot read sqlite database {source!r}: {exc}") from exc

        schemas = []
        for table_name in table_names:
            columns, primary_key = _columns_of(connection, table_name)
            foreign_keys = _foreign_keys_of(connection, table_name)
            schemas.append(
                TableSchema(table_name, columns, primary_key, foreign_keys)
            )
        database.create_tables(schemas)

        for table_name in table_names:
            cursor = connection.execute(f"SELECT * FROM {_quote(table_name)}")
            for values in cursor:
                database.insert(table_name, list(values))

        database.check_integrity()
        return database
    finally:
        if owned:
            connection.close()


def load_sql(script: str, name: Optional[str] = None) -> Database:
    """Run a SQL ``script`` in an in-memory sqlite database and load it.

    The script is whatever sqlite accepts (DDL and INSERTs, typically);
    the result is :func:`load_sqlite` of that database.  A constraint
    sqlite enforces (NOT NULL, a duplicate key) raises
    :class:`IntegrityError`, as does a dangling foreign key or a value
    the column type refuses once loaded; any other sqlite error (bad
    syntax, an unknown table) raises :class:`SchemaError`.
    """
    connection = sqlite3.connect(":memory:")
    try:
        try:
            connection.executescript(script)
        except sqlite3.IntegrityError as exc:
            raise IntegrityError(str(exc)) from exc
        except sqlite3.Error as exc:
            raise SchemaError(str(exc)) from exc
        return load_sqlite(connection, name)
    finally:
        connection.close()


def create_table_sql(schema: TableSchema) -> str:
    """The ``CREATE TABLE`` statement for ``schema``, identifiers quoted.

    The one DDL writer: :func:`dump_to_sqlite` runs it and
    :func:`repro.relational.csvio.dump_to_csv_dir` writes it to
    ``_schema.sql``, so a table or column named like a SQL keyword
    survives both round trips.
    """
    clauses = []
    for column in schema.columns:
        clause = f"{_quote(column.name)} {column.datatype.name}"
        if not column.nullable:
            clause += " NOT NULL"
        clauses.append(clause)
    if schema.primary_key:
        clauses.append(f"PRIMARY KEY ({_quote_all(schema.primary_key)})")
    for fk in schema.foreign_keys:
        clauses.append(
            f"FOREIGN KEY ({_quote_all(fk.source_columns)}) "
            f"REFERENCES {_quote(fk.target_table)} "
            f"({_quote_all(fk.target_columns)})"
        )
    body = ",\n    ".join(clauses)
    return f"CREATE TABLE {_quote(schema.name)} (\n    {body}\n)"


def dump_to_sqlite(
    database: Database, target: Union[str, sqlite3.Connection]
) -> None:
    """Write ``database`` out as a sqlite3 database (round-trip support).

    The target must hold no table yet: a non-empty one raises
    :class:`SchemaError` naming it, before anything is written.
    """
    if isinstance(target, sqlite3.Connection):
        connection, owned, where = target, False, "the given connection"
    else:
        connection, owned, where = sqlite3.connect(target), True, repr(target)
    try:
        existing = _table_names(connection)
        if existing:
            raise SchemaError(
                f"cannot dump into {where}: it already holds table(s) "
                + ", ".join(existing)
            )
        for table in database.tables():
            schema = table.schema
            connection.execute(create_table_sql(schema))
            placeholders = ", ".join("?" for _ in schema.columns)
            connection.executemany(
                f"INSERT INTO {_quote(schema.name)} VALUES ({placeholders})",
                (row.values for row in table.scan()),
            )
        connection.commit()
    finally:
        if owned:
            connection.close()
