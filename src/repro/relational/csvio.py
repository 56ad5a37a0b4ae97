"""Load and dump databases as directories of CSV files.

A database maps to a directory with one ``<table>.csv`` per table plus a
``_schema.sql`` file holding the DDL (so primary/foreign keys survive the
round trip).  The DDL is written by
:func:`~repro.relational.sqlite_adapter.create_table_sql` and read back
through :func:`~repro.relational.sqlite_adapter.load_sql`.  This gives
examples and tests a human-inspectable fixture format that needs no
binary tooling.
"""

from __future__ import annotations

import csv
import os
from typing import List, Optional

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.sqlite_adapter import create_table_sql, load_sql
from repro.relational.types import BOOLEAN, INTEGER, REAL


_NULL_MARKER = ""


def dump_to_csv_dir(database: Database, directory: str) -> None:
    """Write ``database`` into ``directory`` (created if needed)."""
    os.makedirs(directory, exist_ok=True)
    ddl_statements: List[str] = []
    for table in database.tables():
        schema = table.schema
        ddl_statements.append(create_table_sql(schema) + ";")
        path = os.path.join(directory, f"{schema.name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema.column_names)
            for row in table.scan():
                writer.writerow(
                    [_NULL_MARKER if v is None else v for v in row.values]
                )
    with open(os.path.join(directory, "_schema.sql"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(ddl_statements) + "\n")


def load_from_csv_dir(directory: str, name: Optional[str] = None) -> Database:
    """Rebuild a database previously written by :func:`dump_to_csv_dir`."""
    schema_path = os.path.join(directory, "_schema.sql")
    if not os.path.exists(schema_path):
        raise SchemaError(f"no _schema.sql in {directory!r}")
    with open(schema_path, encoding="utf-8") as handle:
        schemas = [table.schema for table in load_sql(handle.read()).tables()]
    # Deferred, like load_sqlite: the CSV files need not be topologically
    # ordered; check_integrity below validates every reference.
    database = Database(name or os.path.basename(directory.rstrip("/")),
                        deferred_fk_check=True)
    database.create_tables(schemas)

    for table in database.tables():
        path = os.path.join(directory, f"{table.schema.name}.csv")
        if not os.path.exists(path):
            continue
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            if tuple(header) != table.schema.column_names:
                raise SchemaError(
                    f"CSV header of {path!r} does not match schema: "
                    f"{header} != {list(table.schema.column_names)}"
                )
            for raw_row in reader:
                values = []
                for column, cell in zip(table.schema.columns, raw_row):
                    if cell == _NULL_MARKER:
                        values.append(None)
                    elif column.datatype is INTEGER:
                        values.append(int(cell))
                    elif column.datatype is REAL:
                        values.append(float(cell))
                    elif column.datatype is BOOLEAN:
                        values.append(cell == "True")
                    else:
                        values.append(cell)
                database.insert(table.schema.name, values)
    database.check_integrity()
    return database
