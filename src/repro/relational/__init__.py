"""A small relational store, loaded through the standard library's sqlite3.

This package is the storage substrate of the BANKS reproduction.  It
provides exactly what the paper requires from its RDBMS (IBM UDB via JDBC
in the original system):

* a catalog describing tables, typed columns, primary keys and foreign
  keys (:mod:`repro.relational.schema`);
* heap-stored tuples addressable by RID (:mod:`repro.relational.table`);
* constraint-enforcing inserts and reverse-reference lookups
  (:mod:`repro.relational.database`);
* secondary hash indexes (:mod:`repro.relational.index`);
* relational-algebra operators used by the browsing subsystem
  (:mod:`repro.relational.algebra`);
* loaders for sqlite3 files, SQL scripts (:func:`load_sql` runs them in
  an in-memory sqlite3 database, the one SQL engine) and CSV directories
  (:mod:`repro.relational.sqlite_adapter`, :mod:`repro.relational.csvio`),
  so BANKS can be pointed at existing data "without any programming" as
  the paper puts it.
"""

from repro.relational.algebra import (
    Projection,
    Relation,
    group_by,
    join_fk,
    paginate,
    project,
    select,
    sort_by,
)
from repro.relational.database import Database, RID
from repro.relational.index import HashIndex
from repro.relational.schema import (
    Column,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from repro.relational.sqlite_adapter import load_sql
from repro.relational.table import Row, Table
from repro.relational.types import (
    BOOLEAN,
    INTEGER,
    REAL,
    TEXT,
    DataType,
)

__all__ = [
    "BOOLEAN",
    "Column",
    "Database",
    "DatabaseSchema",
    "DataType",
    "ForeignKey",
    "HashIndex",
    "INTEGER",
    "Projection",
    "REAL",
    "RID",
    "Relation",
    "Row",
    "Table",
    "TableSchema",
    "TEXT",
    "group_by",
    "join_fk",
    "load_sql",
    "paginate",
    "project",
    "select",
    "sort_by",
]
