"""Tests for :func:`load_sql`: a SQL script run by sqlite3, then loaded.

Bad input fails at load with the package's own errors, so callers catch
:class:`ReproError` whichever layer refused it.
"""

import pytest

from repro.errors import IntegrityError, SchemaError, TypeMismatchError
from repro.relational import load_sql

ITEM = (
    "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
    "price REAL, active BOOLEAN);"
)


class TestCreateTable:
    def test_inline_and_table_level_constraints(self):
        database = load_sql(
            """
            CREATE TABLE a (id TEXT PRIMARY KEY);
            CREATE TABLE b (
                x TEXT NOT NULL,
                y TEXT REFERENCES a(id),
                PRIMARY KEY (x),
                FOREIGN KEY (y) REFERENCES a(id)
            );
            """
        )
        schema = database.table("b").schema
        assert schema.primary_key == ("x",)
        assert len(schema.foreign_keys) == 2

    def test_varchar_length_swallowed(self):
        database = load_sql("CREATE TABLE t (s VARCHAR(80))")
        assert database.table("t").schema.columns[0].datatype.name == "TEXT"

    def test_duplicate_primary_key_clause_rejected(self):
        with pytest.raises(SchemaError):
            load_sql("CREATE TABLE t (a TEXT, PRIMARY KEY (a), PRIMARY KEY (a))")

    def test_keyword_as_identifier_rejected(self):
        with pytest.raises(SchemaError):
            load_sql("CREATE TABLE select (a TEXT)")


class TestInsert:
    def test_positional(self):
        database = load_sql(ITEM + "INSERT INTO item VALUES (1, 'hammer', 9.5, TRUE)")
        row = database.table("item").lookup_pk([1])
        assert row.values == (1, "hammer", 9.5, True)

    def test_named_columns(self):
        database = load_sql(ITEM + "INSERT INTO item (id, name) VALUES (2, 'nail')")
        row = database.table("item").lookup_pk([2])
        assert row["price"] is None and row["active"] is None

    def test_null_literal(self):
        database = load_sql(ITEM + "INSERT INTO item VALUES (3, 'x', NULL, FALSE)")
        row = database.table("item").lookup_pk([3])
        assert row["price"] is None and row["active"] is False

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            load_sql(ITEM + "INSERT INTO item (id) VALUES (1, 'x')")

    def test_string_escape_round_trip(self):
        database = load_sql(ITEM + "INSERT INTO item VALUES (4, 'bob''s', 1.0, TRUE)")
        assert database.table("item").lookup_pk([4])["name"] == "bob's"

    def test_constraint_violation_propagates(self):
        """A duplicate primary key."""
        with pytest.raises(IntegrityError):
            load_sql(
                ITEM + "INSERT INTO item VALUES (1, 'a', 1.0, TRUE);"
                "INSERT INTO item VALUES (1, 'b', 1.0, TRUE);"
            )


class TestScript:
    def test_semicolons_inside_strings(self):
        database = load_sql(ITEM + "INSERT INTO item VALUES (9, 'semi;colon', 1.0, 1);")
        assert database.table("item").lookup_pk([9])["name"] == "semi;colon"

    def test_drop_table(self):
        database = load_sql(ITEM + "DROP TABLE item;")
        assert "item" not in database.table_names


class TestRejectedAtLoad:
    """Every way a script can be wrong raises at load, as a ReproError."""

    def test_dangling_foreign_key(self):
        with pytest.raises(IntegrityError):
            load_sql(
                "CREATE TABLE a (id TEXT PRIMARY KEY);"
                "CREATE TABLE b (ref TEXT REFERENCES a(id));"
                "INSERT INTO b VALUES ('missing');"
            )

    def test_not_null_violation(self):
        with pytest.raises(IntegrityError):
            load_sql(ITEM + "INSERT INTO item VALUES (1, NULL, 1.0, TRUE)")

    def test_text_in_integer_column(self):
        with pytest.raises(TypeMismatchError):
            load_sql("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES ('abc');")

    def test_malformed_ddl(self):
        with pytest.raises(SchemaError):
            load_sql("CREATE TABLE t (a TEXT,")

    def test_unknown_table(self):
        with pytest.raises(SchemaError):
            load_sql("INSERT INTO ghost VALUES (1)")


def test_default_and_given_names():
    assert load_sql("").name == "sqlite"
    assert load_sql("", "shop").name == "shop"
