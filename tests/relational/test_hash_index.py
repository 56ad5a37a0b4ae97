"""Tests for secondary hash indexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Database, HashIndex, load_sql
from repro.relational.schema import Column, TableSchema
from repro.relational.types import INTEGER, TEXT


@pytest.fixture
def db():
    return load_sql(
        """
        CREATE TABLE emp (
            id INTEGER PRIMARY KEY, name TEXT, dept TEXT, grade INTEGER
        );
        INSERT INTO emp VALUES (1, 'Ann', 'CS', 2);
        INSERT INTO emp VALUES (2, 'Bob', 'CS', 1);
        INSERT INTO emp VALUES (3, 'Cid', 'EE', 2);
        """,
        "idx",
    )


class TestHashIndex:
    def test_single_column_lookup(self, db):
        index = HashIndex(db.table("emp"), ["dept"])
        assert {row["name"] for row in index.lookup(["CS"])} == {"Ann", "Bob"}
        assert index.lookup(["ME"]) == []

    def test_composite_key_lookup(self, db):
        index = HashIndex(db.table("emp"), ["dept", "grade"])
        rows = index.lookup(["CS", 2])
        assert [row["name"] for row in rows] == ["Ann"]

    def test_incremental_add(self, db):
        table = db.table("emp")
        index = HashIndex(table, ["dept"])
        rid = db.insert("emp", [4, "Dee", "EE", 3])
        index.add(table.row(rid[1]))
        assert {row["name"] for row in index.lookup(["EE"])} == {"Cid", "Dee"}

    def test_remove(self, db):
        table = db.table("emp")
        index = HashIndex(table, ["dept"])
        index.remove(table.row(0))
        assert {row["name"] for row in index.lookup(["CS"])} == {"Bob"}
        # Removing again is a no-op.
        index.remove(table.row(0))

    def test_deleted_rows_filtered_from_lookup(self, db):
        table = db.table("emp")
        index = HashIndex(table, ["dept"])
        table.delete(2)  # Cid, without telling the index
        assert index.lookup(["EE"]) == []

    def test_len_and_keys(self, db):
        index = HashIndex(db.table("emp"), ["dept"])
        assert len(index) == 3
        assert set(index.keys()) == {("CS",), ("EE",)}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)),
            min_size=0,
            max_size=30,
        )
    )
    def test_lookup_agrees_with_scan(self, pairs):
        """Property: index lookup == filtered scan for every key."""
        database = Database("prop")
        database.create_table(
            TableSchema("t", [Column("a", INTEGER), Column("b", INTEGER)])
        )
        for a, b in pairs:
            database.insert("t", [a, b])
        index = HashIndex(database.table("t"), ["a"])
        for key in {a for a, _b in pairs}:
            expected = [
                row.rid
                for row in database.table("t").scan()
                if row["a"] == key
            ]
            assert [row.rid for row in index.lookup([key])] == expected
