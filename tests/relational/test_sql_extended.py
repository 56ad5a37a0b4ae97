"""Row updates on a database loaded from SQL: ``Database.update`` and
``Table.update`` keep keys, foreign keys and reverse references
consistent, and a refused update leaves the row as it was."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError, UnknownColumnError
from repro.relational import load_sql

HAMMER, ROLLER, MYSTERY = ("item", 0), ("item", 2), ("item", 3)
TOOLS, PAINT = ("category", 0), ("category", 1)


@pytest.fixture
def db():
    return load_sql(
        """
        CREATE TABLE category (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL
        );
        CREATE TABLE item (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            price REAL,
            category_id INTEGER REFERENCES category(id)
        );
        INSERT INTO category VALUES (1, 'tools');
        INSERT INTO category VALUES (2, 'paint');
        INSERT INTO item VALUES (1, 'hammer', 9.5, 1);
        INSERT INTO item VALUES (2, 'saw', 19.0, 1);
        INSERT INTO item VALUES (3, 'roller', 4.0, 2);
        INSERT INTO item VALUES (4, 'mystery', NULL, NULL);
        """,
        "shop",
    )


class TestUpdate:
    def test_update_multiple_columns(self, db):
        db.update(ROLLER, {"name": "renamed", "price": 0.5})
        assert db.row(ROLLER).values == (3, "renamed", 0.5, 2)

    def test_update_to_null(self, db):
        db.update(HAMMER, {"price": None})
        assert db.row(HAMMER)["price"] is None

    def test_update_fk_to_valid_target(self, db):
        db.update(HAMMER, {"category_id": 2})
        assert db.indegree(PAINT) == 2

    def test_update_fk_to_dangling_target_refused(self, db):
        with pytest.raises(IntegrityError):
            db.update(HAMMER, {"category_id": 99})
        # The tuple is unchanged after the failed update.
        assert db.row(HAMMER)["category_id"] == 1

    def test_update_referenced_pk_refused(self, db):
        with pytest.raises(IntegrityError):
            db.update(TOOLS, {"id": 9})

    def test_update_unreferenced_pk_allowed(self, db):
        db.update(MYSTERY, {"id": 40})
        assert db.table("item").lookup_pk([40])["name"] == "mystery"

    def test_update_unknown_column_rejected(self, db):
        with pytest.raises(UnknownColumnError):
            db.update(HAMMER, {"nonexistent": 1})

    def test_update_reverse_index_follows_fk_change(self, db):
        """After moving an item between categories the reverse-reference
        index (and thus BANKS indegrees) must follow."""
        before = db.indegree(TOOLS)
        db.update(HAMMER, {"category_id": 2})
        assert db.indegree(TOOLS) == before - 1
        assert db.indegree(PAINT) == 2


class TestTableUpdatePrimitives:
    """Direct Table.update / Database.update behaviour."""

    def test_table_update_preserves_rid(self, db):
        table = db.table("category")
        table.update(0, [1, "hardware"])
        assert table.row(0)["name"] == "hardware"

    def test_table_update_pk_reindexes(self, db):
        table = db.table("item")
        table.update(3, [44, "mystery", None, None])
        assert table.lookup_pk((44,)).rid == 3
        assert table.lookup_pk((4,)) is None

    def test_table_update_duplicate_pk_rejected(self, db):
        table = db.table("item")
        with pytest.raises(IntegrityError):
            table.update(3, [1, "mystery", None, None])

    def test_table_update_null_pk_rejected(self, db):
        table = db.table("item")
        with pytest.raises(IntegrityError):
            table.update(3, [None, "mystery", None, None])

    def test_table_update_not_null_enforced(self, db):
        table = db.table("item")
        with pytest.raises(IntegrityError):
            table.update(3, [4, None, None, None])

    def test_database_update_rollback_restores_reverse_refs(self, db):
        """A failed FK re-validation leaves the reverse index intact."""
        before = db.indegree(TOOLS)
        with pytest.raises(IntegrityError):
            db.update(HAMMER, {"category_id": 77})
        assert db.indegree(TOOLS) == before
