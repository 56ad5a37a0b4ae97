"""Tests for the sqlite adapter and CSV round trips."""

import sqlite3

import pytest

from repro.errors import IntegrityError, ReproError, SchemaError
from repro.relational import Column, Database, TableSchema, load_sql
from repro.relational.csvio import dump_to_csv_dir, load_from_csv_dir
from repro.relational.sqlite_adapter import dump_to_sqlite, load_sqlite
from repro.relational.types import INTEGER, TEXT


@pytest.fixture
def sqlite_conn():
    connection = sqlite3.connect(":memory:")
    connection.executescript(
        """
        CREATE TABLE zebra (id INTEGER PRIMARY KEY, label TEXT);
        CREATE TABLE apple (
            id INTEGER PRIMARY KEY,
            zebra_id INTEGER REFERENCES zebra(id),
            note TEXT NOT NULL
        );
        INSERT INTO zebra VALUES (1, 'stripes');
        INSERT INTO zebra VALUES (2, 'more stripes');
        INSERT INTO apple VALUES (10, 1, 'red');
        INSERT INTO apple VALUES (11, 1, 'green');
        INSERT INTO apple VALUES (12, NULL, 'orphan');
        """
    )
    yield connection
    connection.close()


class TestSqliteImport:
    def test_schema_mirrored(self, sqlite_conn):
        database = load_sqlite(sqlite_conn)
        # Creation order, not name order: table order sets node-id order.
        assert database.table_names == ["zebra", "apple"]
        apple = database.table("apple").schema
        assert apple.primary_key == ("id",)
        assert apple.foreign_keys[0].target_table == "zebra"
        assert not apple.column("note").nullable

    def test_rows_and_references(self, sqlite_conn):
        database = load_sqlite(sqlite_conn)
        assert len(database.table("apple")) == 3
        zebra1 = database.table("zebra").lookup_pk([1])
        assert database.indegree(("zebra", zebra1.rid)) == 2

    def test_null_fk_tolerated(self, sqlite_conn):
        database = load_sqlite(sqlite_conn)
        orphan = database.table("apple").lookup_pk([12])
        assert database.references_of(("apple", orphan.rid)) == []

    def test_implicit_fk_target_resolves_to_pk(self):
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            """
            CREATE TABLE t1 (id INTEGER PRIMARY KEY);
            CREATE TABLE t2 (ref INTEGER REFERENCES t1);
            INSERT INTO t1 VALUES (5);
            INSERT INTO t2 VALUES (5);
            """
        )
        database = load_sqlite(connection)
        fk = database.table("t2").schema.foreign_keys[0]
        assert fk.target_columns == ("id",)
        connection.close()

    def test_dangling_fk_caught_when_checking(self):
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            """
            PRAGMA foreign_keys = OFF;
            CREATE TABLE t1 (id INTEGER PRIMARY KEY);
            CREATE TABLE t2 (ref INTEGER REFERENCES t1(id));
            INSERT INTO t2 VALUES (404);
            """
        )
        with pytest.raises(IntegrityError):
            load_sqlite(connection)
        connection.close()

    def test_missing_file_rejected_and_not_created(self, tmp_path):
        path = tmp_path / "typo.db"
        with pytest.raises(ReproError, match="typo.db"):
            load_sqlite(str(path))
        assert not path.exists()


class TestSqliteRoundTrip:
    def test_dump_and_reload(self, figure1_db):
        connection = sqlite3.connect(":memory:")
        dump_to_sqlite(figure1_db, connection)
        reloaded = load_sqlite(connection)
        assert reloaded.total_rows() == figure1_db.total_rows()
        assert reloaded.table_names == figure1_db.table_names
        # FK structure survived.
        assert len(reloaded.table("writes").schema.foreign_keys) == 2
        connection.close()

    def test_dump_refuses_a_path_that_holds_tables(self, figure1_db, tmp_path):
        path = tmp_path / "once.db"
        dump_to_sqlite(figure1_db, str(path))
        before = path.read_bytes()
        with pytest.raises(SchemaError, match="once.db"):
            dump_to_sqlite(figure1_db, str(path))
        assert path.read_bytes() == before
        assert load_sqlite(str(path)).total_rows() == figure1_db.total_rows()

    def test_dump_refuses_a_connection_that_holds_tables(self, figure1_db):
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
            with pytest.raises(SchemaError, match="connection.*other"):
                dump_to_sqlite(figure1_db, connection)
            tables = connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
            assert tables == [("other",)]
        finally:
            connection.close()


class TestCsvRoundTrip:
    def test_dump_and_reload(self, figure1_db, tmp_path):
        directory = str(tmp_path / "csv")
        dump_to_csv_dir(figure1_db, directory)
        reloaded = load_from_csv_dir(directory)
        assert reloaded.total_rows() == figure1_db.total_rows()
        author = reloaded.table("author").lookup_pk(["SunitaS"])
        assert author["name"] == "Sunita Sarawagi"

    def test_nulls_and_types_survive(self, tmp_path):
        database = load_sql(
            """
            CREATE TABLE t (
                id INTEGER PRIMARY KEY,
                score REAL,
                flag BOOLEAN,
                note TEXT
            );
            INSERT INTO t VALUES (1, 2.5, TRUE, NULL);
            INSERT INTO t VALUES (2, NULL, FALSE, 'hello');
            """,
            "typed",
        )
        directory = str(tmp_path / "csv")
        dump_to_csv_dir(database, directory)
        reloaded = load_from_csv_dir(directory)
        row1 = reloaded.table("t").lookup_pk([1])
        row2 = reloaded.table("t").lookup_pk([2])
        assert row1["score"] == 2.5 and row1["flag"] is True
        assert row1["note"] is None
        assert row2["score"] is None and row2["note"] == "hello"

    def test_keyword_names_survive(self, tmp_path):
        database = Database("kw")
        database.create_table(
            TableSchema(
                "group",
                [Column("select", INTEGER, nullable=False), Column("order", TEXT)],
                primary_key=["select"],
            )
        )
        database.insert("group", [1, "first"])
        directory = str(tmp_path / "csv")
        dump_to_csv_dir(database, directory)
        reloaded = load_from_csv_dir(directory)
        assert reloaded.table("group").schema.column_names == ("select", "order")
        assert reloaded.table("group").lookup_pk([1])["order"] == "first"

    def test_missing_schema_rejected(self, tmp_path):
        with pytest.raises(Exception):
            load_from_csv_dir(str(tmp_path / "nowhere"))
