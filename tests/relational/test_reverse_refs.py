"""The reverse-reference index under random writes.

``Database`` keeps, for every tuple, the references to it and the
per-relation indegree of Eq. 1: an insert records each resolved
foreign key, and an update or delete forgets exactly the entries the
old row recorded, by resolving its targets again.  Whatever the write
sequence, what the public reads return must equal what
:meth:`Database.check_integrity` rebuilds from the same rows — across
NULL foreign keys, a two-FK link table, a non-PK (inclusion-dependency)
target, deferred-missing targets and copy-on-write forks taken before
and after the index's frozen base is laid, with writes on both sides.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.types import INTEGER, TEXT
from tests.relational.reverse_index import reverse_state

#: A target key no operation ever creates: a deferred database records
#: nothing for it, and forgetting it must be a no-op.
GHOST = "ghost"


def make_db(deferred: bool = False) -> Database:
    database = Database("refs", deferred_fk_check=deferred)
    database.create_tables(
        [
            TableSchema(
                "author",
                [Column("aid", TEXT, nullable=False), Column("name", TEXT)],
                primary_key=("aid",),
            ),
            # ``code`` is what papers reference: a non-PK target.
            TableSchema(
                "venue",
                [
                    Column("vid", INTEGER, nullable=False),
                    Column("code", TEXT),
                    Column("label", TEXT),
                ],
                primary_key=("vid",),
            ),
            TableSchema(
                "paper",
                [
                    Column("pid", TEXT, nullable=False),
                    Column("title", TEXT),
                    Column("venue", TEXT),
                ],
                primary_key=("pid",),
                foreign_keys=[
                    ForeignKey("paper", ("venue",), "venue", ("code",)),
                ],
            ),
            TableSchema(
                "writes",
                [Column("aid", TEXT), Column("pid", TEXT)],
                foreign_keys=[
                    ForeignKey("writes", ("aid",), "author", ("aid",)),
                    ForeignKey("writes", ("pid",), "paper", ("pid",)),
                ],
            ),
        ]
    )
    return database


def rebuilt_state(database: Database):
    """What ``check_integrity`` rebuilds from the same rows, computed on
    a fork so ``database`` itself is not touched."""
    rebuilt = database.fork()
    rebuilt.check_integrity()
    return reverse_state(rebuilt)


def live(database: Database, table: str):
    return list(database.table(table).rids())


def pick(items, index: int):
    return items[index % len(items)] if items else None


def apply(database: Database, op: str, a: int, b: int, serial: int) -> None:
    """One random write (``serial`` keeps new keys unique); refused
    writes raise IntegrityError and must leave the index consistent."""
    deferred = database._deferred
    if op == "author":
        database.insert("author", [f"a{serial}", f"name {a}"])
    elif op == "venue":
        database.insert("venue", [serial, f"v{serial}", f"label {a}"])
    elif op == "paper":
        venues = live(database, "venue")
        venue = None
        if a % 3 and venues:
            venue = database.table("venue").row(pick(venues, b))["code"]
        elif a % 3 == 0 and deferred and b % 2:
            venue = GHOST
        database.insert("paper", [f"p{serial}", f"title {a}", venue])
    elif op == "writes":
        author = pick(live(database, "author"), a)
        paper = pick(live(database, "paper"), b)
        aid = None if author is None else database.row(("author", author))["aid"]
        pid = None if paper is None else database.row(("paper", paper))["pid"]
        if deferred and a % 4 == 3:
            aid = GHOST
        if aid is None and pid is None:
            return
        database.insert("writes", [aid, pid])
    elif op == "retitle":
        paper = pick(live(database, "paper"), a)
        if paper is not None:
            venues = live(database, "venue")
            changes = {"title": f"retitled {b}"}
            if b % 2:
                changes["venue"] = (
                    None
                    if not venues or b % 3 == 0
                    else database.row(("venue", pick(venues, a)))["code"]
                )
            database.update(("paper", paper), changes)
    elif op == "relink":
        writes = pick(live(database, "writes"), a)
        paper = pick(live(database, "paper"), b)
        if writes is not None and paper is not None:
            pid = database.row(("paper", paper))["pid"]
            database.update(("writes", writes), {"pid": None if b % 5 == 4 else pid})
    elif op == "relabel":
        venue = pick(live(database, "venue"), a)
        if venue is not None:
            # ``code`` changes are refused while a paper references it.
            column = "code" if b % 2 else "label"
            database.update(("venue", venue), {column: f"{column}{serial}"})
    elif op == "delete":
        table = ("author", "venue", "paper", "writes")[a % 4]
        rid = pick(live(database, table), b)
        if rid is not None:
            database.delete((table, rid))


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "author",
                "venue",
                "paper",
                "writes",
                "retitle",
                "relink",
                "relabel",
                "delete",
                "fork",
                "read",
            ]
        ),
        st.integers(0, 11),
        st.integers(0, 11),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=40,
)


def run(database: Database, operations):
    """Apply ``operations``, each to the side its last number picks.

    A ``fork`` step forks that side and keeps writing to both; it also
    takes a second fork that nothing writes, which must never change.
    A ``read`` step reads the side in reverse, which lays its base
    (so does the first fork, update or delete).  Returns the sides."""
    sides, frozen = [database], []
    for serial, (op, a, b, pick_side) in enumerate(operations):
        side = sides[pick_side % len(sides)]
        if op == "fork":
            sides.append(side.fork())
            untouched = side.fork()
            frozen.append((untouched, reverse_state(untouched)))
        elif op == "read":
            side.indegree(("author", a))
        else:
            try:
                apply(side, op, a, b, serial)
            except IntegrityError:
                pass
    for untouched, state in frozen:
        assert reverse_state(untouched) == state
    return sides


def drop_dangling(database: Database) -> None:
    """Delete or repoint every row whose foreign key names
    :data:`GHOST` (it recorded nothing), so a strict rebuild can run."""
    for row in list(database.table("writes").scan()):
        if GHOST in row.values:
            database.delete(("writes", row.rid))
    for row in list(database.table("paper").scan()):
        if row["venue"] == GHOST:
            database.update(("paper", row.rid), {"venue": None})


@settings(deadline=None, max_examples=80)
@given(operations=_ops)
def test_random_writes_match_check_integrity(operations):
    for side in run(make_db(), operations):
        assert reverse_state(side) == rebuilt_state(side)


@settings(deadline=None, max_examples=60)
@given(operations=_ops)
def test_deferred_missing_targets_record_and_forget_nothing(operations):
    for side in run(make_db(deferred=True), operations):
        drop_dangling(side)
        assert reverse_state(side) == rebuilt_state(side)


class TestTargetedForget:
    def test_null_and_two_fk_rows(self):
        database = make_db()
        database.insert("author", ["a1", "ada"])
        database.insert("paper", ["p1", "engines", None])
        both = database.insert("writes", ["a1", "p1"])
        half = database.insert("writes", [None, "p1"])
        assert database.indegree_from(("paper", 0), "writes") == 2
        assert database.indegree_from(("author", 0), "writes") == 1
        database.delete(half)
        assert database.indegree_from(("paper", 0), "writes") == 1
        database.update(both, {"aid": None})
        assert database.indegree(("author", 0)) == 0
        assert database.indegree_from(("author", 0), "writes") == 0
        assert ("author", 0) not in reverse_state(database)[1]
        assert reverse_state(database) == rebuilt_state(database)

    def test_non_pk_target_follows_the_moved_reference(self):
        database = make_db()
        database.insert("venue", [1, "vldb", "first"])
        database.insert("venue", [2, "icde", "second"])
        paper = database.insert("paper", ["p1", "banks", "icde"])
        assert database.referencing(("venue", 1))
        database.update(paper, {"venue": "vldb"})
        assert not database.referencing(("venue", 1))
        assert database.indegree_from(("venue", 0), "paper") == 1
        assert reverse_state(database) == rebuilt_state(database)

    def test_referenced_non_pk_column_cannot_change(self):
        database = make_db()
        venue = database.insert("venue", [1, "vldb", "first"])
        database.insert("paper", ["p1", "banks", "vldb"])
        with pytest.raises(IntegrityError):
            database.update(venue, {"code": "sigmod"})
        database.update(venue, {"label": "renamed"})
        assert database.row(venue)["code"] == "vldb"

    def test_fork_copies_a_list_before_its_first_append(self):
        database = make_db()
        database.insert("author", ["a1", "ada"])
        database.insert("paper", ["p1", "engines", None])
        database.insert("writes", ["a1", "p1"])
        child = database.fork()
        sibling = database.fork()
        # The parent recorded (so owns) these lists before forking.
        database.insert("writes", ["a1", "p1"])
        child.insert("writes", ["a1", "p1"])
        child.insert("writes", ["a1", "p1"])
        sibling.delete(("writes", 0))
        assert database.indegree(("author", 0)) == 2
        assert child.indegree(("author", 0)) == 3
        assert sibling.indegree(("author", 0)) == 0


class TestInPlaceIndegree:
    """A target's list and indegree dict are mutated in place only by the
    version that made them since its last fork; a fork must never see
    the other side's appends or counts."""

    def loaded(self) -> Database:
        database = make_db()
        database.insert("author", ["hub", "ada"])
        for i in range(4):
            database.insert("paper", [f"p{i}", "engines", None])
            database.insert("writes", ["hub", f"p{i}"])
        return database

    def view(self, database: Database):
        hub = ("author", 0)
        return (
            database.indegree(hub),
            database.indegree_from(hub, "writes"),
            database.referencing(hub),
        )

    @pytest.mark.parametrize("writer", ["parent", "child"])
    def test_inserts_on_one_side_leave_the_other_as_it_was(self, writer):
        database = self.loaded()
        child = database.fork()
        before = self.view(database)
        assert self.view(child) == before
        side, other = (database, child) if writer == "parent" else (child, database)
        for i in range(3):
            side.insert("writes", ["hub", f"p{i}"])
            assert self.view(other) == before
        assert self.view(side)[:2] == (7, 7)
        # The other side's own appends are in place too, and stay its own.
        other.insert("writes", ["hub", "p3"])
        assert self.view(other)[:2] == (5, 5)
        assert self.view(side)[:2] == (7, 7)
        assert reverse_state(database) == rebuilt_state(database)
        assert reverse_state(child) == rebuilt_state(child)

    def test_a_dangling_insert_leaves_the_index_as_it_was(self):
        database = self.loaded()
        database.insert("writes", ["hub", "p0"])  # the hub is owned now
        before = reverse_state(database, ordered=True)
        with pytest.raises(IntegrityError):
            database.insert("writes", ["hub", "missing"])
        assert reverse_state(database, ordered=True) == before
        assert self.view(database)[:2] == (5, 5)


class TestBaseAndOverlay:
    """Inserts into a never-forked, never reverse-read database only log
    their references; the first reverse read or fork lays the log out
    as a frozen base, and every later write goes to an overlay."""

    def loaded(self) -> Database:
        database = make_db()
        database.insert("author", ["hub", "ada"])
        database.insert("venue", [1, "vldb", "first"])
        for i in range(6):
            database.insert("paper", [f"p{i}", "engines", "vldb" if i % 2 else None])
            database.insert("writes", ["hub", f"p{i}"])
        return database

    def test_forks_before_and_after_the_base_is_laid(self):
        database = self.loaded()
        assert database._log is not None
        child = database.fork()  # lays the base on the way
        assert database._log is None and child._log is None
        database.insert("writes", ["hub", "p0"])
        child.delete(("writes", 1))
        child.insert("paper", ["c1", "child only", "vldb"])
        grandchild = child.fork()  # the base is laid already
        child.insert("writes", ["hub", "c1"])
        grandchild.update(("paper", 1), {"venue": None})
        grandchild.insert("writes", ["hub", "c1"])
        database.update(("writes", 3), {"pid": "p5"})
        hub = ("author", 0)
        assert [database.indegree(hub), child.indegree(hub)] == [7, 6]
        assert grandchild.indegree(hub) == 6
        assert grandchild.indegree_from(("venue", 0), "paper") == 3
        assert child.indegree_from(("venue", 0), "paper") == 4
        for side in (database, child, grandchild):
            assert reverse_state(side) == rebuilt_state(side)

    def test_insert_order_survives_the_lay(self):
        database = self.loaded()
        expected = [("writes(aid)->author(aid)", ("writes", i)) for i in range(6)]
        database.insert("writes", ["hub", "p2"])
        expected.append(("writes(aid)->author(aid)", ("writes", 6)))
        hub = ("author", 0)
        assert reverse_state(database, ordered=True)[0][hub] == expected
        child = database.fork()
        child.insert("writes", ["hub", "p3"])
        expected.append(("writes(aid)->author(aid)", ("writes", 7)))
        assert reverse_state(child, ordered=True)[0][hub] == expected

    def test_alternating_inserts_and_deletes_lay_the_base_once(self, monkeypatch):
        lays = []
        lay = Database._lay

        def counted(database):
            if database._log is not None:
                lays.append(database)
            lay(database)

        monkeypatch.setattr(Database, "_lay", counted)
        database = self.loaded()
        for i in range(40):
            rid = database.insert("writes", ["hub", f"p{i % 6}"])
            if i % 3 == 2:
                database = database.fork()
            database.delete(rid)
        assert len(lays) <= 1
        assert reverse_state(database) == rebuilt_state(database)


class TestNonPkResolution:
    """A foreign key to a non-primary-key column resolves to the first
    live row holding the key, through a per-column index the target
    table keeps across its writes and forks."""

    def test_inserts_visit_rows_linearly(self, monkeypatch):
        visits = [0]
        scan, row = Table.scan, Table.row

        def counted_scan(table):
            for found in scan(table):
                visits[0] += 1
                yield found

        def counted_row(table, rid):
            visits[0] += 1
            return row(table, rid)

        monkeypatch.setattr(Table, "scan", counted_scan)
        monkeypatch.setattr(Table, "row", counted_row)
        database = make_db()
        venues, papers = 300, 300
        for v in range(venues):
            database.insert("venue", [v, f"v{v}", "label"])
        for p in range(papers):
            database.insert("paper", [f"p{p}", "title", f"v{(p * 7) % venues}"])
        assert visits[0] <= venues + papers
        assert database.indegree_from(("venue", 7), "paper") == 1

    def test_first_live_row_follows_writes_and_forks(self):
        database = make_db()
        for vid, code in enumerate(("vldb", "vldb", "icde", "vldb")):
            database.insert("venue", [vid, code, "label"])
        database.insert("paper", ["p0", "t", "icde"])  # builds the index
        child = database.fork()
        # Re-keying the first "vldb" row hands the key to the next one.
        child.update(("venue", 0), {"code": "sigmod"})
        child.insert("paper", ["c1", "t", "vldb"])
        database.insert("paper", ["p1", "t", "vldb"])
        assert child.references_of(("paper", 1))[0][1] == ("venue", 1)
        assert database.references_of(("paper", 1))[0][1] == ("venue", 0)
        # Deleting a key's first row does the same; restoring a lower
        # row's key takes it back.
        database.delete(("paper", 1))
        database.delete(("venue", 0))
        database.insert("paper", ["p2", "t", "vldb"])
        assert database.references_of(("paper", 2))[0][1] == ("venue", 1)
        child.delete(("paper", 1))
        child.update(("venue", 0), {"code": "vldb"})
        child.insert("paper", ["c2", "t", "vldb"])
        assert child.references_of(("paper", 2))[0][1] == ("venue", 0)
        assert child.indegree_from(("venue", 1), "paper") == 0
        for side in (database, child):
            assert reverse_state(side) == rebuilt_state(side)
