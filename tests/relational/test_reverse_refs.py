"""The reverse-reference index under random writes.

``Database`` maintains ``_reverse_refs`` (target -> referencing entries)
and ``_indeg`` (the per-relation indegree of Eq. 1) incrementally: an
insert records each resolved foreign key, and an update or delete
forgets exactly the entries the old row recorded, by resolving its
targets again.  Whatever the write sequence, both maps must equal what
:meth:`Database.check_integrity` rebuilds from the same rows — across
NULL foreign keys, a two-FK link table, a non-PK (inclusion-dependency)
target, deferred-missing targets and copy-on-write forks taken midway.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import INTEGER, TEXT

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


def reference_state(database: Database):
    """``_reverse_refs`` as multisets (list order is insertion history,
    not content) and ``_indeg``, without empty entries."""
    refs = {
        target: Counter((fk.name, table, rid) for fk, table, rid in entries)
        for target, entries in database._reverse_refs.items()
        if entries
    }
    return refs, dict(database._indeg)


def exact_state(database: Database):
    """``_reverse_refs`` with each list in write order, and ``_indeg``."""
    refs = {target: list(entries) for target, entries in database._reverse_refs.items()}
    return refs, {target: dict(counts) for target, counts in database._indeg.items()}


def rebuilt_state(database: Database):
    """What ``check_integrity`` rebuilds from the same rows, computed on
    a fork so ``database`` itself is not touched."""
    rebuilt = database.fork()
    rebuilt.check_integrity()
    return reference_state(rebuilt)


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
            ]
        ),
        st.integers(0, 11),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=40,
)


def run(database: Database, operations) -> Database:
    """Apply ``operations``; a ``fork`` step continues on the fork and
    checks the abandoned parent never changes again."""
    parents = []
    for serial, (op, a, b) in enumerate(operations):
        if op == "fork":
            parents.append((database, reference_state(database)))
            database = database.fork()
            continue
        try:
            apply(database, op, a, b, serial)
        except IntegrityError:
            pass
    for parent, frozen in parents:
        assert reference_state(parent) == frozen
    return database


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
    database = run(make_db(), operations)
    assert reference_state(database) == rebuilt_state(database)


@settings(deadline=None, max_examples=60)
@given(operations=_ops)
def test_deferred_missing_targets_record_and_forget_nothing(operations):
    database = run(make_db(deferred=True), operations)
    drop_dangling(database)
    assert reference_state(database) == rebuilt_state(database)


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
        assert ("author", 0) not in database._indeg
        assert reference_state(database) == rebuilt_state(database)

    def test_non_pk_target_follows_the_moved_reference(self):
        database = make_db()
        database.insert("venue", [1, "vldb", "first"])
        database.insert("venue", [2, "icde", "second"])
        paper = database.insert("paper", ["p1", "banks", "icde"])
        assert database.referencing(("venue", 1))
        database.update(paper, {"venue": "vldb"})
        assert not database.referencing(("venue", 1))
        assert database.indegree_from(("venue", 0), "paper") == 1
        assert reference_state(database) == rebuilt_state(database)

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
        assert reference_state(database) == rebuilt_state(database)
        assert reference_state(child) == rebuilt_state(child)

    def test_a_dangling_insert_leaves_the_index_as_it_was(self):
        database = self.loaded()
        database.insert("writes", ["hub", "p0"])  # the hub is owned now
        before = exact_state(database)
        with pytest.raises(IntegrityError):
            database.insert("writes", ["hub", "missing"])
        assert exact_state(database) == before
        assert self.view(database)[:2] == (5, 5)
