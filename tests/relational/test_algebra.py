"""Unit tests for the relational-algebra operators."""

import pytest

from repro.errors import BrowseError, UnknownColumnError
from repro.relational.algebra import (
    Relation,
    drop_columns,
    from_table,
    group_by,
    join_fk,
    page_count,
    paginate,
    project,
    select,
    sort_by,
)


@pytest.fixture
def authors(figure1_db):
    return from_table(figure1_db.table("author"))


@pytest.fixture
def writes(figure1_db):
    return from_table(figure1_db.table("writes"))


class TestFromTable:
    def test_columns_are_qualified(self, authors):
        assert authors.columns == ["author.author_id", "author.name"]

    def test_provenance_points_at_base_rows(self, authors):
        assert authors.provenance[0] == (("author", 0),)

    def test_row_count(self, authors):
        assert len(authors) == 3


class TestProject:
    def test_keep_columns(self, authors):
        projected = project(authors, ["author.name"])
        assert projected.columns == ["author.name"]
        assert projected.rows[0] == ("Soumen Chakrabarti",)

    def test_unqualified_names_accepted_when_unambiguous(self, authors):
        projected = project(authors, ["name"])
        assert projected.columns == ["author.name"]

    def test_unknown_column_rejected(self, authors):
        with pytest.raises(UnknownColumnError):
            project(authors, ["ghost"])

    def test_drop_columns(self, authors):
        remaining = drop_columns(authors, ["author.author_id"])
        assert remaining.columns == ["author.name"]

    def test_provenance_preserved(self, authors):
        projected = project(authors, ["author.name"])
        assert projected.provenance == authors.provenance


class TestSelect:
    def test_equality(self, authors):
        filtered = select(authors, "author.name", "=", "Byron Dom")
        assert len(filtered) == 1

    def test_comparison_operators(self, authors):
        filtered = select(authors, "author.author_id", ">", "SoumenC")
        assert {row[0] for row in filtered.rows} == {"SunitaS"}

    def test_unknown_operator_rejected(self, authors):
        with pytest.raises(BrowseError):
            select(authors, "author.name", "~", "x")

    def test_nulls_never_match(self):
        relation = Relation(["c"], [(None,), (1,)])
        assert len(select(relation, "c", "=", 1)) == 1
        assert len(select(relation, "c", "!=", 1)) == 0

    def test_type_mismatch_is_false_not_error(self):
        relation = Relation(["c"], [("text",), (1,)])
        filtered = select(relation, "c", "<", 5)
        assert filtered.rows == [(1,)]


class TestJoin:
    def test_forward_join_follows_fk(self, figure1_db, writes):
        fk = figure1_db.table("writes").schema.foreign_keys[0]
        joined = join_fk(figure1_db, writes, fk)
        assert "author.name" in joined.columns
        assert len(joined) == 3
        # Provenance now covers both base tables.
        assert all(len(p) == 2 for p in joined.provenance)

    def test_reverse_join_fans_out(self, figure1_db, authors):
        fk = figure1_db.table("writes").schema.foreign_keys[0]
        joined = join_fk(figure1_db, authors, fk, reverse=True)
        # Every author wrote exactly one paper here.
        assert len(joined) == 3
        assert "writes.paper_id" in joined.columns

    def test_join_drops_unmatched(self, figure1_db):
        figure1_db.insert("author", ["Lonely", "No Papers"])
        authors = from_table(figure1_db.table("author"))
        fk = figure1_db.table("writes").schema.foreign_keys[0]
        joined = join_fk(figure1_db, authors, fk, reverse=True)
        assert all("Lonely" not in row for row in joined.rows)


class TestGroupBy:
    def test_distinct_values_and_counts(self, writes):
        grouping = group_by(writes, "writes.paper_id")
        assert grouping.distinct_values() == ["ChakrabartiSD98"]
        assert grouping.count("ChakrabartiSD98") == 3

    def test_expand(self, writes):
        grouping = group_by(writes, "writes.author_id")
        expanded = grouping.expand("SunitaS")
        assert len(expanded) == 1
        assert grouping.expand("nope").rows == []


class TestSort:
    def test_ascending_descending(self, authors):
        ascending = sort_by(authors, "author.name")
        names = [row[1] for row in ascending.rows]
        assert names == sorted(names)
        descending = sort_by(authors, "author.name", descending=True)
        assert [row[1] for row in descending.rows] == sorted(names, reverse=True)

    def test_nulls_last(self):
        relation = Relation(["c"], [(None,), (2,), (1,)])
        ordered = sort_by(relation, "c")
        assert [row[0] for row in ordered.rows] == [1, 2, None]

    def test_sort_is_stable(self):
        relation = Relation(["a", "b"], [(1, "x"), (1, "y"), (0, "z")])
        ordered = sort_by(relation, "a")
        assert [row[1] for row in ordered.rows] == ["z", "x", "y"]


class TestPagination:
    def test_pages(self, authors):
        page1 = paginate(authors, 1, 2)
        page2 = paginate(authors, 2, 2)
        assert len(page1) == 2 and len(page2) == 1
        assert page_count(authors, 2) == 2

    def test_out_of_range_page_is_empty(self, authors):
        assert len(paginate(authors, 5, 2)) == 0

    def test_bad_arguments_rejected(self, authors):
        with pytest.raises(BrowseError):
            paginate(authors, 0, 2)
        with pytest.raises(BrowseError):
            page_count(authors, 0)

    def test_empty_relation_has_one_page(self):
        assert page_count(Relation(["c"], []), 10) == 1


class TestRelationInvariants:
    def test_provenance_length_checked(self):
        with pytest.raises(BrowseError):
            Relation(["c"], [(1,)], [(), ()])

    def test_ambiguous_unqualified_name_rejected(self, figure1_db, writes):
        fk = figure1_db.table("writes").schema.foreign_keys[0]
        joined = join_fk(figure1_db, writes, fk)
        # author_id exists in both writes and author.
        with pytest.raises(UnknownColumnError):
            joined.column_position("author_id")
