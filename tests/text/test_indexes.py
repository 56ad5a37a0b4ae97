"""Tests for the inverted index."""

from hypothesis import given, settings, strategies as st

from repro.relational import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import TEXT
from repro.text.inverted_index import InvertedIndex
from repro.text.tokenizer import tokenize


class TestInvertedIndex:
    def test_data_postings(self, figure1_db):
        index = InvertedIndex(figure1_db)
        postings = index.lookup("sunita")
        assert len(postings) == 1
        assert postings[0].table == "author"
        assert postings[0].column == "name"

    def test_lookup_is_case_insensitive(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert index.lookup("SUNITA") == index.lookup("sunita")

    def test_key_columns_not_indexed_by_default(self, figure1_db):
        index = InvertedIndex(figure1_db)
        # 'SunitaS' appears in writes.author_id (an FK column): the
        # writes tuple must NOT be a keyword node (paper Fig. 1B).
        tables = {p.table for p in index.lookup("sunita")}
        assert tables == {"author"}

    def test_key_columns_opt_in(self, figure1_db):
        index = InvertedIndex(figure1_db, index_key_columns=True)
        tables = {p.table for p in index.lookup("sunita")}
        assert "writes" in tables

    def test_metadata_table_match(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert index.matching_tables("author") == {"author"}
        nodes = index.lookup_nodes("author")
        # Every author tuple is relevant to the keyword 'author'.
        assert {("author", rid) for rid in range(3)} <= nodes

    def test_metadata_column_match(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert ("paper", "title") in index.matching_columns("title")
        nodes = index.lookup_nodes("title")
        assert ("paper", 0) in nodes

    def test_metadata_can_be_disabled(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert index.lookup_nodes("author", include_metadata=False) == set()

    def test_lookup_column_restricts(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert index.lookup_column("sunita", "author", "name")
        assert not index.lookup_column("sunita", "paper", "title")

    def test_document_frequency(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert index.document_frequency("mining") == 1
        assert index.document_frequency("ghostword") == 0

    def test_incremental_add_row(self, figure1_db):
        index = InvertedIndex(figure1_db)
        rid = figure1_db.insert("author", ["NewA", "Brand New Author"])
        index.add_row("author", rid[1])
        assert index.lookup("brand")

    def test_fork_copies_a_postings_list_before_its_first_append(
        self, figure1_db
    ):
        """Either side of a fork may write first; neither sees the
        other's postings, including a token one side drops and re-adds."""
        parent = InvertedIndex(figure1_db)
        first = figure1_db.insert("author", ["NewA", "Mining First"])
        parent.add_row("author", first[1])  # the parent now owns "mining"
        database = figure1_db.fork()
        child = parent.fork(database)
        parent_rid = figure1_db.insert("paper", ["P2", "Mining Parent"])
        parent.add_row("paper", parent_rid[1])
        rid = database.insert("author", ["NewC", "Mining Surprising"])
        child.add_row("author", rid[1])
        # "surprising" loses every posting, then comes back.
        child.remove_row("paper", 0)
        child.remove_row("author", rid[1])
        assert "surprising" not in child
        child.add_row("paper", 0)
        assert {p.node for p in child.lookup("mining")} == {("paper", 0), first}
        assert {p.node for p in child.lookup("surprising")} == {("paper", 0)}
        assert {p.node for p in parent.lookup("mining")} == {
            ("paper", 0),
            first,
            parent_rid,
        }

    def test_contains_and_len(self, figure1_db):
        index = InvertedIndex(figure1_db)
        assert "mining" in index
        assert "zzz" not in index
        assert len(index) == len(index.vocabulary())

    def test_null_values_skipped(self):
        database = Database("nulls")
        database.create_table(
            TableSchema("t", [Column("a", TEXT), Column("b", TEXT)])
        )
        database.insert("t", [None, "present"])
        index = InvertedIndex(database)
        assert index.lookup("present")


class TestIndexScanAgreement:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Lu", "Ll", "Nd"),
                    whitelist_characters=" -_",
                ),
                min_size=0,
                max_size=40,
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_lookup_agrees_with_rescan(self, values):
        """Property: index lookup == naive scan over tokenised values."""
        database = Database("prop")
        database.create_table(TableSchema("t", [Column("v", TEXT)]))
        for value in values:
            database.insert("t", [value])
        index = InvertedIndex(database)
        for rid, value in enumerate(values):
            for token in tokenize(value):
                nodes = {p.node for p in index.lookup(token)}
                assert ("t", rid) in nodes
        for token in index.vocabulary():
            expected = {
                ("t", rid)
                for rid, value in enumerate(values)
                if token in tokenize(value)
            }
            assert {p.node for p in index.lookup(token)} == expected
