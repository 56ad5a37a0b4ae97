"""Tests for multi-database federation: link specs, resolution, the
unified graph, and cross-database keyword search."""

from __future__ import annotations

import pytest

from repro.errors import FederationError
from repro.federate import (
    ExternalLink,
    FederatedBanks,
    Federation,
    TupleLink,
)
from repro.relational import Database, load_sql


def make_publications() -> Database:
    return load_sql(
        """
        CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
        CREATE TABLE writes (
            aid TEXT NOT NULL REFERENCES author(aid),
            pid TEXT NOT NULL REFERENCES paper(pid)
        );
        INSERT INTO author VALUES ('a1', 'sudarshan');
        INSERT INTO author VALUES ('a2', 'widom');
        INSERT INTO paper VALUES ('p1', 'temporal deductive databases');
        INSERT INTO paper VALUES ('p2', 'active database systems');
        INSERT INTO writes VALUES ('a1', 'p1');
        INSERT INTO writes VALUES ('a2', 'p2');
        """,
        "pubs",
    )


def make_teaching() -> Database:
    return load_sql(
        """
        CREATE TABLE instructor (iid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE course (
            cid TEXT PRIMARY KEY,
            title TEXT NOT NULL,
            iid TEXT REFERENCES instructor(iid)
        );
        INSERT INTO instructor VALUES ('i1', 'sudarshan');
        INSERT INTO instructor VALUES ('i2', 'hopper');
        INSERT INTO course VALUES ('c1', 'database systems', 'i1');
        INSERT INTO course VALUES ('c2', 'compilers', 'i2');
        """,
        "teaching",
    )


@pytest.fixture
def federation():
    fed = Federation("campus")
    fed.register("pubs", make_publications())
    fed.register("teaching", make_teaching())
    fed.add_link(
        ExternalLink(
            name="same-person",
            source_db="teaching",
            source_table="instructor",
            source_column="name",
            target_db="pubs",
            target_table="author",
            target_column="name",
        )
    )
    return fed


class TestLinkSpecs:
    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FederationError):
            ExternalLink("x", "a", "t", "c", "b", "u", "d", weight=0.0)

    def test_self_reference_rejected(self):
        with pytest.raises(FederationError):
            ExternalLink("x", "a", "t", "c", "a", "t", "c")

    def test_tuple_link_self_reference_rejected(self):
        with pytest.raises(FederationError):
            TupleLink("a", ("t", 1), "a", ("t", 1))

    def test_tuple_link_nodes(self):
        link = TupleLink("a", ("t", 1), "b", ("u", 2), weight=2.0)
        assert link.source_node == ("a", "t", 1)
        assert link.target_node == ("b", "u", 2)


class TestRegistration:
    def test_duplicate_member_rejected(self):
        fed = Federation()
        fed.register("one", make_publications())
        with pytest.raises(FederationError):
            fed.register("one", make_teaching())

    def test_unknown_member_rejected(self):
        fed = Federation()
        with pytest.raises(FederationError):
            fed.member("ghost")

    def test_link_with_unknown_table_rejected(self, federation):
        with pytest.raises(Exception):
            federation.add_link(
                ExternalLink(
                    "bad", "pubs", "ghost", "x", "teaching", "course", "cid"
                )
            )

    def test_link_with_unknown_column_rejected(self, federation):
        with pytest.raises(Exception):
            federation.add_link(
                ExternalLink(
                    "bad", "pubs", "author", "ghost",
                    "teaching", "course", "cid",
                )
            )

    def test_tuple_link_with_missing_tuple_rejected(self, federation):
        with pytest.raises(FederationError):
            federation.add_tuple_link(
                TupleLink("pubs", ("author", 99), "teaching", ("course", 0))
            )

    def test_empty_federation_cannot_build(self):
        with pytest.raises(FederationError):
            Federation().build_graph()


class TestLinkResolution:
    def test_value_match_resolves(self, federation):
        resolved = federation.resolve_links()
        pairs = {(source, target) for source, target, _w in resolved}
        assert (
            ("teaching", "instructor", 0),
            ("pubs", "author", 0),
        ) in pairs

    def test_unmatched_values_do_not_resolve(self, federation):
        resolved = federation.resolve_links()
        sources = {source for source, _target, _w in resolved}
        # 'hopper' has no matching author.
        assert ("teaching", "instructor", 1) not in sources

    def test_tuple_links_pass_through(self, federation):
        federation.add_tuple_link(
            TupleLink("pubs", ("paper", 0), "teaching", ("course", 0), 3.0)
        )
        resolved = federation.resolve_links()
        assert (("pubs", "paper", 0), ("teaching", "course", 0), 3.0) in resolved


class TestUnifiedGraph:
    def test_member_nodes_rekeyed(self, federation):
        graph, stats = federation.build_graph()
        assert graph.has_node(("pubs", "author", 0))
        assert graph.has_node(("teaching", "course", 0))
        total = (
            federation.member("pubs").total_rows()
            + federation.member("teaching").total_rows()
        )
        assert stats.num_nodes == total

    def test_member_edges_preserved(self, federation):
        graph, _ = federation.build_graph()
        # writes -> author FK edge inside pubs.
        assert graph.has_edge(("pubs", "writes", 0), ("pubs", "author", 0))

    def test_cross_edges_both_directions(self, federation):
        graph, _ = federation.build_graph()
        source = ("teaching", "instructor", 0)
        target = ("pubs", "author", 0)
        assert graph.has_edge(source, target)
        assert graph.has_edge(target, source)

    def test_cross_link_confers_prestige(self, federation):
        graph, _ = federation.build_graph()
        linked = graph.node_weight(("pubs", "author", 0))
        unlinked = graph.node_weight(("pubs", "author", 1))
        assert linked > unlinked

    def test_cross_backward_edge_scales_with_link_indegree(self):
        """Two instructors with the same name linking to one author make
        the author's backward cross edges cost 2."""
        fed = Federation()
        pubs = make_publications()
        teaching = make_teaching()
        teaching.insert("instructor", ["i3", "sudarshan"])
        fed.register("pubs", pubs)
        fed.register("teaching", teaching)
        fed.add_link(
            ExternalLink(
                "same-person", "teaching", "instructor", "name",
                "pubs", "author", "name",
            )
        )
        graph, _ = fed.build_graph()
        author = ("pubs", "author", 0)
        instructor = ("teaching", "instructor", 0)
        assert graph.edge_weight(instructor, author) == 1.0
        assert graph.edge_weight(author, instructor) == 2.0


class TestFederatedSearch:
    @pytest.fixture
    def banks(self, federation):
        return FederatedBanks(federation)

    def test_cross_database_answer(self, banks):
        """'temporal course' can only connect through the external link:
        the paper lives in pubs, the course in teaching."""
        answers = banks.search("temporal database")
        assert answers
        cross = [a for a in answers if a.is_cross_database()]
        assert cross, "no cross-database answer found"
        databases = cross[0].databases()
        assert databases == {"pubs", "teaching"}

    def test_single_database_answers_still_work(self, banks):
        answers = banks.search("active widom")
        assert answers
        assert answers[0].databases() == {"pubs"}

    def test_answer_trees_validate(self, banks):
        for answer in banks.search("sudarshan database", max_results=10):
            answer.tree.validate()

    def test_link_tables_excluded_as_roots(self, banks):
        for answer in banks.search("sudarshan temporal", max_results=10):
            assert answer.root[1] != "writes"

    def test_node_labels_carry_database_prefix(self, banks):
        answers = banks.search("temporal")
        rendering = answers[0].render()
        assert "pubs/" in rendering

    def test_metadata_matching_across_members(self, banks):
        """'course' matches the teaching.course relation name."""
        node_sets = banks.resolve("course")
        assert any(node[0] == "teaching" for node in node_sets[0])

    def test_unknown_keyword_empty(self, banks):
        assert banks.search("zzzneverseen") == []

    def test_repr(self, banks, federation):
        assert "FederatedBanks" in repr(banks)
        assert "Federation" in repr(federation)
