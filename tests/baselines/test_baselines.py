"""Tests for the Sec. 6 related-system baselines and the comparison
harness — each baseline must exhibit exactly the limitation the paper
attributes to it."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DataSpotSearch,
    MragyatiSearch,
    ProximitySearch,
    compare_systems,
)
from repro.baselines.compare import format_comparison
from repro.baselines.dataspot import build_hyperbase
from repro.baselines.goldman import bond
from repro.datasets import generate_bibliography
from repro.eval.workload import bibliography_workload
from repro.relational import load_sql


@pytest.fixture(scope="module")
def small_biblio():
    database, anecdotes = generate_bibliography(papers=60, authors=40, seed=9)
    return database, anecdotes


@pytest.fixture
def tiny_db():
    """author/paper/writes with one co-authored paper and one hub author."""
    return load_sql(
        """
        CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
        CREATE TABLE writes (
            aid TEXT NOT NULL REFERENCES author(aid),
            pid TEXT NOT NULL REFERENCES paper(pid)
        );
        INSERT INTO author VALUES ('a1', 'ada lovelace');
        INSERT INTO author VALUES ('a2', 'alan turing');
        INSERT INTO author VALUES ('a3', 'grace hopper');
        INSERT INTO paper VALUES ('p1', 'computing machinery');
        INSERT INTO paper VALUES ('p2', 'analytical engines');
        INSERT INTO writes VALUES ('a1', 'p1');
        INSERT INTO writes VALUES ('a2', 'p1');
        INSERT INTO writes VALUES ('a1', 'p2');
        INSERT INTO writes VALUES ('a3', 'p2');
        """,
        "tiny",
    )


class TestHyperbase:
    def test_symmetric_edges(self, tiny_db):
        graph = build_hyperbase(tiny_db)
        for source, target, weight in graph.edges():
            assert weight == 1.0
            assert graph.has_edge(target, source)
            assert graph.edge_weight(target, source) == 1.0

    def test_uniform_node_weights(self, tiny_db):
        graph = build_hyperbase(tiny_db)
        assert {graph.node_weight(node) for node in graph.nodes()} == {1.0}

    def test_node_per_tuple(self, tiny_db):
        graph = build_hyperbase(tiny_db)
        assert graph.num_nodes == tiny_db.total_rows()


class TestDataSpot:
    def test_finds_coauthorship_tree(self, tiny_db):
        system = DataSpotSearch(tiny_db)
        answers = system.search("ada alan")
        assert answers
        top_nodes = {node for node in answers[0].tree.nodes}
        # The connection runs through the shared paper p1.
        assert ("paper", 0) in top_nodes

    def test_answers_are_valid_trees(self, small_biblio):
        database, _ = small_biblio
        system = DataSpotSearch(database)
        for answer in system.search("soumen sunita"):
            answer.tree.validate()

    def test_no_prestige_in_ranking(self, small_biblio):
        """All single-node answers for a one-keyword query tie (the
        missing-prestige weakness): relevance must be identical."""
        database, _ = small_biblio
        system = DataSpotSearch(database)
        answers = system.search("transaction")
        singles = [a for a in answers if a.tree.size() == 1]
        assert len(singles) > 1
        assert len({a.relevance for a in singles}) == 1

    def test_metadata_off_by_default(self, small_biblio):
        database, _ = small_biblio
        system = DataSpotSearch(database)
        # 'author' only matches as metadata; DataSpot has no such notion.
        assert system.search("author sudarshan") == []

    def test_max_results_respected(self, small_biblio):
        database, _ = small_biblio
        system = DataSpotSearch(database)
        assert len(system.search("transaction", max_results=3)) <= 3


class TestGoldman:
    def test_bond_degrades_with_distance(self):
        assert bond(0) == 1.0
        assert bond(1) == 0.25
        assert bond(2) < bond(1)

    def test_find_near_basic(self, tiny_db):
        system = ProximitySearch(tiny_db)
        results = system.find_near("paper", "ada")
        assert results
        # Both papers are distance 2 from ada (via writes tuples).
        top = results[0]
        assert top.node[0] == "paper"
        assert top.distance == 2.0

    def test_nearer_object_ranks_higher(self, tiny_db):
        system = ProximitySearch(tiny_db)
        # find author near turing: turing himself is distance 0.
        results = system.find_near("author", "turing")
        assert results[0].node == ("author", 1)

    def test_radius_cuts_off(self, tiny_db):
        system = ProximitySearch(tiny_db, radius=1.0)
        results = system.find_near("paper", "ada")
        assert results == []  # papers are 2 hops from the author tuple

    def test_results_are_single_tuples(self, small_biblio):
        """The Sec. 6 limitation: no trees, just tuples."""
        database, _ = small_biblio
        system = ProximitySearch(database)
        for result in system.search("seltzer sunita"):
            assert isinstance(result.node, tuple)
            assert len(result.node) == 2

    def test_single_term_query_degenerates(self, small_biblio):
        database, _ = small_biblio
        system = ProximitySearch(database)
        results = system.search("transaction")
        assert results
        # Uniform score 1.0: no prestige signal at all.
        assert {r.score for r in results} == {1.0}


class TestMragyati:
    def test_single_keyword_single_tuple(self, tiny_db):
        system = MragyatiSearch(tiny_db)
        answers = system.search("computing")
        assert answers
        assert answers[0].tree.size() == 1
        assert answers[0].tree.root == ("paper", 0)

    def test_two_keywords_within_two_hops(self, tiny_db):
        # 'ada' and 'computing': author a1 and paper p1 are 2 apart via
        # the writes tuple — representable as a length-2 star.
        system = MragyatiSearch(tiny_db)
        answers = system.search("ada computing")
        assert answers
        nodes = answers[0].tree.nodes
        assert ("author", 0) in nodes and ("paper", 0) in nodes

    def test_cannot_connect_beyond_two_hops(self, tiny_db):
        # 'ada' and 'alan' are 4 hops apart (author-writes-paper-writes-
        # author): Mragyati must return nothing.
        system = MragyatiSearch(tiny_db)
        assert system.search("ada alan") == []

    def test_indegree_ranking(self, small_biblio):
        """For a bare author query the prolific author ranks first
        (Mragyati's indegree default agrees with BANKS here)."""
        database, anecdotes = small_biblio
        system = MragyatiSearch(database)
        answers = system.search("mohan")
        assert answers
        assert answers[0].tree.root == anecdotes.c_mohan

    def test_answers_deduplicated(self, small_biblio):
        database, _ = small_biblio
        system = MragyatiSearch(database)
        answers = system.search("transaction")
        keys = [answer.tree.undirected_key() for answer in answers]
        assert len(keys) == len(set(keys))

    def test_answers_are_valid_trees(self, small_biblio):
        database, _ = small_biblio
        system = MragyatiSearch(database)
        for answer in system.search("sunita temporal"):
            answer.tree.validate()


class TestComparison:
    @pytest.fixture(scope="class")
    def reports(self):
        database, anecdotes = generate_bibliography(
            papers=60, authors=40, seed=9
        )
        workload = bibliography_workload(anecdotes)
        return compare_systems(database, workload)

    def test_all_four_systems_reported(self, reports):
        assert [r.system for r in reports] == [
            "BANKS",
            "DataSpot",
            "Goldman",
            "Mragyati",
        ]

    def test_banks_wins_on_error(self, reports):
        banks = reports[0]
        for other in reports[1:]:
            assert banks.scaled_error <= other.scaled_error

    def test_banks_finds_every_ideal(self, reports):
        banks = reports[0]
        assert banks.ideals_found == banks.total_ideals

    def test_mragyati_misses_coauthor_trees(self, reports):
        mragyati = next(r for r in reports if r.system == "Mragyati")
        assert mragyati.per_query_error["q1-coauthors"] > 0
        assert mragyati.per_query_error["q2-common-coauthor"] > 0

    def test_goldman_misses_tree_ideals(self, reports):
        goldman = next(r for r in reports if r.system == "Goldman")
        assert goldman.ideals_found < goldman.total_ideals

    def test_format_comparison(self, reports):
        table = format_comparison(reports)
        for name in ("BANKS", "DataSpot", "Goldman", "Mragyati"):
            assert name in table

    def test_latencies_positive(self, reports):
        for report in reports:
            assert report.mean_latency_ms > 0
