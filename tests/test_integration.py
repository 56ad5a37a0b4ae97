"""Cross-module integration tests: the full pipelines a user would run."""

import sqlite3

import pytest

from repro import BANKS, WeightPolicy
from repro.browse.app import BrowseApp
from repro.cluster import Cluster, ClusterSpec
from repro.datasets import generate_tpcd, generate_university
from repro.eval.baselines import uniform_backedge_policy
from repro.relational.sqlite_adapter import load_sqlite


class TestSqliteToSearchPipeline:
    """sqlite file -> adapter -> graph -> keyword search -> browse."""

    @pytest.fixture
    def sqlite_banks(self):
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            """
            CREATE TABLE city (id TEXT PRIMARY KEY, name TEXT NOT NULL);
            CREATE TABLE person (
                id TEXT PRIMARY KEY,
                name TEXT NOT NULL,
                city_id TEXT REFERENCES city(id)
            );
            CREATE TABLE friendship (
                a TEXT NOT NULL REFERENCES person(id),
                b TEXT NOT NULL REFERENCES person(id),
                PRIMARY KEY (a, b)
            );
            INSERT INTO city VALUES ('C1', 'Mumbai');
            INSERT INTO city VALUES ('C2', 'Pune');
            INSERT INTO person VALUES ('P1', 'Asha Kulkarni', 'C1');
            INSERT INTO person VALUES ('P2', 'Ravi Mehta', 'C2');
            INSERT INTO friendship VALUES ('P1', 'P2');
            """
        )
        database = load_sqlite(connection)
        connection.close()
        return BANKS(database)

    def test_cross_table_connection_found(self, sqlite_banks):
        answers = sqlite_banks.search("asha ravi")
        assert answers
        top = answers[0].tree
        labels = {sqlite_banks.node_label(node) for node in top.nodes}
        assert any("Asha" in label for label in labels)
        assert any("Ravi" in label for label in labels)

    def test_friendship_table_excluded_as_root(self, sqlite_banks):
        assert "friendship" in sqlite_banks.search_config.excluded_root_tables

    def test_browse_over_imported_database(self, sqlite_banks):
        with Cluster(ClusterSpec(), database=sqlite_banks.database) as cluster:
            app = BrowseApp(cluster)
            status, html = app.handle("/table/person", "")
        assert status == "200 OK"
        assert "Asha Kulkarni" in html


class TestWeightPolicyEffects:
    def test_hub_ablation_changes_top_answer_weight(self):
        database, anecdotes = generate_university(students=60, courses=8)
        scaled = BANKS(database)
        uniform = BANKS(database, weight_policy=uniform_backedge_policy())
        query = "alice bob"
        scaled_top = scaled.search(query, output_heap_size=100)[0]
        uniform_top = uniform.search(query, output_heap_size=100)[0]
        # With indegree scaling the shared-course tree is strictly the
        # best; with uniform weights hub trees tie with it.
        assert anecdotes.shared_course in scaled_top.tree.nodes
        assert scaled_top.tree.weight < database.indegree(
            anecdotes.big_department
        )
        assert uniform_top.tree.weight <= scaled_top.tree.weight

    def test_pagerank_prestige_end_to_end(self):
        database, anecdotes = generate_tpcd(orders=60)
        banks = BANKS(database, weight_policy=WeightPolicy(prestige="pagerank"))
        answers = banks.search("steel")
        assert answers[0].tree.root == anecdotes.popular_steel_part


class TestSearchConfigPlumbing:
    def test_origin_distance_scale_runs(self, figure1_banks):
        answers = figure1_banks.search(
            "soumen sunita", origin_distance_scale=2.0
        )
        assert answers  # extension path is exercised and still correct
        assert answers[0].tree.root == ("paper", 0)

    def test_parallel_merge_rule_end_to_end(self, figure1_db):
        banks = BANKS(
            figure1_db, weight_policy=WeightPolicy(merge_rule="parallel")
        )
        answers = banks.search("soumen sunita")
        assert answers
        answers[0].tree.validate()
