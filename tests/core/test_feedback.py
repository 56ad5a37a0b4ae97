"""Tests for user-feedback authority transfer (spreading activation)."""

from __future__ import annotations

import pytest

from repro.core.feedback import FeedbackBanks, FeedbackStore, spreading_activation
from repro.core.scoring import ScoringConfig
from repro.errors import QueryError
from repro.relational import Database, load_sql


def make_db() -> Database:
    """Two papers with identical structure; feedback must break the tie."""
    return load_sql(
        """
        CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
        CREATE TABLE writes (
            aid TEXT NOT NULL REFERENCES author(aid),
            pid TEXT NOT NULL REFERENCES paper(pid)
        );
        INSERT INTO author VALUES ('a1', 'grace hopper');
        INSERT INTO author VALUES ('a2', 'alan kay');
        INSERT INTO paper VALUES ('p1', 'compiler construction basics');
        INSERT INTO paper VALUES ('p2', 'compiler optimization basics');
        INSERT INTO writes VALUES ('a1', 'p1');
        INSERT INTO writes VALUES ('a2', 'p2');
        """,
        "fb",
    )


class TestFeedbackStore:
    def test_click_accumulates(self):
        store = FeedbackStore()
        store.record_click(("paper", 0))
        store.record_click(("paper", 0), weight=2.0)
        assert store.mass(("paper", 0)) == 3.0

    def test_clear(self):
        store = FeedbackStore()
        store.record_click(("paper", 0))
        store.clear()
        assert len(store) == 0
        assert store.mass(("paper", 0)) == 0.0

    def test_nonpositive_weight_rejected(self):
        store = FeedbackStore()
        with pytest.raises(QueryError):
            store.record_click(("paper", 0), weight=0.0)

    def test_bad_leaf_share_rejected(self):
        with pytest.raises(QueryError):
            FeedbackStore(leaf_share=2.0)

    def test_answer_click_endorses_root_and_leaves(self):
        banks = FeedbackBanks(make_db())
        answer = banks.search("hopper compiler")[0]
        store = FeedbackStore(leaf_share=0.5)
        store.record_click(answer)
        # The root gets 1.0, plus 0.5 per keyword term it matches itself.
        root_matches = sum(
            1 for node in answer.tree.keyword_nodes if node == answer.tree.root
        )
        assert store.mass(answer.tree.root) == 1.0 + 0.5 * root_matches
        for keyword_node in answer.tree.keyword_nodes:
            if keyword_node != answer.tree.root:
                assert store.mass(keyword_node) == 0.5


class TestSpreadingActivation:
    def test_seed_keeps_its_mass(self):
        database = make_db()
        activation = spreading_activation(database, {("writes", 0): 1.0})
        assert activation[("writes", 0)] == 1.0

    def test_mass_flows_along_references(self):
        """writes(a1,p1) references author a1 and paper p1: both gain."""
        database = make_db()
        activation = spreading_activation(
            database, {("writes", 0): 1.0}, damping=0.5, rounds=1
        )
        # Two out-references split the damped mass equally.
        assert activation[("author", 0)] == pytest.approx(0.25)
        assert activation[("paper", 0)] == pytest.approx(0.25)

    def test_no_flow_from_leaf_tuples(self):
        """Papers reference nothing: their mass stays put."""
        database = make_db()
        activation = spreading_activation(
            database, {("paper", 0): 2.0}, rounds=3
        )
        assert activation == {("paper", 0): 2.0}

    def test_rounds_bound_radius(self):
        database = make_db()
        zero_rounds = spreading_activation(
            database, {("writes", 0): 1.0}, rounds=0
        )
        assert zero_rounds == {("writes", 0): 1.0}

    def test_damping_validation(self):
        database = make_db()
        with pytest.raises(QueryError):
            spreading_activation(database, {}, damping=1.0)
        with pytest.raises(QueryError):
            spreading_activation(database, {}, rounds=-1)

    def test_deleted_tuple_mass_is_inert(self):
        database = make_db()
        database.delete(("writes", 0))  # a1's only writes row
        activation = spreading_activation(
            database, {("writes", 0): 1.0}, rounds=2
        )
        # The seed is remembered but nothing flows out of a dead tuple.
        assert activation == {("writes", 0): 1.0}


class TestFeedbackBanks:
    def test_feedback_breaks_tie(self):
        """Both 'compiler' papers tie structurally; clicking p2 must
        promote it under prestige-aware scoring."""
        banks = FeedbackBanks(
            make_db(),
            scoring=ScoringConfig(lambda_weight=0.5, edge_log=True),
        )
        p2 = ("paper", 1)
        banks.record_click(p2, weight=3.0)
        banks.apply_feedback()
        answers = banks.search("compiler")
        roots = [answer.tree.root for answer in answers]
        assert roots[0] == p2

    def test_without_apply_no_change(self):
        banks = FeedbackBanks(make_db())
        before = banks.graph.node_weight(("paper", 1))
        banks.record_click(("paper", 1))
        assert banks.graph.node_weight(("paper", 1)) == before

    def test_reset_restores_base_ranking(self):
        banks = FeedbackBanks(
            make_db(),
            scoring=ScoringConfig(lambda_weight=0.5, edge_log=True),
        )
        base_weights = {
            node: banks.graph.node_weight(node) for node in banks.graph.nodes()
        }
        banks.record_click(("paper", 1), weight=5.0)
        banks.apply_feedback()
        assert banks.graph.node_weight(("paper", 1)) != base_weights[
            ("paper", 1)
        ]
        banks.reset_feedback()
        for node, weight in base_weights.items():
            assert banks.graph.node_weight(node) == weight

    def test_activation_spreads_to_referenced_tuples(self):
        """Clicking a writes tuple makes its author heavier too."""
        banks = FeedbackBanks(make_db(), damping=0.5, rounds=2)
        author = ("author", 0)
        before = banks.graph.node_weight(author)
        banks.record_click(("writes", 0), weight=4.0)
        activation = banks.apply_feedback()
        assert activation[author] > 0
        assert banks.graph.node_weight(author) > before

    def test_stats_normaliser_follows_feedback(self):
        banks = FeedbackBanks(make_db())
        banks.record_click(("paper", 0), weight=50.0)
        banks.apply_feedback()
        assert banks.stats.max_node_weight >= 50.0

    def test_negative_scale_rejected(self):
        with pytest.raises(QueryError):
            FeedbackBanks(make_db(), feedback_scale=-1.0)
