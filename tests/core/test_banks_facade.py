"""Integration tests for the BANKS facade."""

import pytest

from repro import BANKS, ScoringConfig
from repro.errors import EmptyQueryError


class TestFacade:
    def test_figure2_answer(self, figure1_banks):
        answers = figure1_banks.search("soumen sunita")
        assert answers, "no answers for the paper's flagship query"
        top = answers[0].tree
        assert top.root == ("paper", 0)
        assert ("author", 0) in top.nodes
        assert ("author", 1) in top.nodes
        assert top.size() == 5

    def test_ranks_are_sequential(self, figure1_banks):
        answers = figure1_banks.search("soumen sunita byron")
        assert [a.rank for a in answers] == list(range(len(answers)))

    def test_link_tables_excluded_as_roots_by_default(self, figure1_banks):
        assert figure1_banks.search_config.excluded_root_tables == frozenset(
            {"writes", "cites"}
        )

    def test_auto_exclusion_can_be_disabled(self, figure1_db):
        banks = BANKS(figure1_db, auto_exclude_link_roots=False)
        assert banks.search_config.excluded_root_tables == frozenset()

    def test_render_contains_labels(self, figure1_banks):
        answers = figure1_banks.search("soumen sunita")
        rendered = answers[0].render()
        assert "Soumen Chakrabarti" in rendered
        assert "Mining Surprising Patterns" in rendered
        assert rendered.count("*") == 2  # the two keyword leaves

    def test_unknown_keyword_returns_empty(self, figure1_banks):
        assert figure1_banks.search("xylophone") == []

    def test_empty_query_raises(self, figure1_banks):
        with pytest.raises(EmptyQueryError):
            figure1_banks.search("   ")

    def test_scoring_override_per_query(self, figure1_banks):
        default = figure1_banks.search("soumen sunita")
        prestige_only = figure1_banks.search(
            "soumen sunita", scoring=ScoringConfig(lambda_weight=1.0)
        )
        assert default and prestige_only
        assert default[0].relevance != prestige_only[0].relevance

    def test_config_override_kwargs(self, figure1_banks):
        answers = figure1_banks.search("soumen sunita byron", max_results=1)
        assert len(answers) == 1

    def test_metadata_query(self, figure1_banks):
        answers = figure1_banks.search("author sunita")
        assert answers
        # Sunita's author node covers both terms -> single-node answer.
        assert answers[0].tree.size() == 1
        assert answers[0].tree.root == ("author", 1)

    def test_search_summarized_groups(self, figure1_banks):
        grouped = figure1_banks.search_summarized("soumen sunita")
        assert len(grouped) >= 1
        for signature, group in grouped.items():
            assert "paper" in signature
            assert all(hasattr(a, "relevance") for a in group)

    def test_node_label_fallbacks(self, figure1_banks):
        # writes tuples have no non-key text: label falls back to keys.
        label = figure1_banks.node_label(("writes", 0))
        assert label.startswith("writes:")

    def test_approx_query_end_to_end(self, figure1_db):
        figure1_db.insert("paper", ["P88", "Concurrency in 1988"])
        banks = BANKS(figure1_db)
        answers = banks.search("concurrency approx(1988)")
        assert answers
        assert answers[0].tree.root == ("paper", 1)


class TestBidirectional:
    """Backward expanding search on the Sec. 7 metadata queries;
    ``bidirectional`` is not a search option."""

    def test_metadata_query_bidirectional(self, biblio_banks_session,
                                          bibliography_session):
        _db, anecdotes = bibliography_session
        answers = biblio_banks_session.search("author sudarshan")
        assert answers
        assert answers[0].tree.root == anecdotes.sudarshan

    def test_answers_valid_trees(self, biblio_banks_session):
        answers = biblio_banks_session.search("mohan recovery", max_results=5)
        assert answers
        for answer in answers:
            answer.tree.validate()
            assert 0.0 <= answer.relevance <= 1.0

    def test_option_is_rejected(self, figure1_banks):
        with pytest.raises(TypeError, match="bidirectional"):
            figure1_banks.search("soumen sunita", **{"bidirectional": True})
