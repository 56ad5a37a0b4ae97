"""Scatter-gather router tests: parity, cross-shard answers, metrics."""

from __future__ import annotations

import pytest

from repro.core.oracle import never_worse, same, same_up_to_ties
from repro.datasets.bibliography import DEMO_QUERIES as BIBLIOGRAPHY_QUERIES
from repro.datasets.tpcd import DEMO_QUERIES as TPCD_QUERIES
from repro.errors import ShardError
from repro.shard import ShardRouter

#: The whole bibliography demo battery: strict-parity safe (no
#: exact-score tie straddles the top-5 boundary on the default
#: dataset), so gather and route are held to roots *and* scores on it.
PARITY_QUERIES = BIBLIOGRAPHY_QUERIES

#: The one TPC-D demo query where the 4-shard gather is never-worse but
#: not score-equal: it surfaces ``lineitem 109`` (0.172), which the
#: single engine's approximately-ordered output heap never emits.
TPCD_SCORE_GAP = "steel bolt"


@pytest.fixture(scope="module")
def biblio_router(bibliography_session):
    database, _anecdotes = bibliography_session
    with ShardRouter(database, shards=4, backend="thread") as router:
        yield router


class TestParity:
    def test_top5_matches_single_engine(
        self, biblio_router, biblio_banks_session
    ):
        for query in PARITY_QUERIES:
            sharded = biblio_router.search(query, max_results=5)
            single = biblio_banks_session.search(query, max_results=5)
            assert same_up_to_ties(sharded, single), query

    @pytest.fixture(scope="class")
    def tpcd_answers(self):
        """Per TPC-D demo query: the (gathered, single-engine) top-5
        answers at 4 shards."""
        from repro import BANKS
        from repro.datasets import generate_tpcd

        database = generate_tpcd()[0]
        single = BANKS(database)
        with ShardRouter(database, shards=4, backend="thread") as router:
            return {
                query: (
                    router.search(query, max_results=5),
                    single.search(query, max_results=5),
                )
                for query in TPCD_QUERIES
            }

    def test_tpcd_gather_is_never_worse(self, tpcd_answers):
        """Interchangeable ``lineitem`` rows make strict root parity
        ill-defined on TPC-D; what gather must never do is lose
        relevance at any rank."""
        for query, (sharded, single) in tpcd_answers.items():
            assert never_worse(sharded, single), query

    @pytest.mark.parametrize(
        "query",
        [
            pytest.param(
                query,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: tpcd gather is never-worse "
                    "but not score-equal (7 of 8 queries)",
                ),
            )
            if query == TPCD_SCORE_GAP
            else query
            for query in TPCD_QUERIES
        ],
    )
    def test_tpcd_gather_is_score_equal(self, tpcd_answers, query):
        sharded, single = tpcd_answers[query]
        # Never worse both ways: the same scores, rank for rank.
        assert never_worse(sharded, single) and never_worse(single, sharded)

    def test_single_shard_router_matches_single_engine(
        self, bibliography_session, biblio_banks_session
    ):
        database, _ = bibliography_session
        with ShardRouter(database, shards=1, backend="thread") as router:
            query = PARITY_QUERIES[0]
            assert same_up_to_ties(
                router.search(query, max_results=5),
                biblio_banks_session.search(query, max_results=5),
            )

    def test_resolution_union_matches_unsharded(
        self, biblio_router, biblio_banks_session
    ):
        for query in PARITY_QUERIES:
            assert biblio_router.resolve(query) == (
                biblio_banks_session.resolve(query)
            )

    def test_answers_root_in_their_own_shard(self, biblio_router):
        partition = biblio_router.partition
        for answer in biblio_router.search("soumen sunita", max_results=5):
            assert partition.shard_of(answer.root) == answer.root_shard


class TestCrossShard:
    def test_planted_cross_shard_answer_scores_identically(self, figure1_db):
        """An answer tree spanning shards must surface in the global
        top-k with the same score the unsharded engine gives it."""
        from repro import BANKS

        single = BANKS(figure1_db).search("soumen sunita", max_results=5)
        assert single, "the planted Fig. 1 answer must exist unsharded"
        reference = {
            a.tree.undirected_key(): a.relevance for a in single
        }

        by_table = {"author": 0, "paper": 1, "writes": 2, "cites": 2}
        with ShardRouter(
            figure1_db,
            shards=3,
            strategy=lambda node: by_table[node[0]],
            backend="thread",
        ) as router:
            answers = router.search("soumen sunita", max_results=5)
            assert answers
            best = answers[0]
            # Root (paper), keyword authors and writes rows live on
            # three different shards by construction.
            assert best.is_cross_shard()
            assert len(best.shards()) == 3
            key = best.tree.undirected_key()
            assert key in reference
            assert best.relevance == pytest.approx(
                reference[key], abs=1e-9
            )

    def test_cross_shard_metric_counts(self, biblio_router):
        before = biblio_router.metrics.snapshot()
        biblio_router.search("soumen sunita", max_results=5)
        after = biblio_router.metrics.snapshot()
        assert after["queries_total"] == before["queries_total"] + 1
        assert (
            after["cross_shard_answers_total"]
            > before["cross_shard_answers_total"]
        )


class TestRouteDispatch:
    @pytest.fixture(scope="class")
    def route_router(self, bibliography_session):
        database, _ = bibliography_session
        with ShardRouter(
            database, shards=4, backend="thread", dispatch="route"
        ) as router:
            yield router

    def test_routed_answers_match_single_engine(
        self, route_router, biblio_banks_session
    ):
        # The worker searches the very graph the single engine built,
        # so even the emission order among exact-score ties is kept.
        for query in PARITY_QUERIES:
            routed = route_router.search(query, max_results=5)
            single = biblio_banks_session.search(query, max_results=5)
            assert same(routed, single), query

    def test_routing_spreads_queries_across_shards(self, route_router):
        for query in PARITY_QUERIES:
            route_router.search(query, max_results=2)
        snapshot = route_router.metrics.snapshot()
        used = [
            shard_id
            for shard_id in range(4)
            if snapshot[f"shard{shard_id}_searches_total"] > 0
        ]
        assert len(used) >= 2  # hash placement, not one hot worker

    def test_repeat_queries_keep_shard_affinity(self, route_router):
        before = route_router.metrics.snapshot()
        for _ in range(3):
            route_router.search(PARITY_QUERIES[0], max_results=2)
        after = route_router.metrics.snapshot()
        touched = [
            shard_id
            for shard_id in range(4)
            if after[f"shard{shard_id}_searches_total"]
            > before[f"shard{shard_id}_searches_total"]
        ]
        assert len(touched) == 1

    def test_rejects_unknown_dispatch(self, figure1_db):
        with pytest.raises(ShardError):
            ShardRouter(figure1_db, shards=2, dispatch="broadcast")


class TestRouterMechanics:
    def test_per_shard_metrics_registered(self, biblio_router):
        snapshot = biblio_router.metrics.snapshot()
        for shard_id in range(4):
            assert f"shard{shard_id}_searches_total" in snapshot
            assert snapshot[f"shard{shard_id}_nodes"] > 0
        assert snapshot["shards"] == 4
        assert snapshot["cut_edges"] == biblio_router.partition.cut_edge_count
        assert snapshot["cut_edges"] == len(
            biblio_router.partition.cut_links(biblio_router.graph)
        )

    def test_describe_reports_partition_facts(self, biblio_router):
        info = biblio_router.describe()
        assert info["shards"] == 4
        assert sum(info["shard_nodes"]) == info["nodes"]
        assert 0.0 < info["cut_fraction"] < 1.0

    def test_answer_rendering_labels_nodes(self, biblio_router):
        answer = biblio_router.search("soumen sunita", max_results=1)[0]
        rendered = answer.render()
        assert "paper:" in rendered or "author:" in rendered

    def test_rejects_bad_configuration(self, figure1_db):
        with pytest.raises(ShardError):
            ShardRouter(figure1_db, shards=2, backend="carrier-pigeon")
        with pytest.raises(ShardError):
            ShardRouter(figure1_db, shards=2, overfetch=-1)

    def test_stopped_router_rejects_searches(self, figure1_db):
        router = ShardRouter(figure1_db, shards=2, backend="thread")
        router.stop()
        with pytest.raises(Exception):
            router.search("soumen", max_results=3)
