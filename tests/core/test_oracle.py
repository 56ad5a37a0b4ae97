"""The oracle: the reference search and the relations answers are judged by.

Three things are pinned here.  The side searchers (federated, DataSpot)
run the CSR kernel and still give the reference's answers on their own
node ids.  ``BANKS(database, freeze=False)`` answers without ever
calling the kernel, so a parity check against it compares two
implementations, not one with itself.  And the relations say what they
promise at the tolerance and tie-class boundaries.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.banks
from repro.baselines.dataspot import DataSpotSearch, build_hyperbase
from repro.core.banks import BANKS
from repro.core.oracle import (
    TOLERANCE,
    never_worse,
    reference_search,
    same,
    same_up_to_ties,
    signature,
)
from repro.core.query import parse_query, resolve_query
from repro.core.summarize import structure_signature
from repro.datasets import generate_bibliography
from repro.federate import ExternalLink, FederatedBanks, Federation
from repro.graph.csr import CSROverlayGraph

QUERIES = ("soumen sunita", "soumen sunita byron", "transaction", "mining")


def trees(answers):
    """Root, exact relevance and undirected tree of each answer, in order."""
    return [(a.tree.root, a.relevance, a.tree.undirected_key()) for a in answers]


@pytest.fixture(scope="module")
def database():
    return generate_bibliography(papers=60, authors=40, seed=9)[0]


class TestSideSearchersRunTheKernel:
    def test_federated_ids(self):
        federation = Federation("pair")
        for seed in (3, 4):
            database = generate_bibliography(papers=40, authors=30, seed=seed)[0]
            federation.register(f"bib{seed}", database)
        name = ("author", "name")
        federation.add_link(ExternalLink("same-person", "bib3", *name, "bib4", *name))
        banks = FederatedBanks(federation)
        assert isinstance(banks.graph, CSROverlayGraph)
        graph, _stats = federation.build_graph()
        config = replace(banks.search_config, max_results=10)
        for query in QUERIES:
            keyword_node_sets = banks.resolve(query)
            expected = reference_search(graph, keyword_node_sets, banks.scorer, config)
            answers = banks.search(query, max_results=10)
            assert answers and trees(answers) == trees(expected), query
        assert any(a.is_cross_database() for a in banks.search("soumen sunita"))

    def test_dataspot_hyperbase(self, database):
        system = DataSpotSearch(database)
        assert isinstance(system.graph, CSROverlayGraph)
        graph = build_hyperbase(database)
        for query in QUERIES:
            keyword_node_sets = resolve_query(
                parse_query(query), system.index, database, include_metadata=False
            )
            expected = reference_search(
                graph, keyword_node_sets, system.scorer, system.config
            )
            answers = system.search(query)
            assert answers and trees(answers) == trees(expected), query


class KernelCalled(Exception):
    pass


def refuse(*_args, **_kwargs):
    raise KernelCalled


class TestOracleIndependence:
    def test_oracle_facade_never_calls_the_kernel(self, database, monkeypatch):
        oracle = BANKS(database, freeze=False)
        monkeypatch.setattr(repro.core.banks, "backward_expanding_search", refuse)
        config = replace(oracle.search_config, max_results=5)
        for query in QUERIES:
            keyword_node_sets = oracle.resolve(query)
            expected = list(
                reference_search(oracle.graph, keyword_node_sets, oracle.scorer, config)
            )
            answers = oracle.search(query, max_results=5)
            assert answers and trees(answers) == trees(expected), query

        query = QUERIES[0]
        scan = replace(oracle.search_config, max_results=200)
        candidates = list(
            reference_search(oracle.graph, oracle.resolve(query), oracle.scorer, scan)
        )
        shape = structure_signature(candidates[0].tree)
        expected = [a for a in candidates if structure_signature(a.tree) == shape]
        matches = oracle.search_structure(query, shape, max_results=3)
        assert matches and trees(matches) == trees(expected[:3])

    def test_frozen_facade_searches_through_the_module_name(
        self, database, monkeypatch
    ):
        """The benchmark's trace shim wraps this very name."""
        banks = BANKS(database)
        monkeypatch.setattr(repro.core.banks, "backward_expanding_search", refuse)
        with pytest.raises(KernelCalled):
            banks.search(QUERIES[0])
        with pytest.raises(KernelCalled):
            banks.search_structure(QUERIES[0], "paper")


A, B, C = ("author", 1), ("author", 2), ("paper", 3)


class TestRelations:
    def test_same_reads_roots_in_order(self):
        assert same([(A, 0.5), (B, 0.4)], [(A, 0.5), (B, 0.4)])
        assert not same([(B, 0.4), (A, 0.5)], [(A, 0.5), (B, 0.4)])
        assert not same([(A, 0.5)], [(A, 0.5), (B, 0.4)])

    def test_score_off_by_2e_9_fails_same(self):
        assert same([(A, 0.5 + TOLERANCE / 2)], [(A, 0.5)])
        assert not same([(A, 0.5 + 2e-9)], [(A, 0.5)])

    def test_permutation_inside_a_tie_class_passes(self):
        expected = [(A, 0.5), (B, 0.5), (C, 0.3)]
        served = [(B, 0.5), (A, 0.5 + TOLERANCE / 2), (C, 0.3)]
        assert same_up_to_ties(served, expected)
        assert not same(served, expected)

    def test_swap_across_classes_fails(self):
        expected = [(A, 0.5), (B, 0.5), (C, 0.3)]
        assert not same_up_to_ties([(A, 0.5), (C, 0.5), (B, 0.3)], expected)
        assert not same_up_to_ties([(A, 0.5), (B, 0.5)], expected)

    def test_never_worse(self):
        expected = [(A, 0.5), (B, 0.3)]
        assert never_worse([(C, 0.6), (A, 0.5 - TOLERANCE / 2), (B, 0.3)], expected)
        assert not never_worse([(A, 0.5), (C, 0.2)], expected)
        assert not never_worse([(A, 0.5)], expected)

    def test_signature_reads_answers(self, database):
        answers = BANKS(database).search(QUERIES[0], max_results=3)
        assert signature(answers) == [(a.root, a.relevance) for a in answers]
        assert same(answers, signature(answers))
