"""Search state is bounded by what a search touches, not by |V| x lanes.

A dense lane (distance, parent, parent-weight and settled arrays) costs
25 bytes per graph node per matching keyword node whether the lane ever
runs or not; the kernel's sparse lanes cost nothing until they settle
something.  These tests pin that with
``tracemalloc`` — allocation counts, no timing — and check the
configuration in which the dense layout hurt most: several engine
workers answering broad queries at once.
"""

from __future__ import annotations

import threading
import tracemalloc

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.banks import BANKS
from repro.datasets import synth_bibliography
from repro.obs import SearchProfile

#: What one dense lane held per graph node: three 8-byte arrays + 1 byte.
DENSE_LANE_BYTES_PER_NODE = 25

#: Traced peak per heap pop of a point search on ``synth:1600``.  A
#: settled set, ``(parent, weight)`` link tuples and per-node lists for
#: every term cost 680-810 B; without them, ``(distance, counter)``
#: heap entries cost 403-496 B; distance buckets, 360-455 B.
POINT_BYTES_PER_POP = 500


@pytest.fixture(scope="module")
def banks():
    """``synth:1600``: 8,748 nodes, built before any tracing starts."""
    return BANKS(synth_bibliography(1600)[0])


def traced_peak(action) -> int:
    """Peak bytes allocated while ``action`` runs."""
    tracemalloc.start()
    try:
        action()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestLaneMemory:
    def test_broad_search_allocates_a_fraction_of_dense_lanes(self, banks):
        profile = SearchProfile()
        peak = traced_peak(lambda: banks.search("mining discovery", profile=profile))
        assert profile.iterators > 200  # 124 + 109 matches, 8 shared
        dense = profile.iterators * banks.graph.num_nodes * DENSE_LANE_BYTES_PER_NODE
        assert dense > 45_000_000
        assert peak < dense / 10

    @pytest.mark.parametrize("query", ["3 11", "17 250", "5 400"])
    def test_point_search_bytes_per_pop(self, banks, query):
        """Settling a node keeps its distance, its parent id and its
        bucket entry; a visit no tree can root at yet is one list entry."""
        profile = SearchProfile()
        peak = traced_peak(lambda: banks.search(query, profile=profile))
        assert profile.iterators == 2 and profile.heap_pops > 2000
        assert peak < POINT_BYTES_PER_POP * profile.heap_pops


class TestConcurrentBroadQueries:
    def test_four_workers_answer_distinct_title_words(self):
        database = synth_bibliography(800)[0]
        reference = BANKS(database.fork(), freeze=False)
        queries = ("mining", "indexing", "adaptive views", "parallel queries")
        expected = {
            query: [
                (answer.root, answer.relevance)
                for answer in reference.search(query, max_results=5)
            ]
            for query in queries
        }
        assert all(expected.values())

        results = {}
        errors = []
        barrier = threading.Barrier(len(queries))

        def ask(cluster, query):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    answers = cluster.query(query, k=5).answers
                    results[query] = [(a.root, a.relevance) for a in answers]
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        spec = ClusterSpec(topology="single", workers=4)
        with Cluster(spec, database=database) as cluster:
            threads = [
                threading.Thread(target=ask, args=(cluster, query))
                for query in queries
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == expected
