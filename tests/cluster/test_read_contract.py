"""The cluster read contract, on every topology.

``Cluster.query``, ``Cluster.submit(...).result()`` and
``Cluster.query_stream`` are three forms of one read: the same answers,
one sealed trace each, and the same kernel work.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import Cluster, ClusterSpec, QueryRequest
from repro.core.oracle import same
from repro.errors import ClusterError

QUERY = QueryRequest("alice seminar", k=3)

TOPOLOGIES = {
    "single": {},
    "live": {"live": True},
    "sharded-thread": {
        "topology": "sharded",
        "shards": 2,
        "shard_backend": "thread",
    },
    "sharded-process": {
        "topology": "sharded",
        "shards": 2,
        "shard_backend": "process",
    },
    "replicated": {"topology": "replicated", "replicas": 2},
}


@pytest.fixture(scope="module")
def university():
    from repro.datasets import generate_university

    return generate_university()[0]


@pytest.fixture(scope="module", params=list(TOPOLOGIES), ids=list(TOPOLOGIES))
def cluster(request, university):
    spec = ClusterSpec(**TOPOLOGIES[request.param])
    with Cluster(spec, database=university.fork()) as cluster:
        if spec.replicated:
            cluster.backend.sync()
        yield cluster


def _uncached(cluster):
    """Drop the result cache a ``single`` cluster keeps, so every read
    runs the kernel."""
    invalidate = getattr(cluster.banks, "invalidate", None)
    if invalidate is not None:
        invalidate()


def _streamed(cluster, request):
    events = list(cluster.query_stream(request))
    answers = [payload for kind, payload in events if kind == "answer"]
    return events, answers, events[-1][1]


def _three_forms(cluster):
    _uncached(cluster)
    queried = cluster.query(QUERY)
    _uncached(cluster)
    submitted = cluster.submit(QUERY).result(timeout=60)
    _uncached(cluster)
    _events, _answers, streamed = _streamed(cluster, QUERY)
    return queried, submitted, streamed


def _counters(result):
    counts = result.profile.to_dict()
    counts.pop("expansion_seconds")  # wall time, not work
    return counts


class TestReadContract:
    def test_three_forms_return_the_same_answers(self, cluster):
        queried, submitted, streamed = _three_forms(cluster)
        assert queried.answers
        for other in (submitted, streamed):
            assert same(other.answers, queried.answers)
            assert other.served_by.split("-")[0] == queried.served_by.split("-")[0]

    def test_stream_is_answers_then_exactly_one_result(self, cluster):
        _uncached(cluster)
        events, answers, result = _streamed(cluster, QUERY)
        kinds = [kind for kind, _payload in events]
        assert kinds == ["answer"] * len(answers) + ["result"]
        assert same(answers, result.answers)

    def test_stream_answers_come_in_emission_order(self, cluster):
        """Inline deployments stream what the kernel emits, in order;
        the others replay the ranked result."""
        emitted = []
        _uncached(cluster)
        result = cluster.query(QUERY, on_answer=emitted.append)
        if not cluster.streams_inline():
            assert emitted == []  # the hook never reaches the workers
            emitted = result.answers
        _uncached(cluster)
        _events, answers, _result = _streamed(cluster, QUERY)
        assert same(answers, emitted)

    def test_each_read_seals_one_trace_with_equal_counters(self, cluster):
        store = cluster.obs.store
        before = store.offered
        results = _three_forms(cluster)
        assert store.offered == before + 3
        assert all(result.trace is not None for result in results)
        assert len({result.trace.trace_id for result in results}) == 3
        counters = [_counters(result) for result in results]
        assert counters[0]["heap_pops"] > 0
        assert counters[1] == counters[0] and counters[2] == counters[0]

    def test_closed_cluster_raises_at_the_first_next(self, university):
        cluster = Cluster(ClusterSpec(), database=university.fork())
        stream = cluster.query_stream(QUERY)
        cluster.close()
        with pytest.raises(ClusterError):
            next(stream)


def test_a_gather_streams_only_merged_answers():
    """Each gather shard emits its own candidates; the stream carries
    the merged top-k, not every shard's emissions."""
    from repro.cli import load_database

    spec = ClusterSpec(topology="sharded", shards=2, shard_backend="thread")
    with Cluster(spec, database=load_database("synth:800")) as cluster:
        assert not cluster.streams_inline()
        request = QueryRequest("mining discovery", k=5)
        _events, answers, result = _streamed(cluster, request)
        assert len(result.answers) == 5
        assert same(answers, result.answers)


class TestCancellation:
    def test_cancelling_one_caller_leaves_a_shared_flight(self, university):
        """Two callers share one engine flight; the one that cancels
        abandons only itself, and both reads are still traced."""
        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            gate, entered = threading.Event(), threading.Event()
            search = cluster.banks.search

            def gated(*args, **kwargs):
                entered.set()
                assert gate.wait(30)
                return search(*args, **kwargs)

            cluster.banks.search = gated
            offered = cluster.obs.store.offered
            first = cluster.submit(QUERY)
            assert entered.wait(30)
            second = cluster.submit(QUERY)
            assert first.cancel()
            gate.set()
            result = second.result(timeout=30)
            assert result.answers
            assert first.cancelled()
            metrics = cluster.metrics.snapshot()
            assert metrics["dedup_shared_total"] == 1
            assert metrics["completed_total"] == 1
            assert cluster.obs.store.offered == offered + 2
