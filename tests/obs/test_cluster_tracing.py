"""End-to-end tracing through the cluster stack.

A query against each topology returns a :class:`QueryResult` whose trace reconstructs a
single rooted span tree (across thread *and* forked-worker backends),
and a deliberately slow query surfaces in the trace store / slow log
with its kernel profile populated.
"""

from __future__ import annotations

import json

import pytest

from repro.browse.app import BrowseApp
from repro.cluster import Cluster, ClusterSpec, QueryRequest
from repro.errors import EmptyQueryError
from repro.obs import span_tree

QUERY = "soumen sudarshan"

TOPOLOGIES = [
    ("single", {}),
    ("sharded", {"shards": 2}),
    ("replicated", {"replicas": 2}),
    ("single", {"live": True}),
]


def _names(node, out=None):
    out = [] if out is None else out
    out.append(node["span"]["name"])
    for child in node["children"]:
        _names(child, out)
    return out


@pytest.fixture(scope="module")
def database(bibliography_session):
    return bibliography_session[0]


class TestSpanTreePerTopology:
    @pytest.mark.parametrize("topology,extra", TOPOLOGIES)
    def test_single_rooted_tree(self, database, topology, extra):
        spec = ClusterSpec(
            topology=topology,
            shard_backend="thread",
            replica_backend="thread",
            **extra,
        )
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=5))
            # One read, one stored record: only the cluster seals.
            assert cluster.obs.store.stats()["stored"] == 1
        record = result.trace
        assert record is not None
        assert record.topology == topology
        assert record.query == QUERY
        roots = span_tree(record.spans)
        assert len(roots) == 1, [s["name"] for s in record.spans]
        assert roots[0]["span"]["name"] == "query"
        names = _names(roots[0])
        if topology == "single":
            assert "engine.execute" in names
        if "sharded" in topology:
            assert "router.search" in names
            assert "router.merge" in names
            assert names.count("shard.search") == 2
        if "replicated" in topology:
            assert "replicaset.dispatch" in names
        # Every span is closed and carries the one trace id.
        for span in record.spans:
            assert span["end"] is not None
            assert span["trace_id"] == record.trace_id
        # The kernel profile rode along and counted real work.
        assert result.profile is not None
        assert result.profile.heap_pops > 0
        assert result.profile.answers_emitted > 0
        assert record.profile["heap_pops"] == result.profile.heap_pops
        assert 0 < result.profile.lanes_started <= result.profile.iterators

    @pytest.mark.parametrize("topology,extra", TOPOLOGIES)
    def test_failed_read_stores_one_record(self, database, topology, extra):
        spec = ClusterSpec(
            topology=topology,
            shard_backend="thread",
            replica_backend="thread",
            **extra,
        )
        with Cluster(spec, database=database) as cluster:
            with pytest.raises(EmptyQueryError):
                cluster.query("   ")
            assert cluster.obs.store.stats()["stored"] == 1
            (record,) = cluster.obs.store.recent(10)
        assert record.attrs["error"] == "EmptyQueryError"

    def test_forked_workers_reparent_into_one_tree(self, database):
        spec = ClusterSpec(
            topology="sharded", shards=2, shard_backend="process"
        )
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=5))
        roots = span_tree(result.trace.spans)
        assert len(roots) == 1
        names = _names(roots[0])
        assert names.count("shard.search") == 2
        assert result.profile.heap_pops > 0
        # ...and survives the forked workers' pipes as a plain dict key
        assert 0 < result.profile.lanes_started <= result.profile.iterators

    def test_replica_process_backend_reparents(self, database):
        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="process"
        )
        with Cluster(spec, database=database) as cluster:
            cluster.start()
            result = cluster.query(QueryRequest(QUERY, k=5))
        roots = span_tree(result.trace.spans)
        assert len(roots) == 1
        assert "replica.search" in _names(roots[0])
        assert result.profile.heap_pops > 0


class TestSamplingKnobs:
    def test_off_disables_tracing(self, database):
        spec = ClusterSpec(trace_sample="off", slow_query_ms=None)
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=3))
        assert result.trace is None
        assert result.profile is None
        assert len(result.answers) > 0

    def test_slow_mode_keeps_only_slow_queries(self, database):
        # A generous threshold: the query is fast, so nothing is kept…
        spec = ClusterSpec(trace_sample="slow", slow_query_ms=60_000.0)
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=3))
            assert result.trace is not None  # the caller still gets it
            assert cluster.obs.store.stats()["stored"] == 0
        # …while a 0-ms threshold marks everything slow and keeps it.
        spec = ClusterSpec(trace_sample="slow", slow_query_ms=0.001)
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=3))
            assert result.trace.slow
            slow = cluster.obs.store.slow()
            assert [r.trace_id for r in slow] == [result.trace.trace_id]
            assert slow[0].profile["heap_pops"] > 0

    def test_spec_validates_knobs(self):
        with pytest.raises(Exception):
            ClusterSpec(trace_sample="sometimes").validate()
        with pytest.raises(Exception):
            ClusterSpec(slow_query_ms=-1.0).validate()
        with pytest.raises(Exception):
            ClusterSpec(trace_buffer=0).validate()


class TestBrowseSurfaces:
    def test_trace_pages_and_slow_json(self, database):
        spec = ClusterSpec(
            topology="sharded", shards=2, slow_query_ms=0.001
        )
        with Cluster(spec, database=database) as cluster:
            result = cluster.query(QueryRequest(QUERY, k=3))
            app = BrowseApp(cluster)
            status, body, ctype = app.handle_full("/trace")
            assert status.startswith("200")
            assert ctype.startswith("text/html")
            assert result.trace.trace_id in body
            status, body, _ = app.handle_full(
                f"/trace/{result.trace.trace_id}"
            )
            assert status.startswith("200")
            assert "router.search" in body
            assert "profile:" in body
            status, body, _ = app.handle_full("/trace/0000000000000000")
            assert "No trace" in body
            status, body, ctype = app.handle_full("/debug/slow")
            assert ctype.startswith("application/json")
            payload = json.loads(body)
            assert payload["stats"]["slow_stored"] >= 1
            assert payload["slow"][0]["profile"]["heap_pops"] > 0
