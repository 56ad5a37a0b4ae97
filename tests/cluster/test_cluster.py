"""Cluster: four topologies, one request/response contract."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, QueryRequest, QueryResult
from repro.core.banks import BANKS
from repro.core.oracle import same
from repro.errors import ClusterError


@pytest.fixture(scope="module")
def university():
    from repro.datasets import generate_university

    return generate_university()[0]


class TestSingleTopology:
    def test_query_carries_provenance_and_epoch(self, university):
        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            result = cluster.query(QueryRequest("alice seminar", k=3))
            assert isinstance(result, QueryResult)
            assert result.topology == "single"
            assert result.served_by == "engine"
            assert result.replica is None and result.shards == ()
            assert result.epoch == 0
            assert result.latency > 0
            # Parity with a bare facade.
            plain = BANKS(university).search("alice seminar", max_results=3)
            assert same(result.answers, plain)

    def test_submit_resolves_to_the_same_result(self, university):
        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            future = cluster.submit("alice seminar", k=3)
            result = future.result(timeout=30)
            assert result.served_by == "engine"
            assert result.answers

    def test_string_query_with_overrides(self, university):
        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            assert cluster.query("alice seminar", k=2).answers
            with pytest.raises(ClusterError):
                cluster.query(QueryRequest("alice"), k=2)
            with pytest.raises(ClusterError):
                cluster.submit(QueryRequest("alice"), k=2)

    def test_immutable_topology_refuses_writes(self, university):
        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            with pytest.raises(ClusterError):
                cluster.insert("student", ["S1", "X", "BIGDEPT"])

    def test_closed_cluster_refuses_queries(self, university):
        cluster = Cluster(ClusterSpec(), database=university.fork())
        cluster.close()
        with pytest.raises(ClusterError):
            cluster.query("alice")

    def test_live_topology_mutates_through_the_engine(self, university):
        spec = ClusterSpec(live=True)
        with Cluster(spec, database=university.fork()) as cluster:
            rid = cluster.insert("student", ["S901", "Zara Quine", "BIGDEPT"])
            assert rid[0] == "student"
            result = cluster.query("zara quine", k=3)
            assert result.epoch == 1
            assert any(a.tree.root == rid for a in result.answers)
            cluster.update(rid, {"name": "Zara Quill"})
            cluster.delete(rid)
            assert cluster.epoch == 3

    def test_spec_db_specifier_resolves(self):
        with Cluster(ClusterSpec(db="demo:university")) as cluster:
            assert cluster.query("alice seminar", k=1).answers

    def test_missing_database_refused(self):
        with pytest.raises(ClusterError):
            Cluster(ClusterSpec())


class TestShardedTopology:
    def test_query_carries_shard_provenance(self, university):
        spec = ClusterSpec(
            topology="sharded", shards=3, shard_backend="thread"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            result = cluster.query(QueryRequest("alice seminar", k=3))
            assert result.served_by == "router"
            assert result.shards  # at least the root's shard
            assert all(0 <= s < 3 for s in result.shards)
            plain = BANKS(university).search("alice seminar", max_results=3)
            assert same(result.answers, plain)

    def test_mutations_route_and_advance_the_epoch(self, university):
        spec = ClusterSpec(
            topology="sharded", shards=2, shard_backend="thread"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            rid = cluster.insert("student", ["S902", "Quorum Vector", "BIGDEPT"])
            result = cluster.query("quorum vector", k=3)
            assert result.epoch == 1
            assert any(a.tree.root == rid for a in result.answers)
            with pytest.raises(ClusterError):
                cluster.mutate(lambda f: None)  # routers route typed writes


class TestFollowerTopology:
    def test_follower_tails_an_external_primary(self, university, tmp_path):
        wal = str(tmp_path / "wal")
        primary_spec = ClusterSpec(live=True, wal_path=wal)
        with Cluster(primary_spec, database=university.fork()) as primary:
            rid = primary.insert(
                "student", ["S903", "Walter Logmann", "BIGDEPT"]
            )
            follower_spec = ClusterSpec(follow=True, wal_path=wal)
            with Cluster(
                follower_spec, database=university.fork()
            ) as follower:
                assert follower.read_only
                result = follower.query("walter logmann", k=3)
                assert result.served_by == "follower"
                assert result.epoch == 1
                assert any(a.tree.root == rid for a in result.answers)
                with pytest.raises(ClusterError):
                    follower.insert("student", ["S9", "X", "B"])
                # New primary epochs arrive on poll.
                primary.insert("student", ["S904", "Xo Lattice", "BIGDEPT"])
                follower.follower.poll()
                assert follower.epoch == 2

    def test_live_primary_recovers_existing_wal(self, university, tmp_path):
        wal = str(tmp_path / "wal")
        spec = ClusterSpec(live=True, wal_path=wal)
        with Cluster(spec, database=university.fork()) as primary:
            primary.insert("student", ["S905", "Recov Ery", "BIGDEPT"])
        with Cluster(spec, database=university.fork()) as restarted:
            assert restarted.recovered_epochs == 1
            assert restarted.query("recov ery", k=3).answers


class TestReplicatedTopology:
    def test_read_your_writes_observes_the_mutation(self, university):
        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="thread"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            rid = cluster.insert("student", ["S906", "Fresh Write", "BIGDEPT"])
            result = cluster.query(
                QueryRequest(
                    "fresh write", k=3, consistency="read_your_writes"
                )
            )
            assert result.epoch >= 1
            assert any(a.tree.root == rid for a in result.answers)
            assert result.served_by.startswith(("replica-", "primary"))

    def test_primary_consistency_pins_the_primary(self, university):
        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="thread"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            result = cluster.query(
                QueryRequest("alice seminar", k=3, consistency="primary")
            )
            assert result.served_by == "primary"
            assert result.replica is None


class TestReadOnly:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"live": True},
            {"follow": True},
            {"topology": "sharded", "shards": 2, "shard_backend": "thread"},
            {
                "topology": "replicated",
                "replicas": 2,
                "replica_backend": "thread",
            },
        ],
        ids=["single", "live", "follow", "sharded", "replicated"],
    )
    def test_read_only_iff_writes_raise(self, university, tmp_path, kwargs):
        """One rule answers both questions: a cluster reports
        ``read_only`` exactly when its writes raise."""
        if kwargs.get("follow"):
            wal = str(tmp_path / "wal")
            primary = ClusterSpec(live=True, wal_path=wal)
            with Cluster(primary, database=university.fork()):
                pass
            kwargs = dict(kwargs, wal_path=wal)
        spec = ClusterSpec(**kwargs)
        with Cluster(spec, database=university.fork()) as cluster:
            try:
                cluster.insert("student", ["S907", "Read Only", "BIGDEPT"])
                refused = False
            except ClusterError:
                refused = True
            assert cluster.read_only == refused


class TestBrowseAppIntegration:
    def test_app_builds_from_cluster_and_serves_replicas_page(
        self, university
    ):
        from repro.browse.app import BrowseApp

        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="thread"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            app = BrowseApp(cluster)
            status, body = app.handle("/replicas", "")
            assert status.startswith("200")
            assert "staleness bound" in body
            # /mutate routes to the primary through the replica set.
            status, body = app.handle(
                "/mutate", "op=insert&table=student&v=S907&v=Web+Write&v=BIGDEPT"
            )
            assert status.startswith("200") and "epoch: 1" in body

    def test_app_refuses_cluster_plus_explicit_parts(self, university):
        """One constructor: the cluster is the only argument."""
        from repro.browse.app import BrowseApp

        with Cluster(ClusterSpec(), database=university.fork()) as cluster:
            with pytest.raises(TypeError):
                BrowseApp(BANKS(university), cluster=cluster)
            with pytest.raises(TypeError):
                BrowseApp(cluster, engine=cluster.backend)
