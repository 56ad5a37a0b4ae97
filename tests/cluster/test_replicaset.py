"""ReplicaSet: balancing, staleness exclusion, failover, re-admission."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, QueryRequest
from repro.core.oracle import same
from repro.errors import ClusterError


@pytest.fixture(scope="module")
def university():
    from repro.datasets import generate_university

    return generate_university()[0]


def _thread_cluster(database, replicas=2, **spec_overrides):
    spec = ClusterSpec(
        topology="replicated",
        replicas=replicas,
        replica_backend="thread",
        max_lag=2,
        **spec_overrides,
    )
    return Cluster(spec, database=database.fork())


class TestBalancing:
    def test_round_robin_rotates_replicas(self, university):
        with _thread_cluster(university, replicas=3) as cluster:
            served = [
                cluster.query("alice seminar", k=2).replica for _ in range(6)
            ]
            assert set(served) == {0, 1, 2}
            # Strict rotation: each replica exactly twice.
            assert all(served.count(i) == 2 for i in range(3))

    def test_least_inflight_prefers_idle_replicas(self, university):
        with _thread_cluster(university, replicas=3) as cluster:
            replica_set = cluster.backend
            # Pin synthetic load on replicas 0 and 1: the balancer must
            # send the next read to the idle one.
            replica_set._handles[0].inflight = 5
            replica_set._handles[1].inflight = 3
            assert cluster.query("alice seminar", k=2).replica == 2
            replica_set._handles[0].inflight = 0
            replica_set._handles[1].inflight = 0

    def test_every_replica_matches_the_primary(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            cluster.insert("student", ["S801", "Parity Probe", "BIGDEPT"])
            replica_set.sync()
            for query in ("alice seminar", "parity probe"):
                primary = cluster.query(
                    QueryRequest(query, k=5, consistency="primary")
                ).answers
                for index in range(2):
                    replica = replica_set.search_on(index, query, max_results=5)
                    assert same(replica, primary)


class TestStalenessExclusion:
    def test_laggard_is_excluded_then_readmitted(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            replica_set.suspend_replica(0)
            for step in range(4):  # max_lag=2, so lag 4 > bound
                cluster.insert(
                    "student", [f"S81{step}", f"Lag Drill{step}", "BIGDEPT"]
                )
            replica_set.resume_replica(1)
            assert replica_set.lag_epochs(0) == 4
            served = {cluster.query("alice", k=2).replica for _ in range(4)}
            assert 0 not in served
            status = replica_set.replica_status()
            assert status[0]["state"] == "excluded"
            # Catch back up: re-admitted and serving again.
            replica_set.resume_replica(0)
            assert replica_set.lag_epochs(0) == 0
            served = {cluster.query("alice", k=2).replica for _ in range(4)}
            assert 0 in served
            snapshot = replica_set.metrics.snapshot()
            assert snapshot["replica_excluded_total"] >= 1
            assert snapshot["replica_readmitted_total"] >= 1

    def test_readmitted_replica_rejoins_the_rotation(self, university):
        """A replica back from exclusion has served far fewer reads than
        its peer; it takes its turn, not every read until it is even."""
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            replica_set.suspend_replica(0)
            for step in range(4):  # max_lag=2, so lag 4 > bound
                cluster.insert(
                    "student", [f"S83{step}", f"Rejoin Drill{step}", "BIGDEPT"]
                )
            replica_set.resume_replica(1)
            assert [cluster.query("alice", k=2).replica for _ in range(4)] == [
                1, 1, 1, 1
            ]
            replica_set.resume_replica(0)
            served = [cluster.query("alice", k=2).replica for _ in range(4)]
            assert served == [0, 1, 0, 1]

    def test_all_laggards_fall_back_to_the_primary(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            replica_set.suspend_replica(0)
            replica_set.suspend_replica(1)
            for step in range(4):
                cluster.insert(
                    "student", [f"S82{step}", f"Fallback {step}", "BIGDEPT"]
                )
            result = cluster.query("fallback", k=3)
            assert result.served_by == "primary"
            assert (
                replica_set.metrics.snapshot()["primary_reads_total"] >= 1
            )


class TestFailover:
    def test_kill_heal_readmit_with_parity_and_metrics(self, university):
        """The failover drill: kill one replica mid-load, the front end
        keeps serving with parity, the replica is re-admitted after it
        catches up, and /metrics surfaces the whole event."""
        from repro.browse.app import BrowseApp

        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            app = BrowseApp(cluster)
            baseline = cluster.query(
                QueryRequest("alice seminar", k=3, consistency="primary")
            ).answers
            replica_set.kill_replica(0)
            # Mid-load: every read keeps being served, parity intact.
            for _step in range(4):
                result = cluster.query("alice seminar", k=3)
                assert same(result.answers, baseline)
                assert result.replica in (1, None)
            # History keeps accumulating while the replica is down.
            cluster.insert("student", ["S830", "Heal Probe", "BIGDEPT"])
            assert replica_set.heal() == 1
            status = replica_set.replica_status()
            assert status[0]["state"] == "active"
            assert status[0]["lag_epochs"] == 0
            served = {cluster.query("heal probe", k=2).replica for _ in range(4)}
            assert 0 in served
            # The event is on /metrics (and the /replicas page).
            metrics_text = cluster.metrics.render_text()
            assert "banks_replicaset_replica_deaths_total 1" in metrics_text
            assert (
                "banks_replicaset_replica_readmitted_total 1" in metrics_text
            )
            _status, replicas_html = app.handle("/replicas", "")
            assert "re-admissions: 1" in replicas_html

    def test_midflight_failure_retries_elsewhere(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            handle = replica_set._handles[0]

            def explode(*_args, **_kwargs):
                raise ClusterError("simulated mid-flight replica loss")

            handle.worker.search_scored = explode
            served = [cluster.query("alice seminar", k=2) for _ in range(3)]
            assert all(r.answers is not None for r in served)
            assert all(r.replica in (1, None) for r in served)
            snapshot = replica_set.metrics.snapshot()
            assert snapshot["replica_failovers_total"] == 1
            assert snapshot["replica_deaths_total"] == 1

    def test_process_backend_kill_and_heal(self, university):
        """The forked-worker backend survives a hard process kill."""
        from repro.shard.process import fork_available

        if not fork_available():  # pragma: no cover - fork exists on CI
            pytest.skip("fork unavailable")
        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="process"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            replica_set = cluster.backend
            assert replica_set.backend == "process"
            baseline = cluster.query(
                QueryRequest("alice seminar", k=3, consistency="primary")
            ).answers
            replica_set.kill_replica(1)
            for _step in range(3):
                result = cluster.query("alice seminar", k=3)
                assert same(result.answers, baseline)
            assert replica_set.heal() == 1
            assert replica_set.replica_status()[1]["state"] == "active"


class TestQueryErrorsAreNotReplicaFailures:
    def test_bad_query_leaves_process_replicas_alive(self, university):
        """A malformed query must raise to the caller — and must NOT
        be misread as replica death (one bad /search request used to
        SIGTERM every forked replica)."""
        from repro.shard.process import fork_available

        if not fork_available():  # pragma: no cover - fork exists on CI
            pytest.skip("fork unavailable")
        from repro.errors import QueryError

        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="process"
        )
        with Cluster(spec, database=university.fork()) as cluster:
            replica_set = cluster.backend
            with pytest.raises(QueryError):
                cluster.query("", k=3)
            status = replica_set.replica_status()
            assert [s["state"] for s in status] == ["active", "active"]
            assert (
                replica_set.metrics.snapshot()["replica_deaths_total"] == 0
            )
            # And the set still serves.
            assert cluster.query("alice seminar", k=2).answers

    def test_bad_query_leaves_thread_replicas_alive(self, university):
        from repro.errors import QueryError

        with _thread_cluster(university, replicas=2) as cluster:
            with pytest.raises(QueryError):
                cluster.query("", k=3)
            assert (
                cluster.backend.metrics.snapshot()["replica_deaths_total"]
                == 0
            )


class TestObservationIsSideEffectFree:
    def test_metrics_scrapes_do_not_move_exclusion_counters(
        self, university
    ):
        """Reading /metrics or /replicas must never count stale skips
        or flip exclusion state — only the dispatch path does."""
        with _thread_cluster(university, replicas=2) as cluster:
            replica_set = cluster.backend
            replica_set.suspend_replica(0)
            for step in range(4):  # lag 4 > max_lag 2
                cluster.insert(
                    "student", [f"S85{step}", f"Scrape {step}", "BIGDEPT"]
                )
            replica_set.resume_replica(1)
            before = replica_set.metrics.snapshot()
            replica_set.replica_status()
            replica_set.metrics.snapshot()
            after = replica_set.metrics.snapshot()
            for series in (
                "replica_stale_skips_total",
                "replica_excluded_total",
                "replica_readmitted_total",
            ):
                assert after[series] == before[series]
            # The lagging replica still reads as active until a
            # dispatch actually observes (and counts) the exclusion.
            assert after["replicas_active"] == 1.0
            cluster.query("alice", k=2)
            assert (
                replica_set.metrics.snapshot()["replica_excluded_total"]
                == before["replica_excluded_total"] + 1
            )

    def test_primary_consistency_counts_as_a_primary_read(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            cluster.query(
                QueryRequest("alice", k=2, consistency="primary")
            )
            assert (
                cluster.backend.metrics.snapshot()["primary_reads_total"]
                == 1
            )


class TestTailing:
    def test_started_set_tails_the_wal_in_background(self, university):
        with _thread_cluster(university, replicas=2) as cluster:
            cluster.start()
            cluster.insert("student", ["S840", "Tail Probe", "BIGDEPT"])
            replica_set = cluster.backend
            assert replica_set.sync(timeout=10.0) == 0
            result = cluster.query("tail probe", k=2)
            assert result.answers
