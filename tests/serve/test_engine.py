"""Tests for the query-serving engine: admission control, deadlines,
single-flight dedup, snapshot isolation, metrics, and the wiring into
the browse app, the CLI and the federation layer."""

from __future__ import annotations

import gc
import io
import threading
import time
import weakref

import pytest

from repro.core.banks import BANKS
from repro.core.cache import CachedBanks
from repro.core.incremental import IncrementalBANKS
from repro.errors import (
    DeadlineExceededError,
    EngineOverloadedError,
    EngineStoppedError,
    ServeError,
)
from repro.relational import Database, load_sql
from repro.serve import EngineConfig, QueryEngine

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'ada lovelace');
INSERT INTO paper VALUES ('p1', 'analytical engines');
INSERT INTO writes VALUES ('a1', 'p1');
"""


def make_database() -> Database:
    return load_sql(SCHEMA, "serve-test")


class GatedFacade:
    """A stand-in facade whose searches block on an event and count
    invocations — makes queue states and in-flight windows deterministic."""

    def __init__(self, gate: threading.Event = None):
        self.gate = gate
        self.calls = 0
        self.started = threading.Semaphore(0)
        self._lock = threading.Lock()
        self.tag = "v0"

    def search(self, query, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.release()
        if self.gate is not None:
            assert self.gate.wait(timeout=5)
        return [(query, self.tag)]

    # The snapshot store's write protocol: fork, then capture deltas.

    def fork(self):
        """Share the gate, copy the state — what a real facade's fork
        must provide."""
        clone = GatedFacade(self.gate)
        clone.tag = self.tag
        return clone

    def begin_delta_capture(self):
        pass

    def end_delta_capture(self):
        return []


class TestBasicServing:
    def test_search_matches_facade(self):
        database = make_database()
        with QueryEngine(CachedBanks(database)) as engine:
            direct = CachedBanks(database).search("ada engines")
            served = engine.search("ada engines", timeout=5)
            assert [a.tree.undirected_key() for a in served] == [
                a.tree.undirected_key() for a in direct
            ]

    def test_submit_outcome_carries_version_and_latency(self):
        with QueryEngine(CachedBanks(make_database())) as engine:
            outcome = engine.submit("ada").result(timeout=5)
            assert outcome.snapshot_version == 0
            assert outcome.latency >= 0
            assert outcome.answers

    def test_search_kwargs_forwarded(self):
        from repro.core.scoring import ScoringConfig

        with QueryEngine(CachedBanks(make_database())) as engine:
            answers = engine.search(
                "ada",
                timeout=5,
                max_results=1,
                scoring=ScoringConfig(lambda_weight=0.8),
            )
            assert len(answers) <= 1

    def test_search_errors_propagate(self):
        from repro.errors import QueryError

        with QueryEngine(CachedBanks(make_database())) as engine:
            with pytest.raises(QueryError):
                engine.search("", timeout=5)
            assert engine.metrics.snapshot()["errors_total"] == 1

    def test_config_validation(self):
        with pytest.raises(ServeError):
            EngineConfig(default_deadline=0)

    def test_copy_mode_is_not_a_config_field(self):
        """Every write forks; there is no capture mode to configure.
        Nor is there a shed policy (over-bound requests are always
        shed), a metrics window, engine-level tracing knobs (the
        cluster owns tracing) or a WAL / checkpoint setting (a durable
        store comes from ``SnapshotStore.open``)."""
        for removed in (
            {"copy_mode": "delta"},
            {"shed_policy": "block"},
            {"metrics_window": 30.0},
            {"trace_sample": "always"},
            {"slow_query_ms": 100.0},
            {"trace_buffer": 16},
            {"wal_path": "wal"},
            {"wal_fsync": "rotate"},
            {"checkpoint_every": 5},
            {"checkpoint_path": "checkpoints"},
        ):
            with pytest.raises(TypeError):
                EngineConfig(**removed)


class TestAdmissionControl:
    def test_sheds_above_queue_bound(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(workers=1, queue_bound=1, dedup=False)
        with QueryEngine(facade, config) as engine:
            running = engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            queued = engine.submit("beta")
            with pytest.raises(EngineOverloadedError):
                engine.submit("gamma")
            snapshot = engine.metrics.snapshot()
            assert snapshot["shed_total"] == 1
            assert snapshot["queue_depth"] == 1
            gate.set()
            assert running.result(timeout=5)
            assert queued.result(timeout=5)

    def test_deadline_expired_in_queue(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(workers=1, queue_bound=4, dedup=False)
        with QueryEngine(facade, config) as engine:
            engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            doomed = engine.submit("beta", deadline=0.01)
            time.sleep(0.05)
            gate.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
            assert engine.metrics.snapshot()["deadline_expired_total"] == 1
            # The worker was not wasted on the expired request.
            assert facade.calls == 1

    def test_default_deadline_from_config(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(
            workers=1, queue_bound=4, default_deadline=0.01, dedup=False
        )
        with QueryEngine(facade, config) as engine:
            engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            doomed = engine.submit("beta")
            time.sleep(0.05)
            gate.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)

    def test_stopped_engine_rejects(self):
        engine = QueryEngine(GatedFacade())
        engine.stop()
        with pytest.raises(EngineStoppedError):
            engine.submit("alpha")

    def test_shed_leader_fails_followers_instead_of_hanging(self):
        """A shed submission must resolve its single-flight future, or
        followers that joined the flight would wait forever."""
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(workers=1, queue_bound=1)
        with QueryEngine(facade, config) as engine:
            engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            engine.submit("beta")  # fills the queue
            outcomes = []
            lock = threading.Lock()

            def contend():
                try:
                    future = engine.submit("gamma")
                    future.result(timeout=5)
                    outcome = "completed"
                except EngineOverloadedError:
                    outcome = "overloaded"
                with lock:
                    outcomes.append(outcome)

            threads = [threading.Thread(target=contend) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            gate.set()
            # Every contender terminated: shed leaders raised, followers
            # (if any latched on) got the failure through the future.
            assert len(outcomes) == 4
            assert set(outcomes) <= {"overloaded", "completed"}

    def test_cancelled_queued_request_does_not_poison_the_flight(self):
        """Cancelling one caller's handle abandons that caller only; a
        retry of the same query still completes."""
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(workers=1, queue_bound=4)
        with QueryEngine(facade, config) as engine:
            engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            doomed = engine.submit("beta")
            assert doomed.cancel()
            retried = engine.submit("beta")  # joins the still-live flight
            assert retried is not doomed
            gate.set()
            assert retried.result(timeout=5).answers == [("beta", "v0")]


class TestSingleFlightDedup:
    def test_identical_inflight_queries_share_one_computation(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            leader = engine.submit("hot query")
            assert facade.started.acquire(timeout=5)
            followers = [engine.submit("hot query") for _ in range(7)]
            gate.set()
            results = [f.result(timeout=5) for f in [leader, *followers]]
            assert facade.calls == 1
            assert all(r is results[0] for r in results)
            assert engine.metrics.snapshot()["dedup_shared_total"] == 7

    def test_cancelling_one_follower_does_not_cancel_the_flight(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            leader = engine.submit("hot query")
            assert facade.started.acquire(timeout=5)
            follower_a = engine.submit("hot query")
            follower_b = engine.submit("hot query")
            assert follower_a.cancel()  # abandons only this caller
            gate.set()
            assert leader.result(timeout=5).answers == [("hot query", "v0")]
            assert follower_b.result(timeout=5).answers == [
                ("hot query", "v0")
            ]
            assert facade.calls == 1

    def test_different_queries_not_shared(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=4)) as engine:
            first = engine.submit("alpha")
            second = engine.submit("beta")
            assert first is not second
            gate.set()
            first.result(timeout=5)
            second.result(timeout=5)
            assert facade.calls == 2

    def test_completed_flight_not_reused(self):
        facade = GatedFacade()
        with QueryEngine(facade, EngineConfig(workers=1)) as engine:
            engine.submit("alpha").result(timeout=5)
            engine.submit("alpha").result(timeout=5)
            assert facade.calls == 2  # no cache at this layer, by design

    def test_dedup_disabled(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        config = EngineConfig(workers=2, dedup=False)
        with QueryEngine(facade, config) as engine:
            first = engine.submit("alpha")
            second = engine.submit("alpha")
            assert first is not second
            gate.set()
            first.result(timeout=5)
            second.result(timeout=5)
            assert facade.calls == 2

    def test_dedup_keys_include_deadline(self):
        """A lenient request must not inherit a strict leader's expiry."""
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            strict = engine.submit("alpha", deadline=30.0)
            lenient = engine.submit("alpha")
            gate.set()
            strict.result(timeout=5)
            lenient.result(timeout=5)
            assert facade.calls == 2  # separate flights, both computed
            assert engine.metrics.snapshot()["dedup_shared_total"] == 0

    def test_dedup_keys_include_result_count(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            first = engine.submit("alpha", max_results=5)
            second = engine.submit("alpha", max_results=10)
            gate.set()
            first.result(timeout=5)
            second.result(timeout=5)
            assert facade.calls == 2
            assert engine.metrics.snapshot()["dedup_shared_total"] == 0

    def test_unrecognised_kwargs_opt_out(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            first = engine.submit("alpha", output_heap_size=50)
            second = engine.submit("alpha", output_heap_size=50)
            assert first is not second
            gate.set()
            first.result(timeout=5)
            second.result(timeout=5)


class TestSnapshotIsolation:
    def test_facade_without_fork_is_read_only(self):
        called = []
        with QueryEngine(BANKS(make_database())) as engine:
            with pytest.raises(ServeError, match="read-only"):
                engine.mutate(called.append)
            assert called == []
            assert engine.snapshots.version == 0
            assert engine.search("ada", timeout=5)

    def test_mutations_publish_new_versions(self):
        facade = IncrementalBANKS(make_database())
        with QueryEngine(facade) as engine:
            before = engine.submit("ada").result(timeout=5)
            engine.mutate(
                lambda f: f.insert("paper", ["p2", "sketch of the engine"])
            )
            after = engine.submit("sketch").result(timeout=5)
            assert before.snapshot_version == 0
            assert after.snapshot_version == 1
            assert after.answers

    def test_requests_across_versions_not_deduplicated(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=2)) as engine:
            first = engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            engine.mutate(lambda clone: setattr(clone, "tag", "v1"))
            second = engine.submit("alpha")
            assert second is not first  # version is part of the key
            gate.set()
            assert first.result(timeout=5).answers == [("alpha", "v0")]
            gate.set()
            assert second.result(timeout=5).answers == [("alpha", "v1")]

    def test_reader_admitted_before_publish_sees_old_version(self):
        gate = threading.Event()
        facade = GatedFacade(gate)
        with QueryEngine(facade, EngineConfig(workers=1)) as engine:
            pinned = engine.submit("alpha")
            assert facade.started.acquire(timeout=5)
            engine.mutate(lambda clone: setattr(clone, "tag", "v1"))
            gate.set()
            outcome = pinned.result(timeout=5)
            assert outcome.snapshot_version == 0
            assert outcome.answers == [("alpha", "v0")]


    def test_a_finished_read_does_not_pin_its_snapshot(self):
        gc.disable()  # refcounting alone must free the superseded version
        try:
            with QueryEngine(
                IncrementalBANKS(make_database()), EngineConfig(workers=2)
            ) as engine:
                engine.mutate(lambda f: f.insert("paper", ["p2", "difference engines"]))
                v1 = weakref.ref(engine.snapshots.current().facade)
                assert engine.search("engines", timeout=5)
                engine.mutate(lambda f: f.insert("paper", ["p3", "notes"]))
                # The worker drops the task just after resolving it.
                give_up = time.monotonic() + 5
                while v1() is not None and time.monotonic() < give_up:
                    time.sleep(0.01)
                assert v1() is None
        finally:
            gc.enable()


class TestMetricsIntegration:
    def test_counters_and_latency(self):
        with QueryEngine(CachedBanks(make_database())) as engine:
            for _ in range(4):
                engine.search("ada", timeout=5)
            snapshot = engine.metrics.snapshot()
            assert snapshot["requests_total"] == 4
            assert snapshot["completed_total"] == 4
            assert snapshot["latency_seconds_p50"] >= 0
            assert snapshot["cache_hit_rate"] == 0.75  # 1 miss, 3 hits

    def test_render_text_has_engine_metrics(self):
        with QueryEngine(CachedBanks(make_database())) as engine:
            engine.search("ada", timeout=5)
            text = engine.metrics.render_text()
            assert "banks_engine_requests_total 1" in text
            assert "banks_engine_snapshot_version 0" in text
            assert 'banks_engine_latency_seconds{quantile="0.95"}' in text


class TestBrowseAppIntegration:
    def make_cluster(self, **spec):
        from repro.cluster import Cluster, ClusterSpec

        return Cluster(ClusterSpec(**spec), database=make_database())

    def test_search_routes_through_engine(self):
        from repro.browse.app import BrowseApp

        with self.make_cluster() as cluster:
            app = BrowseApp(cluster)
            status, html = app.handle("/search", "q=ada+engines")
            assert status == "200 OK"
            assert "relevance" in html
            assert cluster.metrics.snapshot()["completed_total"] == 1

    def test_metrics_endpoint(self):
        """A page search and the server's /metrics read one registry."""
        from repro.net import BanksClient, HttpServer

        with self.make_cluster() as cluster:
            server = HttpServer(cluster).start_background()
            try:
                client = BanksClient(server.url)
                assert "relevance" in client.get("/search?q=ada")
                text = client.get("/metrics")
                assert "banks_engine_completed_total 1" in text
            finally:
                server.stop()

    def test_metrics_content_type_is_plaintext(self):
        import http.client

        from repro.net import HttpServer

        with self.make_cluster() as cluster:
            server = HttpServer(cluster).start_background()
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port
                )
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                body = response.read()
                connection.close()
            finally:
                server.stop()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith("text/plain")
            assert b"banks_engine_requests_total" in body

    def test_browse_pages_follow_published_snapshots(self):
        """Search results from a new snapshot must link to rows the
        browse side can render: browse reads the current snapshot."""
        from repro.browse.app import BrowseApp

        with self.make_cluster(live=True) as cluster:
            app = BrowseApp(cluster)
            cluster.insert("paper", ["p2", "fresh snapshot study"])
            status, html = app.handle("/search", "q=fresh+snapshot")
            assert status == "200 OK"
            assert "fresh snapshot study" in html
            # The result's row link resolves against the browse database.
            new_rid = max(
                app.database.table("paper").rids()
            )
            status, row_html = app.handle(f"/row/paper/{new_rid}", "")
            assert status == "200 OK"
            assert "fresh snapshot study" in row_html

    def test_no_engine_no_metrics_route(self):
        """The app has no /metrics of its own: the server renders the
        registry, whatever the topology."""
        from repro.browse.app import BrowseApp

        for spec in ({"live": True}, {}):
            with self.make_cluster(**spec) as cluster:
                status, _html = BrowseApp(cluster).handle("/metrics", "")
                assert status.startswith("404")


class TestCliIntegration:
    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        status = main(list(argv), out=out)
        return status, out.getvalue()

    def test_serve_check_with_engine(self):
        status, output = self.run_cli("serve", "demo:university", "--check")
        assert status == 0
        assert "GET / -> 200" in output
        assert "GET /metrics -> 200" in output


class TestFederationFanout:
    def make_federation(self):
        from repro.federate import Federation

        pubs = load_sql(
            """
            CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
            INSERT INTO author VALUES ('a1', 'sudarshan');
            INSERT INTO author VALUES ('a2', 'widom');
            """,
            "pubs",
        )
        teaching = load_sql(
            """
            CREATE TABLE instructor (iid TEXT PRIMARY KEY, name TEXT NOT NULL);
            INSERT INTO instructor VALUES ('i1', 'sudarshan');
            """,
            "teaching",
        )
        fed = Federation("campus")
        fed.register("pubs", pubs)
        fed.register("teaching", teaching)
        return fed

    def test_pool_fanout_matches_serial_resolution(self):
        from repro.federate import FederatedBanks
        from repro.serve.pool import WorkerPool

        fed = self.make_federation()
        serial = FederatedBanks(fed)
        with WorkerPool(workers=4) as pool:
            fanned = FederatedBanks(fed, pool=pool)
            for query in ("sudarshan", "widom instructor"):
                assert fanned.resolve(query) == serial.resolve(query)
                assert [
                    a.tree.undirected_key() for a in fanned.search(query)
                ] == [a.tree.undirected_key() for a in serial.search(query)]

    def test_engine_pool_reusable_for_fanout(self):
        from repro.federate import FederatedBanks

        fed = self.make_federation()
        with QueryEngine(CachedBanks(make_database())) as engine:
            fanned = FederatedBanks(fed, pool=engine.pool)
            assert fanned.resolve("sudarshan") == FederatedBanks(fed).resolve(
                "sudarshan"
            )

    def test_federated_facade_served_by_its_own_pool_does_not_deadlock(self):
        """The advertised shard-router shape: the federated facade runs
        *on* the engine whose pool it fans out through.  pool.map from a
        worker must run inline, or one worker would wait on sub-tasks no
        other worker can ever pick up."""
        from repro.federate import FederatedBanks

        fed = self.make_federation()
        engine = QueryEngine(
            FederatedBanks(fed), EngineConfig(workers=1, dedup=False)
        )
        with engine:
            engine.facade.pool = engine.pool  # share the single worker
            answers = engine.search("sudarshan", timeout=10)
            assert answers
