"""Tests for the metrics registry and its plaintext exposition."""

from __future__ import annotations

import threading

import pytest

from repro.serve.metrics import (
    Counter,
    Gauge,
    LatencyWindow,
    MetricsRegistry,
)


class TestCounter:
    def test_monotone(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_thread_safe(self):
        counter = Counter("events_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("depth")
        gauge.set(7)
        assert gauge.value == 7.0

    def test_computed_on_read(self):
        state = {"depth": 3}
        gauge = Gauge("depth", fn=lambda: state["depth"])
        assert gauge.value == 3.0
        state["depth"] = 9
        assert gauge.value == 9.0


class TestLatencyWindow:
    def test_quantiles(self):
        clock = lambda: 100.0  # frozen: everything inside the window
        window = LatencyWindow("latency_seconds", clock=clock)
        for ms in range(1, 101):  # 1ms..100ms
            window.observe(ms / 1000)
        assert abs(window.quantile(0.5) - 0.051) < 0.005
        assert abs(window.quantile(0.95) - 0.096) < 0.005

    def test_empty_window(self):
        window = LatencyWindow("latency_seconds")
        assert window.quantile(0.5) == 0.0
        assert window.qps() == 0.0

    def test_old_samples_age_out(self):
        now = {"t": 0.0}
        window = LatencyWindow(
            "latency_seconds", window_seconds=10.0, clock=lambda: now["t"]
        )
        window.observe(0.5)
        now["t"] = 5.0
        window.observe(0.7)
        assert window.count == 2
        now["t"] = 12.0  # first sample (t=0) now outside the window
        assert window.count == 1
        assert window.quantile(0.5) == 0.7

    def test_qps_is_count_over_elapsed(self):
        now = {"t": 0.0}
        window = LatencyWindow(
            "latency_seconds", window_seconds=10.0, clock=lambda: now["t"]
        )
        for _ in range(20):
            window.observe(0.001)
        now["t"] = 5.0  # warm-up: only half the window has elapsed
        assert window.qps() == 4.0
        now["t"] = 10.0  # full window elapsed, samples still inside it
        assert window.qps() == 2.0


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total")
        second = registry.counter("requests_total")
        assert first is second

    def test_snapshot_flattens_everything(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(3)
        registry.gauge("queue_depth").set(2)
        registry.latency("latency_seconds").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["requests_total"] == 3
        assert snapshot["queue_depth"] == 2.0
        assert snapshot["latency_seconds_p50"] > 0
        assert snapshot["latency_seconds_qps"] > 0

    def test_render_text_format(self):
        registry = MetricsRegistry(prefix="banks_engine")
        registry.counter("requests_total", "requests seen").inc(2)
        registry.gauge("queue_depth", "queued requests").set(1)
        registry.latency("latency_seconds").observe(0.25)
        text = registry.render_text()
        assert "# TYPE banks_engine_requests_total counter" in text
        assert "banks_engine_requests_total 2" in text
        assert "# HELP banks_engine_requests_total requests seen" in text
        assert "banks_engine_queue_depth 1" in text
        assert 'banks_engine_latency_seconds{quantile="0.5"} 0.25' in text
        assert text.endswith("\n")

    def test_conflicting_computed_gauge_rejected(self):
        import pytest

        from repro.errors import ServeError

        registry = MetricsRegistry()
        registry.gauge("queue_depth", fn=lambda: 1)
        with pytest.raises(ServeError):
            registry.gauge("queue_depth", fn=lambda: 2)

    def test_sharing_registry_across_engines_fails_loudly(self):
        import pytest

        from repro.errors import ServeError
        from repro.relational import load_sql
        from repro.serve import QueryEngine

        database = load_sql(
            """
            CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
            INSERT INTO t VALUES (1, 'x');
            """,
            "m",
        )
        from repro.core.banks import BANKS

        with QueryEngine(BANKS(database)) as first:
            with pytest.raises(ServeError):
                QueryEngine(BANKS(database), metrics=first.metrics)

    def test_render_without_prefix(self):
        registry = MetricsRegistry(prefix="")
        registry.counter("hits_total").inc()
        assert "\nhits_total 1" in "\n" + registry.render_text()


class TestHistogram:
    def test_cumulative_buckets(self):
        from repro.serve.metrics import Histogram

        histogram = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        buckets, total, count = histogram.summary()
        assert buckets == [(0.01, 1), (0.1, 2), (1.0, 3)]
        assert count == 4
        assert total == pytest.approx(5.555)

    def test_bad_buckets_rejected(self):
        from repro.errors import ServeError
        from repro.serve.metrics import Histogram

        with pytest.raises(ServeError):
            Histogram("h", buckets=())
        with pytest.raises(ServeError):
            Histogram("h", buckets=(1.0, 0.5))

    def test_registry_exposition_format(self):
        from repro.serve.metrics import MetricsRegistry

        registry = MetricsRegistry(prefix="t")
        histogram = registry.histogram(
            "copy_seconds", "copy cost", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(2.0)
        text = registry.render_text()
        assert "# TYPE t_copy_seconds histogram" in text
        assert 't_copy_seconds_bucket{le="0.1"} 1' in text
        assert 't_copy_seconds_bucket{le="+Inf"} 2' in text
        assert "t_copy_seconds_count 2" in text
        snapshot = registry.snapshot()
        assert snapshot["copy_seconds_count"] == 2
        assert snapshot["copy_seconds_sum"] == pytest.approx(2.05)

    def test_registry_histogram_idempotent_by_name(self):
        from repro.serve.metrics import MetricsRegistry

        registry = MetricsRegistry()
        first = registry.histogram("h")
        assert registry.histogram("h") is first

    def test_engine_exposes_latency_and_copy_histograms(self):
        from repro.core.incremental import IncrementalBANKS
        from repro.relational import load_sql
        from repro.serve import EngineConfig, QueryEngine

        database = load_sql(
            "CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT);"
            "INSERT INTO t VALUES ('a', 'hello world');",
            "hist",
        )
        with QueryEngine(
            IncrementalBANKS(database), EngineConfig(workers=1)
        ) as engine:
            engine.search("hello")
            engine.mutate(lambda f: f.insert("t", ["b", "more words"]))
            text = engine.metrics.render_text()
            assert "request_latency_seconds_bucket" in text
            assert "snapshot_copy_cost_seconds_bucket" in text
            snapshot = engine.metrics.snapshot()
            assert snapshot["request_latency_seconds_count"] == 1
            assert snapshot["snapshot_copy_cost_seconds_count"] == 1
            assert snapshot["snapshot_epoch"] == 1
            assert snapshot["snapshot_deltas_total"] == 1


# -- labeled series and the exposition format (ISSUE 6 satellites) -------------

import re

from repro.serve.metrics import Histogram, series_id

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?"
    r" (?P<value>\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_KINDS = {"counter", "gauge", "summary", "histogram", "untyped"}


def check_prometheus_text(text: str):
    """A Prometheus text-format (version 0.0.4) checker.

    Verifies what a scraper relies on: every sample line parses; every
    family has exactly one ``# HELP`` and one ``# TYPE`` (before its
    samples); no duplicate series; histogram buckets are cumulative
    with ``+Inf`` equal to ``_count``.  Returns ``{family: kind}``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    helped, typed = {}, {}
    seen_series = set()
    buckets: dict = {}
    hist_counts: dict = {}
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, _help = rest.partition(" ")
            assert name not in helped, f"duplicate HELP for {name}"
            helped[name] = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in _KINDS, f"bad TYPE {kind!r} for {name}"
            assert name not in typed, f"duplicate TYPE for {name}"
            assert name in helped, f"TYPE before HELP for {name}"
            typed[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, labels_text = match.group("name"), match.group("labels")
        float(match.group("value"))  # must be numeric
        labels = dict(_LABEL.findall(labels_text or ""))
        if labels_text:
            rebuilt = ",".join(
                f'{k}="{v}"' for k, v in _LABEL.findall(labels_text)
            )
            assert "{" + rebuilt + "}" == labels_text, (
                f"malformed label block: {labels_text!r}"
            )
        # Resolve the family the sample belongs to.
        family = None
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and typed.get(base) in ("histogram", "summary"):
                family = base
                break
        if family is None:
            family = name
        assert family in typed, f"sample {name!r} precedes its TYPE"
        series = name + "|" + ",".join(sorted(f"{k}={v}" for k, v in labels.items()))
        assert series not in seen_series, f"duplicate series: {line!r}"
        seen_series.add(series)
        if typed.get(family) == "histogram" and name.endswith("_bucket"):
            le = labels.pop("le", None)
            assert le is not None, f"histogram bucket without le: {line!r}"
            key = (family, tuple(sorted(labels.items())))
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(key, []).append(
                (bound, float(match.group("value")))
            )
        elif typed.get(family) == "histogram" and name.endswith("_count"):
            key = (family, tuple(sorted(labels.items())))
            hist_counts[key] = float(match.group("value"))
    for key, pairs in buckets.items():
        ordered = sorted(pairs)
        counts = [count for _bound, count in ordered]
        assert counts == sorted(counts), f"non-cumulative buckets: {key}"
        assert ordered[-1][0] == float("inf"), f"missing +Inf bucket: {key}"
        assert ordered[-1][1] == hist_counts.get(key), (
            f"+Inf bucket != _count for {key}"
        )
    for name in typed:
        assert name in helped, f"TYPE without HELP: {name}"
    return typed


class TestLabeledSeries:
    def test_series_identity(self):
        assert series_id("lag") == "lag"
        assert series_id("lag", {"replica": "1"}) == 'lag{replica="1"}'
        # Sorted key order makes the identity canonical.
        assert series_id("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'

    def test_registration_idempotent_per_series(self):
        registry = MetricsRegistry()
        first = registry.counter("reads_total", labels={"replica": "0"})
        again = registry.counter("reads_total", labels={"replica": "0"})
        other = registry.counter("reads_total", labels={"replica": "1"})
        assert first is again
        assert first is not other

    def test_one_family_header_many_series(self):
        registry = MetricsRegistry(prefix="t")
        registry.gauge(
            "lag_epochs", "lag", fn=lambda: 1, labels={"replica": "0"}
        )
        registry.gauge(
            "lag_epochs", "lag", fn=lambda: 3, labels={"replica": "1"}
        )
        text = registry.render_text()
        assert text.count("# TYPE t_lag_epochs gauge") == 1
        assert 't_lag_epochs{replica="0"} 1' in text
        assert 't_lag_epochs{replica="1"} 3' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry(prefix="t")
        registry.counter(
            "odd_total", labels={"q": 'say "hi"\\now'}
        ).inc()
        text = registry.render_text()
        assert 't_odd_total{q="say \\"hi\\"\\\\now"} 1' in text
        check_prometheus_text(text)

    def test_snapshot_keys_carry_labels(self):
        registry = MetricsRegistry()
        registry.counter("reads_total", labels={"replica": "1"}).inc(4)
        histogram = registry.histogram(
            "cost_seconds", buckets=(1.0,), labels={"shard": "0"}
        )
        histogram.observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot['reads_total{replica="1"}'] == 4
        assert snapshot['cost_seconds_count{shard="0"}'] == 1


class TestExpositionFormatChecker:
    def test_populated_registry_passes(self):
        registry = MetricsRegistry(prefix="banks_engine")
        registry.counter("requests_total", "requests admitted").inc(3)
        registry.counter(
            "reads_total", "reads", labels={"replica": "0"}
        ).inc()
        registry.counter(
            "reads_total", "reads", labels={"replica": "1"}
        ).inc(2)
        registry.gauge("queue_depth", "queued").set(1)
        registry.latency("latency_seconds", "latency").observe(0.02)
        registry.histogram(
            "copy_seconds", "copy cost", buckets=(0.1, 1.0)
        ).observe(0.5)
        registry.histogram(
            "shard_seconds", "per-shard", buckets=(0.1,), labels={"shard": "1"}
        ).observe(0.05)
        typed = check_prometheus_text(registry.render_text())
        assert typed["banks_engine_requests_total"] == "counter"
        assert typed["banks_engine_latency_seconds"] == "summary"
        assert typed["banks_engine_latency_seconds_qps"] == "gauge"
        assert typed["banks_engine_copy_seconds"] == "histogram"

    def test_checker_rejects_duplicates_and_torn_buckets(self):
        with pytest.raises(AssertionError):
            check_prometheus_text(
                "# HELP a a\n# TYPE a counter\na 1\na 2\n"
            )
        with pytest.raises(AssertionError):
            check_prometheus_text(
                "# HELP h h\n# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\nh_sum 1\n'
                "h_count 3\n"
            )
        with pytest.raises(AssertionError):
            check_prometheus_text("no_type_declared 1\n")

    def test_live_engine_metrics_pass_the_checker(self):
        from repro.core.incremental import IncrementalBANKS
        from repro.relational import load_sql
        from repro.serve import EngineConfig, QueryEngine

        database = load_sql(
            "CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT);"
            "INSERT INTO t VALUES ('a', 'hello world');",
            "expo",
        )
        with QueryEngine(
            IncrementalBANKS(database), EngineConfig(workers=1)
        ) as engine:
            engine.search("hello")
            engine.mutate(lambda f: f.insert("t", ["b", "more words"]))
            check_prometheus_text(engine.metrics.render_text())

    def test_replicaset_metrics_pass_the_checker(self, tiny_cluster_db):
        from repro.cluster import Cluster, ClusterSpec

        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="thread"
        )
        with Cluster(spec, database=tiny_cluster_db) as cluster:
            cluster.query("hello")
            text = cluster.metrics.render_text()
            typed = check_prometheus_text(text)
            assert typed["banks_replicaset_replica_lag_epochs"] == "gauge"
            assert 'replica_lag_epochs{replica="0"}' in text
            assert 'replica_lag_epochs{replica="1"}' in text


@pytest.fixture
def tiny_cluster_db():
    from repro.relational import load_sql

    return load_sql(
        "CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT);"
        "INSERT INTO t VALUES ('a', 'hello world');"
        "INSERT INTO t VALUES ('b', 'hello again');",
        "tiny",
    )


class TestRemovedReplicaGaugeAliases:
    def test_only_labelled_series_remain(self, tiny_cluster_db):
        """The one-release ``replica{i}_*`` alias gauges are gone:
        snapshots carry only the labelled series, with no warnings."""
        import warnings as warnings_module

        from repro.cluster import Cluster, ClusterSpec

        spec = ClusterSpec(
            topology="replicated", replicas=2, replica_backend="thread"
        )
        with Cluster(spec, database=tiny_cluster_db) as cluster:
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error", DeprecationWarning)
                snapshot = cluster.metrics.snapshot()
            assert 'replica_lag_epochs{replica="0"}' in snapshot
            assert 'replica_served_total{replica="1"}' in snapshot
            assert "replica0_lag_epochs" not in snapshot
            assert "replica1_served_total" not in snapshot


class TestConcurrentRegistry:
    def test_hammer_while_rendering(self):
        """N writer threads vs. a render/snapshot loop: no torn reads,
        counters monotone, histogram bucket/count/sum consistent."""
        registry = MetricsRegistry(prefix="t")
        counter = registry.counter("events_total", "events")
        labeled = [
            registry.counter("work_total", "work", labels={"w": str(i)})
            for i in range(4)
        ]
        histogram = registry.histogram("cost_seconds", "cost", buckets=(1.0, 2.0))
        rounds, threads_n = 500, 4
        # Parties: the writers, the reader, and the main thread.
        start = threading.Barrier(threads_n + 2)
        stop = threading.Event()

        def writer(index):
            start.wait()
            for _ in range(rounds):
                counter.inc()
                labeled[index].inc()
                histogram.observe(0.5)
                histogram.observe(1.5)

        failures = []

        def reader():
            start.wait()
            last_total = -1
            while not stop.is_set():
                text = registry.render_text()
                try:
                    check_prometheus_text(text)
                except AssertionError as error:  # pragma: no cover
                    failures.append(str(error))
                    return
                snapshot = registry.snapshot()
                total = snapshot["events_total"]
                if total < last_total:  # pragma: no cover
                    failures.append(f"counter went backwards: {total}")
                    return
                last_total = total
                buckets, total_sum, count = histogram.summary()
                if buckets[0][1] > buckets[1][1]:  # pragma: no cover
                    failures.append("buckets not cumulative")
                    return
                if count and not (
                    0.0 < total_sum / count <= 2.0
                ):  # pragma: no cover
                    failures.append("sum/count out of range")
                    return

        workers = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads_n)
        ]
        observer = threading.Thread(target=reader)
        for thread in workers:
            thread.start()
        observer.start()
        start.wait()
        for thread in workers:
            thread.join()
        stop.set()
        observer.join()
        assert not failures, failures
        assert counter.value == rounds * threads_n
        for index, series in enumerate(labeled):
            assert series.value == rounds
        buckets, total_sum, count = histogram.summary()
        assert count == 2 * rounds * threads_n
        assert buckets[0][1] == rounds * threads_n  # <= 1.0: the 0.5s
        assert buckets[1][1] == count  # <= 2.0: everything
        assert total_sum == pytest.approx(count * 1.0)
