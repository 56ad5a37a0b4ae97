"""Unit tests for ``repro.obs``: spans, traces, sampling, profiles,
events — the subsystem in isolation (cross-layer propagation is
covered by ``test_cluster_tracing``)."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.errors import ReproError
from repro.obs import (
    EventLog,
    Observability,
    SearchProfile,
    Trace,
    TraceRecord,
    TraceStore,
    parse_sample,
    render_trace_tree,
    span_tree,
)


class TestParseSample:
    def test_modes(self):
        assert parse_sample("always") == "always"
        assert parse_sample("off") == "off"
        assert parse_sample("slow") == "slow"
        assert parse_sample("SLOW ") == "slow"

    def test_rates(self):
        assert parse_sample(0.25) == 0.25
        assert parse_sample("0.1") == 0.1
        assert parse_sample(1.0) == "always"
        assert parse_sample("1") == "always"
        assert parse_sample(0) == "off"
        assert parse_sample(-3) == "off"

    def test_garbage_rejected(self):
        with pytest.raises(ReproError):
            parse_sample("sometimes")


class TestTrace:
    def test_span_lifecycle_and_tree(self):
        trace = Trace()
        root = trace.begin("query", k=5)
        child = trace.begin("engine.request", parent_id=root.span_id)
        trace.end(child)
        trace.end(root)
        spans = trace.export()
        assert len(spans) == 2
        roots = span_tree(spans)
        assert len(roots) == 1
        assert roots[0]["span"]["name"] == "query"
        assert roots[0]["children"][0]["span"]["name"] == "engine.request"
        assert all(s["trace_id"] == trace.trace_id for s in spans)

    def test_span_context_manager_records_errors(self):
        trace = Trace()
        with pytest.raises(ValueError):
            with trace.span("step"):
                raise ValueError("boom")
        (span,) = trace.export()
        assert span["attrs"]["error"] == "ValueError"
        assert span["end"] is not None

    def test_ctx_round_trip_reparents(self):
        # Parent side: a root span, then the serialized context.
        parent = Trace()
        root = parent.begin("query")
        ctx = parent.ctx(root.span_id)
        assert ctx == {"trace_id": parent.trace_id, "parent_id": root.span_id}
        # Child side (other process): same trace id, parent hint set.
        child = Trace.from_ctx(ctx)
        assert child.trace_id == parent.trace_id
        span = child.begin("shard.search", parent_id=child.parent_hint)
        child.end(span)
        # Back on the parent: absorb and close the root.
        parent.absorb(child.export())
        parent.end(root)
        roots = span_tree(parent.export())
        assert len(roots) == 1
        assert roots[0]["children"][0]["span"]["name"] == "shard.search"

    def test_orphan_spans_become_roots(self):
        trace = Trace()
        span = trace.begin("leaf", parent_id="feedfacecafebeef")
        trace.end(span)
        roots = span_tree(trace.export())
        assert len(roots) == 1  # parent was sampled away: still renderable

    def test_render_tree_shape(self):
        trace = Trace()
        root = trace.begin("query")
        first = trace.begin("a", parent_id=root.span_id)
        trace.end(first)
        second = trace.begin("b", parent_id=root.span_id)
        trace.end(second)
        trace.end(root)
        text = render_trace_tree(trace.export())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("├─ a")
        assert lines[2].startswith("└─ b")


def _record(trace_id="t", duration_ms=1.0, slow=False):
    return TraceRecord(
        trace_id=trace_id,
        query="q",
        topology="single",
        duration_ms=duration_ms,
        slow=slow,
        ts=0.0,
    )


class TestTraceStore:
    def test_always_keeps_everything(self):
        store = TraceStore(sample="always", capacity=8)
        for i in range(5):
            assert store.offer(_record(trace_id=str(i)))
        assert [r.trace_id for r in store.recent()] == list("43210")
        assert store.get("2") is not None
        assert store.get("missing") is None

    def test_rate_keeps_deterministic_fraction(self):
        store = TraceStore(sample=0.25, capacity=1000)
        kept = sum(store.offer(_record(trace_id=str(i))) for i in range(100))
        assert kept == 25

    def test_slow_mode_keeps_only_slow(self):
        store = TraceStore(sample="slow", slow_query_ms=100.0, capacity=8)
        assert not store.offer(_record(duration_ms=5.0))
        assert store.offer(_record(trace_id="s", duration_ms=250.0, slow=True))
        assert [r.trace_id for r in store.slow()] == ["s"]

    def test_slow_records_survive_fast_burst(self):
        store = TraceStore(sample="always", slow_query_ms=100.0, capacity=4)
        store.offer(_record(trace_id="slow", duration_ms=500.0, slow=True))
        for i in range(10):  # evicts the main ring, not the slow ring
            store.offer(_record(trace_id=f"fast{i}"))
        assert [r.trace_id for r in store.slow()] == ["slow"]
        stats = store.stats()
        assert stats["offered"] == 11
        assert stats["stored"] == 4

    def test_capacity_bounds_ring(self):
        store = TraceStore(sample="always", capacity=3)
        for i in range(9):
            store.offer(_record(trace_id=str(i)))
        assert [r.trace_id for r in store.recent()] == ["8", "7", "6"]


class TestObservability:
    def test_off_means_disabled(self):
        obs = Observability(sample="off")
        assert not obs.enabled
        assert obs.begin() is None

    def test_slow_threshold_alone_enables(self):
        obs = Observability(sample="off", slow_query_ms=100.0)
        assert obs.enabled

    def test_finish_builds_record_and_samples(self):
        obs = Observability(sample="always")
        trace = obs.begin()
        span = trace.begin("query")
        trace.end(span)
        profile = SearchProfile()
        profile.heap_pops = 7
        record = obs.finish(
            trace,
            query="foo bar",
            topology="single",
            duration_ms=3.0,
            profile=profile,
            served_by="engine",
        )
        assert record.trace_id == trace.trace_id
        assert record.query == "foo bar"
        assert record.profile["heap_pops"] == 7
        assert record.attrs["served_by"] == "engine"
        assert not record.slow
        assert obs.store.get(trace.trace_id) is record
        assert "query='foo bar'" in record.render()

    def test_finish_renders_parsed_queries_readably(self):
        from repro.core.query import parse_query

        obs = Observability(sample="always")
        trace = obs.begin()
        record = obs.finish(trace, query=parse_query("foo bar"))
        assert record.query == "foo bar"

    def test_slow_query_emits_warning_event(self):
        obs = Observability(sample="always", slow_query_ms=1.0)
        sink = io.StringIO()
        handler = obs.events.attach(stream=sink, level=logging.INFO)
        try:
            trace = obs.begin()
            obs.finish(trace, query="q", topology="single", duration_ms=50.0)
        finally:
            obs.events.logger.removeHandler(handler)
        event = json.loads(sink.getvalue().strip())
        assert event["event"] == "slow_query"
        assert event["trace_id"] == trace.trace_id
        assert event["duration_ms"] == 50.0


class TestSearchProfile:
    def test_merge_and_round_trip(self):
        first = SearchProfile()
        first.heap_pops = 3
        first.lanes_started = 1
        first.expansion_seconds = 0.5
        second = SearchProfile.from_dict(
            {"heap_pops": 2, "edges_relaxed": 9, "lanes_started": 4}
        )
        first.merge(second)
        assert first.heap_pops == 5
        assert first.edges_relaxed == 9
        assert first.lanes_started == 5
        assert SearchProfile.from_dict(first.to_dict()).to_dict() == (
            first.to_dict()
        )

    def test_render_mentions_the_counters(self):
        profile = SearchProfile()
        profile.heap_pops = 12
        text = profile.render()
        assert "heap_pops=12" in text
        assert "expansion_ms=0.00" in text

    def test_render_reports_microseconds_per_pop(self):
        profile = SearchProfile()
        assert profile.render().endswith(" us_per_pop=0.00")  # no pops
        profile.heap_pops = 400
        profile.expansion_seconds = 0.0018
        assert profile.render().endswith(" expansion_ms=1.80 us_per_pop=4.50")


class TestEventLog:
    def test_emits_json_lines(self):
        log = EventLog(logger=logging.getLogger("banks.events.test-emit"))
        sink = io.StringIO()
        handler = log.attach(stream=sink)
        try:
            log.query(trace_id="abc", duration_ms=1.5)
        finally:
            log.logger.removeHandler(handler)
        event = json.loads(sink.getvalue().strip())
        assert event["event"] == "query"
        assert event["trace_id"] == "abc"
        assert "ts" in event

    def test_quiet_by_default(self):
        log = EventLog(logger=logging.getLogger("banks.events.test-quiet"))
        log.query(trace_id="abc")  # no handler attached: must not raise
