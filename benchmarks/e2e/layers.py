"""The traced run: replay, then reduce spans to per-layer metrics.

A ``--trace 1`` run does, after the same set-up and warm-up as the
untraced run:

1. the workload's own extra phases, untraced (``point_http``'s open
   loop, ``mixed_rw``'s mixed phase: ``Workload.extra_phases``)
   -- their latencies are read
   by a user, but exist on one workload only, so they are reported here
   and not among the bounded end-to-end metrics every workload shares;
2. four replays of the first operations, one caller, one at a time:
   untraced, traced, traced, untraced -- the shims of ``trace.py`` are
   installed for the middle two.

Traced over untraced wall time is the tracing overhead; the mirrored
order cancels drift (a first pass alone read 7 % *slower* than the
traced pass after it).  Per-layer numbers come from both traced
passes.  Counts come from the
program's own ``SearchProfile`` (``QueryResult.profile``) and metrics
registry, not from the shims.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Optional

import trace as tracing
from stats import median


#: Replay pass ``n`` numbers its operations from ``n * PASS_STRIDE``.
PASS_STRIDE = 100_000


def replay(workload, tracer: Optional[tracing.Tracer], number: int) -> List[tuple]:
    """Run pass ``number`` of the replay one operation at a time:
    ``(op id, kind, wall s, value)`` per operation."""
    results = []
    for index, (kind, run) in enumerate(workload.replay_ops(number)):
        op = number * PASS_STRIDE + index
        if tracer is not None:
            tracer.op = op
        workload.probe.sample()
        started = perf_counter()
        value = run()
        results.append((op, kind, perf_counter() - started, value))
    if tracer is not None:
        tracer.op = -1
    return results


def _span(spans, *names):
    """The earliest span among ``spans`` with one of ``names``."""
    found = [s for s in spans if s[0] in names]
    return min(found, key=lambda s: s[1]) if found else None


def _duration(span) -> float:
    return span[2] - span[1] if span is not None else 0.0


def read_metrics(workload, tracer, traced: List[tuple]) -> Dict[str, float]:
    """Per-layer numbers of the read path from the traced replay."""
    by_op = tracer.by_op()
    rows: Dict[str, List[float]] = {}
    totals = {"heap_pops": 0, "edges_relaxed": 0, "iterators": 0,
              "trees_considered": 0, "expansion_seconds": 0.0}
    kernel_total = accounted = entry_total = 0.0
    reads = hits = 0
    shards_contributing: List[int] = []
    frame_shares: List[float] = []
    for op, kind, _wall, value in traced:
        if kind == "write":
            continue
        spans = by_op.get(op, [])
        reads += 1
        names = {s[0] for s in spans}
        entry = _span(spans, workload.entry_span)
        query_span = _span(spans, "cluster.query")
        cluster = _span(spans, "cluster.stream") or query_span
        backend = _span(spans, "serve.engine", "shard.router")
        facade = _span(spans, "core.cache") or _span(spans, "core.search")
        search = _span(spans, "core.search")
        profile = (query_span[4] or {}) if query_span is not None else {}
        for field in totals:
            totals[field] += profile.get(field, 0)
        shards_contributing.append(profile.get("shards", 0))
        if "net.client" in names:
            rows.setdefault("net.overhead", []).append(
                _duration(entry) - _duration(query_span))
        rows.setdefault("cluster.self", []).append(
            _duration(cluster) - _duration(backend))
        if backend is not None and backend[0] == "serve.engine" and facade:
            rows.setdefault("serve.queue_wait", []).append(facade[1] - backend[1])
            rows.setdefault("serve.self", []).append(
                _duration(backend) - _duration(facade))
        if "core.cache" in names and search is None:
            hits += 1
        resolve = tracing.span_of(spans, "core.resolve")
        if "core.kernel" in names:
            kernel = tracing.span_of(spans, "core.kernel")
        else:  # forked shard workers: the program's own kernel timer
            kernel = profile.get("expansion_seconds", 0.0) / max(
                1, getattr(workload, "shards", 1))
        if search is not None or backend is not None and backend[0] == "shard.router":
            rows.setdefault("core.resolve", []).append(resolve)
            rows.setdefault("core.kernel", []).append(kernel)
            kernel_total += kernel
        if search is not None:
            rows.setdefault("core.materialize", []).append(
                _duration(search) - resolve - kernel)
        if kind == "stream":
            latency, ttfa, _served = value
            frame_shares.append(ttfa / latency)
        accounted += sum(tracing.self_times(spans).values())
        entry_total += _duration(entry)
    lookups = [s for s in tracer.spans if s[0] == "text.lookup" and s[3] >= 0]
    out = {
        "net.overhead_p50_ms": 1e3 * median(rows.get("net.overhead", [])),
        "cluster.self_p50_ms": 1e3 * median(rows.get("cluster.self", [])),
        "serve.queue_wait_p50_ms": 1e3 * median(rows.get("serve.queue_wait", [])),
        "serve.self_p50_ms": 1e3 * median(rows.get("serve.self", [])),
        "core.cache.hit_share": hits / reads if reads else 0.0,
        "core.resolve_p50_ms": 1e3 * median(rows.get("core.resolve", [])),
        "core.kernel_p50_ms": 1e3 * median(rows.get("core.kernel", [])),
        "core.materialize_p50_ms": 1e3 * median(rows.get("core.materialize", [])),
        "core.kernel.heap_pops": totals["heap_pops"],
        "core.kernel.edges_relaxed": totals["edges_relaxed"],
        "core.kernel.lanes": totals["iterators"],
        "core.kernel.trees_considered": totals["trees_considered"],
        "core.kernel.us_per_pop": (
            1e6 * kernel_total / totals["heap_pops"] if totals["heap_pops"] else 0.0),
        "core.kernel.ms_per_lane": (
            1e3 * kernel_total / totals["iterators"] if totals["iterators"] else 0.0),
        "text.lookup_p50_us": 1e6 * median([s[2] - s[1] for s in lookups]),
        "text.postings_per_term": (
            statistics.fmean(s[4]["postings"] for s in lookups) if lookups else 0.0),
        "net.stream.first_frame_share": median(frame_shares),
        "bench.trace_accounted_share": accounted / entry_total if entry_total else 0.0,
    }
    if getattr(workload, "shards", 0):
        wall = sum(w for _o, kind, w, _v in traced if kind != "write")
        out["shard.expansion_share"] = (
            totals["expansion_seconds"] / (wall * workload.shards) if wall else 0.0)
        out["shard.contributing_mean"] = statistics.fmean(shards_contributing)
    return out


def write_metrics(tracer, traced: List[tuple]) -> Dict[str, float]:
    """Per-layer numbers of the write path from the traced replay."""
    by_op = tracer.by_op()
    rows: Dict[str, List[float]] = {}
    wal_bytes = writes = 0
    for op, kind, _wall, _value in traced:
        if kind != "write":
            continue
        writes += 1
        spans = by_op.get(op, [])
        selfs = tracing.self_times(spans)
        rows.setdefault("derive", []).append(tracing.span_of(spans, "store.derive"))
        rows.setdefault("apply", []).append(tracing.span_of(spans, "store.apply"))
        rows.setdefault("append", []).append(tracing.span_of(spans, "store.wal.append"))
        rows.setdefault("publish", []).append(selfs.get("store.publish", 0.0))
        wal_bytes += sum(
            (s[4] or {}).get("bytes", 0) for s in spans if s[0] == "store.wal.append")
    return {
        "store.derive_p50_ms": 1e3 * median(rows.get("derive", [])),
        "store.apply_p50_ms": 1e3 * median(rows.get("apply", [])),
        "store.wal.append_p50_ms": 1e3 * median(rows.get("append", [])),
        "store.publish_p50_ms": 1e3 * median(rows.get("publish", [])),
        "store.wal.fsync_count": tracer.fsyncs.get("store.wal.append", 0),
        "store.wal.bytes_per_write": wal_bytes / writes if writes else 0.0,
    }


def background_metrics(tracer, write_intervals) -> Dict[str, float]:
    """Checkpoints and ingest chunks, from the few-call shims that are
    installed for the whole run."""
    checkpoints = [s for s in tracer.spans if s[0] == "ops.checkpoint"]
    stall = 0.0
    for _name, start, end, _op, _extra in checkpoints:
        overlapping = [done - sent for sent, done in write_intervals
                       if sent < end and done > start]
        stall = max([stall] + overlapping)
    return {
        "ops.checkpoint.count": len(checkpoints),
        "ops.checkpoint.write_p50_ms": 1e3 * median(
            [s[2] - s[1] for s in checkpoints]),
        "ops.checkpoint.bytes": max(
            [(s[4] or {}).get("bytes", 0) for s in checkpoints] or [0]),
        "ops.checkpoint.stall_max_ms": 1e3 * stall,
        "ingest.chunk_commit_p50_ms": 1e3 * median(
            tracer.durations("ingest.chunk_commit", ops_only=False)),
        "ingest.cursor_save_p50_ms": 1e3 * median(
            tracer.durations("ingest.cursor_save", ops_only=False)),
    }


def diagnose(workload, tracer: tracing.Tracer, keep: int) -> Dict[str, float]:
    """The traced run (module docstring); returns the measured per-layer
    metrics (the caller fills absent ones with 0).  ``keep`` is the
    number of background shims to leave installed."""
    out = workload.extra_phases()
    untraced: List[tuple] = []
    traced: List[tuple] = []
    try:
        for number, with_shims in enumerate((False, True, True, False)):
            if with_shims and number == 1:
                tracing.install_read_shims(tracer)
                if workload.has_writes:
                    tracing.install_write_shims(tracer)
            elif not with_shims:
                tracer.uninstall(keep)
            workload.reset_caches()
            results = replay(workload, tracer if with_shims else None, number)
            (traced if with_shims else untraced).extend(results)
            if number == 0:
                out.update(workload.baseline(results))
    finally:
        tracer.uninstall(keep)
    out.update(read_metrics(workload, tracer, traced))
    if workload.has_writes:
        out.update(write_metrics(tracer, traced))
    out.update(background_metrics(tracer, workload.write_intervals))
    out.update(workload.state_metrics())
    out["_attempted"] = out.get("_attempted", 0) + len(untraced) + len(traced)
    out["bench.trace_overhead_share"] = (
        sum(r[2] for r in traced) / sum(r[2] for r in untraced) - 1.0)
    registry = workload.cluster.metrics
    if registry is not None:
        counters = registry.snapshot()

        def counter(suffix: str) -> float:
            return sum(v for k, v in counters.items() if k.endswith(suffix))

        requests = counter("requests_total")
        out["serve.dedup_share"] = (
            counter("dedup_shared_total") / requests if requests else 0.0)
        out["serve.shed_count"] = counter("shed_total")
    return out
