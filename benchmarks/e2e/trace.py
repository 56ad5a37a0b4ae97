"""Timing shims around the layers' public entry points.

The benchmark measures the program from outside: nothing under ``src/``
changes.  In a ``--trace 1`` run the operations are replayed one at a
time by a single caller, so at most one request is in flight and every
span recorded while operation ``i`` runs belongs to operation ``i`` --
parentage follows from interval nesting, with no context to propagate
across the server's executor and worker threads.  A layer's self time
is its span minus the part of that interval its child spans cover.

Each shim is installed where the name is looked up (a class attribute,
or the importing module's global), keeps spans in memory, and is
removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (name, start, end, op index, extra) -- times are ``perf_counter``.
Span = Tuple[str, float, float, int, Optional[dict]]


class Tracer:
    """In-memory span store plus the patching that fills it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the operation being replayed (-1 outside a replay:
        #: spans recorded then, e.g. during set-up, carry -1).
        self.op = -1
        self.fsyncs: Dict[str, int] = {}
        self._open: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def record(self, name, start, end, extra=None) -> None:
        self.spans.append((name, start, end, self.op, extra))

    # -- patching ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        plain = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        shim = make(plain)
        if isinstance(original, staticmethod):
            shim = staticmethod(shim)
        elif isinstance(original, classmethod):
            shim = classmethod(shim)
        setattr(owner, attr, shim)

    def wrap(self, owner, attr, name, extra: Optional[Callable] = None) -> None:
        """Span ``name`` covers each call of ``owner.attr``; ``extra``
        maps the return value to a dict kept with the span."""

        def make(fn):
            @functools.wraps(fn)
            def shim(*args, **kwargs):
                self._open.append(name)
                start = perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    self._open.pop()
                    self.record(
                        name, start, end,
                        extra(result) if extra and result is not None else None,
                    )

            return shim

        self._patch(owner, attr, make)

    def wrap_generator(self, owner, attr, name) -> None:
        """Span ``name`` runs from the first ``next()`` of the generator
        ``owner.attr`` returns until it is exhausted or closed."""

        def make(fn):
            @functools.wraps(fn)
            def shim(*args, **kwargs):
                start = None
                try:
                    inner = fn(*args, **kwargs)
                    start = perf_counter()
                    yield from inner
                finally:
                    if start is not None:
                        self.record(name, start, perf_counter())

            return shim

        self._patch(owner, attr, make)

    def wrap_future(self, owner, attr, name) -> None:
        """Span ``name`` runs from the call of ``owner.attr`` until the
        future it returns is done."""

        def make(fn):
            @functools.wraps(fn)
            def shim(*args, **kwargs):
                start = perf_counter()
                future = fn(*args, **kwargs)
                op = self.op
                future.add_done_callback(
                    lambda _f: self.spans.append(
                        (name, start, perf_counter(), op, None)
                    )
                )
                return future

            return shim

        self._patch(owner, attr, make)

    def count_fsyncs(self) -> None:
        """Count ``os.fsync`` calls by the innermost open wrapped call."""

        def make(fn):
            def shim(fd):
                key = self._open[-1] if self._open else ""
                self.fsyncs[key] = self.fsyncs.get(key, 0) + 1
                return fn(fd)

            return shim

        self._patch(os, "fsync", make)

    def uninstall(self, keep: int = 0) -> None:
        """Remove shims, newest first, down to the first ``keep``."""
        while len(self._undo) > keep:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def durations(self, name: str, ops_only: bool = True) -> List[float]:
        """Seconds of every span called ``name`` (replayed ops only
        unless ``ops_only`` is false)."""
        return [
            end - start
            for span_name, start, end, op, _ in self.spans
            if span_name == name and (op >= 0 or not ops_only)
        ]

    def by_op(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span[3] >= 0:
                grouped.setdefault(span[3], []).append(span)
        return grouped

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, op, extra in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "op": op, "extra": extra}
                    )
                    + "\n"
                )


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per span name for one operation's spans.

    Spans nest by interval (one operation in flight): a span's parent
    is the innermost span that contains it, and its self time is its
    duration minus the durations of its direct children.
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    totals: Dict[str, float] = {}
    stack: List[List[Any]] = []  # [name, end, self seconds]
    for name, start, end, _op, _extra in ordered:
        while stack and start >= stack[-1][1]:
            done = stack.pop()
            totals[done[0]] = totals.get(done[0], 0.0) + done[2]
        if stack:
            stack[-1][2] -= min(end, stack[-1][1]) - start
        stack.append([name, end, end - start])
    for done in stack:
        totals[done[0]] = totals.get(done[0], 0.0) + done[2]
    return totals


def span_of(spans: List[Span], name: str) -> float:
    """Total seconds of the spans called ``name`` among ``spans``."""
    return sum(end - start for n, start, end, _o, _e in spans if n == name)


def install_background_shims(tracer: Tracer) -> int:
    """Shims around calls made a handful of times per run -- graph
    construction, checkpoints, ingest chunks, WAL replay -- cheap enough
    to stay installed from start to end.  Returns how many shims are now
    installed (the ``keep`` that :meth:`Tracer.uninstall` preserves)."""
    import repro.core.banks as banks_module
    from repro.core.incremental import IncrementalBANKS
    from repro.ingest.jobs import JobRegistry
    from repro.ingest.pipeline import StoreTarget
    from repro.ops.checkpoint import CheckpointManager

    import repro.shard.router as router_module

    for module in (banks_module, router_module):
        tracer.wrap(module, "build_data_graph", "graph.build")
        tracer.wrap(module, "freeze_graph", "graph.freeze")
    tracer.wrap(CheckpointManager, "checkpoint", "ops.checkpoint",
                extra=lambda record: {"bytes": record.size_bytes})
    tracer.wrap(StoreTarget, "commit", "ingest.chunk_commit")
    tracer.wrap(JobRegistry, "save", "ingest.cursor_save")
    tracer.wrap(IncrementalBANKS, "apply_epochs", "store.replay")
    return len(tracer._undo)


def install_read_shims(tracer: Tracer) -> None:
    """The read path, outermost first: client, cluster, engine, facade,
    resolve, index, kernel."""
    import repro.core.banks as banks_module
    from repro.cluster.api import Cluster
    from repro.core.banks import BANKS
    from repro.core.cache import CachedBanks
    from repro.net.client import BanksClient
    from repro.serve.engine import QueryEngine
    from repro.shard.router import ShardRouter
    from repro.text.inverted_index import InvertedIndex

    def profile_of(result):
        profile = getattr(result, "profile", None)
        extra = {"shards": len(getattr(result, "shards", ()))}
        if profile is not None:
            extra.update(profile.to_dict())
        return extra

    tracer.wrap(BanksClient, "query", "net.client")
    tracer.wrap_generator(BanksClient, "query_stream", "net.client")
    tracer.wrap_generator(Cluster, "query_stream", "cluster.stream")
    tracer.wrap(Cluster, "query", "cluster.query", extra=profile_of)
    tracer.wrap_future(QueryEngine, "submit", "serve.engine")
    tracer.wrap(ShardRouter, "search", "shard.router")
    tracer.wrap(CachedBanks, "search", "core.cache")
    tracer.wrap(BANKS, "search", "core.search")
    tracer.wrap(BANKS, "resolve", "core.resolve")
    tracer.wrap(
        InvertedIndex, "lookup_nodes", "text.lookup",
        extra=lambda nodes: {"postings": len(nodes)},
    )
    tracer.wrap_generator(
        banks_module, "backward_expanding_search", "core.kernel"
    )


def install_write_shims(tracer: Tracer) -> None:
    """The write path: derive, apply, WAL append (+ fsync), publish."""
    import repro.core.incremental as incremental
    from repro.serve.snapshot import SnapshotStore
    from repro.store.wal import WalWriter

    for attr in ("derive_insert", "derive_update", "derive_delete"):
        tracer.wrap(incremental, attr, "store.derive")
    tracer.wrap(incremental, "apply_graph_delta", "store.apply")
    tracer.wrap(WalWriter, "append", "store.wal.append",
                extra=lambda written: {"bytes": written})
    tracer.wrap(SnapshotStore, "mutate", "store.publish")
    tracer.count_fsyncs()
