"""Spans, trace context, the trace ring buffer and sampling.

One query produces one :class:`Trace`: a mutable, thread-safe span
collector created at the outermost serving surface (the cluster's read
core behind ``Cluster.query``, ``submit`` and ``query_stream`` — or the
engine/router itself when called directly) and handed down
through every layer.  Each layer records spans against explicit parent
ids, so the finished trace reconstructs a single rooted tree —
queue-wait, snapshot-pin, per-shard expansion and merge phases as
children of one root.

Crossing a forked-worker pipe, the ``Trace`` object itself cannot
travel (it holds a lock and belongs to the coordinator).  What crosses
is :meth:`Trace.ctx` — ``{"trace_id", "parent_id"}`` — and what comes
back with the response is the child's span list
(:meth:`Trace.export`), absorbed into the coordinator's collector with
:meth:`Trace.absorb`.  Because every child span carried a real parent
id from the serialised context, re-parenting on the coordinator is
structural, not heuristic.

Span ids are ``{pid:x}-{counter:x}``: unique across forked children
without shared state or randomness.

Storage is **tail-sampled**: every traced query builds its spans, and
:meth:`TraceStore.offer` decides *keeping* — ``always``, a
deterministic 1-in-N rate, or ``slow`` (only queries at or above the
slow-query threshold).  Slow queries are always kept, whatever the
sampling mode, and additionally land in the event log at WARNING.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.events import EventLog
from repro.obs.profile import SearchProfile

#: Sampling modes beyond a numeric rate.
SAMPLE_MODES = ("always", "off", "slow")

_span_counter = itertools.count(1)
_trace_counter = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_span_counter):x}"


def _new_trace_id() -> str:
    return f"{os.getpid():x}{time.time_ns() & 0xFFFFFFFFFF:010x}{next(_trace_counter):x}"


def parse_sample(value: Union[str, float, int]) -> Union[str, float]:
    """Normalise a sampling knob: a mode name or a rate in (0, 1].

    Accepts ``"always"`` / ``"off"`` / ``"slow"``, a float, or a
    numeric string (``"0.1"`` = keep one trace in ten).  ``1.0``
    normalises to ``"always"``, ``0`` to ``"off"``.
    """
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in SAMPLE_MODES:
            return lowered
        try:
            value = float(lowered)
        except ValueError:
            raise ReproError(
                f"invalid trace sample {value!r}: expected one of "
                f"{'/'.join(SAMPLE_MODES)} or a rate in (0, 1]"
            ) from None
    rate = float(value)
    if rate <= 0.0:
        return "off"
    if rate >= 1.0:
        return "always"
    return rate


def query_text(query: Any) -> str:
    """A human-readable query string for records and event lines.

    Accepts the raw string or a parsed query (anything with ``.terms``
    carrying ``.raw`` tokens) — every serving layer can hand over
    whatever form it holds."""
    terms = getattr(query, "terms", None)
    if terms is not None:
        try:
            return " ".join(term.raw for term in terms)
        except (AttributeError, TypeError):
            pass
    return str(query)


class Span:
    """One timed phase of one query, with explicit parentage."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
        span_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id or _new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start = time.time() if start is None else start
        self.end = end
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=payload["trace_id"],
            name=payload["name"],
            parent_id=payload.get("parent_id"),
            start=payload.get("start"),
            end=payload.get("end"),
            span_id=payload.get("span_id"),
            attrs=dict(payload.get("attrs") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ms:.2f}ms)"
        )


class Trace:
    """The per-query span collector (thread-safe; one per query)."""

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or _new_trace_id()
        #: Where a child process should hang its outermost span — set
        #: by :meth:`from_ctx` from the serialised parent id.
        self.parent_hint: Optional[str] = None
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    # -- recording -------------------------------------------------------------

    def begin(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> Span:
        """Open a span now; it joins the trace when :meth:`end` closes it."""
        return Span(self.trace_id, name, parent_id=parent_id, attrs=attrs)

    def end(self, span: Span) -> Span:
        span.end = time.time()
        with self._lock:
            self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        parent_id: Optional[str],
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """Append an already-measured phase (e.g. queue wait) retroactively."""
        span = Span(
            self.trace_id, name, parent_id=parent_id, start=start, end=end,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(span)
        return span

    class _SpanScope:
        __slots__ = ("trace", "span")

        def __init__(self, trace: "Trace", span: Span):
            self.trace = trace
            self.span = span

        def __enter__(self) -> Span:
            return self.span

        def __exit__(self, exc_type, exc, tb) -> None:
            if exc_type is not None:
                self.span.attrs["error"] = exc_type.__name__
            self.trace.end(self.span)

    def span(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> "Trace._SpanScope":
        """``with trace.span("router.merge", parent_id=...) as s: ...``"""
        return Trace._SpanScope(self, self.begin(name, parent_id, **attrs))

    # -- crossing process boundaries -------------------------------------------

    def ctx(self, parent_id: Optional[str]) -> Dict[str, Optional[str]]:
        """The picklable context that crosses a worker pipe."""
        return {"trace_id": self.trace_id, "parent_id": parent_id}

    @classmethod
    def from_ctx(cls, ctx: Dict[str, Optional[str]]) -> "Trace":
        trace = cls(trace_id=ctx.get("trace_id") or None)
        trace.parent_hint = ctx.get("parent_id")
        return trace

    def absorb(self, span_dicts: Iterable[Dict[str, Any]]) -> None:
        """Merge a worker's exported spans into this collector.

        The spans already carry correct parent ids (the worker hung
        its tree under the serialised ``parent_id``), so re-parenting
        is just id-space union; the trace id is coerced to ours.
        """
        spans = [Span.from_dict(payload) for payload in span_dicts]
        for span in spans:
            span.trace_id = self.trace_id
        with self._lock:
            self._spans.extend(spans)

    # -- reading ---------------------------------------------------------------

    def export(self) -> List[Dict[str, Any]]:
        """Every recorded span as dicts, ordered by start time."""
        with self._lock:
            spans = sorted(self._spans, key=lambda span: span.start)
            return [span.to_dict() for span in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# -- span-tree reconstruction and rendering ------------------------------------


def span_tree(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reconstruct the rooted tree(s) from exported span dicts.

    Returns a list of root nodes ``{"span": <dict>, "children": [...]}``;
    a span whose parent id is absent from the set (``None``, or a
    parent that was sampled away) becomes a root.  A correctly
    propagated query yields exactly one root.
    """
    by_id = {span["span_id"]: span for span in spans}
    nodes = {
        span_id: {"span": span, "children": []}
        for span_id, span in by_id.items()
    }
    roots: List[Dict[str, Any]] = []
    for span in sorted(spans, key=lambda item: item.get("start") or 0.0):
        node = nodes[span["span_id"]]
        parent = span.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def _render_node(
    node: Dict[str, Any], prefix: str, is_last: bool, lines: List[str]
) -> None:
    span = node["span"]
    connector = "" if not prefix and is_last is None else (
        "└─ " if is_last else "├─ "
    )
    duration = span.get("end")
    timing = (
        f" ({(duration - span['start']) * 1000.0:.2f} ms)"
        if duration is not None
        else ""
    )
    attrs = span.get("attrs") or {}
    rendered_attrs = " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )
    suffix = f"  [{rendered_attrs}]" if rendered_attrs else ""
    lines.append(f"{prefix}{connector}{span['name']}{timing}{suffix}")
    children = node["children"]
    child_prefix = prefix + (
        "" if is_last is None else ("   " if is_last else "│  ")
    )
    for index, child in enumerate(children):
        _render_node(
            child, child_prefix, index == len(children) - 1, lines
        )


def render_trace_tree(spans: List[Dict[str, Any]]) -> str:
    """ASCII span tree — what ``banks trace`` and ``/trace/<id>`` print."""
    lines: List[str] = []
    roots = span_tree(spans)
    for root in roots:
        _render_node(root, "", None, lines)
    return "\n".join(lines)


# -- finished traces, storage, sampling ----------------------------------------


@dataclass
class TraceRecord:
    """One finished query trace, as stored and served."""

    trace_id: str
    query: str
    topology: str
    duration_ms: float
    slow: bool
    ts: float
    spans: List[Dict[str, Any]] = field(default_factory=list)
    profile: Optional[Dict[str, Any]] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "query": self.query,
            "topology": self.topology,
            "duration_ms": round(self.duration_ms, 3),
            "slow": self.slow,
            "ts": self.ts,
            "spans": self.spans,
            "profile": self.profile,
            "attrs": self.attrs,
        }

    def render(self) -> str:
        header = (
            f"trace {self.trace_id}  query={self.query!r}  "
            f"topology={self.topology}  {self.duration_ms:.2f} ms"
            f"{'  SLOW' if self.slow else ''}"
        )
        body = render_trace_tree(self.spans)
        lines = [header]
        if body:
            lines.append(body)
        if self.profile:
            lines.append(
                "profile: " + SearchProfile.from_dict(self.profile).render()
            )
        return "\n".join(lines)


class TraceStore:
    """Ring buffer of finished traces with tail sampling.

    ``offer`` is the single keep/drop decision point: ``always`` keeps
    everything, a rate keeps a deterministic 1-in-N (evenly spaced, no
    RNG), ``slow`` keeps only queries at or above ``slow_query_ms``.
    Slow queries are *always* kept — they additionally go to a
    dedicated (smaller) slow ring so a burst of fast traffic cannot
    evict the evidence.
    """

    def __init__(
        self,
        sample: Union[str, float] = "always",
        slow_query_ms: Optional[float] = None,
        capacity: int = 256,
    ):
        self.sample = parse_sample(sample)
        self.slow_query_ms = slow_query_ms
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=self.capacity)
        self._slow: deque = deque(maxlen=min(self.capacity, 64))
        self.offered = 0
        self.kept = 0

    def is_slow(self, duration_ms: float) -> bool:
        return (
            self.slow_query_ms is not None
            and duration_ms >= self.slow_query_ms
        )

    def offer(self, record: TraceRecord) -> bool:
        """Apply the sampling policy; returns whether the trace was kept."""
        with self._lock:
            self.offered += 1
            keep = False
            if record.slow:
                keep = True
            elif self.sample == "always":
                keep = True
            elif self.sample == "off" or self.sample == "slow":
                keep = False
            else:  # deterministic rate: keep when the quota advances
                rate = float(self.sample)
                keep = int(self.offered * rate) > int((self.offered - 1) * rate)
            if keep:
                self.kept += 1
                self._records.append(record)
                if record.slow:
                    self._slow.append(record)
            return keep

    # -- reading ---------------------------------------------------------------

    def recent(self, n: int = 50) -> List[TraceRecord]:
        with self._lock:
            return list(self._records)[-n:][::-1]

    def slow(self, n: int = 50) -> List[TraceRecord]:
        with self._lock:
            return list(self._slow)[-n:][::-1]

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            for record in reversed(self._records):
                if record.trace_id == trace_id:
                    return record
        return None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sample": self.sample,
                "slow_query_ms": self.slow_query_ms,
                "capacity": self.capacity,
                "offered": self.offered,
                "kept": self.kept,
                "stored": len(self._records),
                "slow_stored": len(self._slow),
            }


class Observability:
    """The bundle one serving surface owns: knobs + store + event log.

    ``enabled`` is the single fast-path gate: with ``sample="off"``
    and no slow-query threshold, :meth:`begin` returns ``None`` and
    the serving layers skip every tracing branch.
    """

    def __init__(
        self,
        sample: Union[str, float] = "off",
        slow_query_ms: Optional[float] = None,
        buffer: int = 256,
        events: Optional[EventLog] = None,
    ):
        self.sample = parse_sample(sample)
        self.slow_query_ms = slow_query_ms
        self.store = TraceStore(
            sample=self.sample,
            slow_query_ms=slow_query_ms,
            capacity=buffer,
        )
        self.events = events or EventLog()

    @property
    def enabled(self) -> bool:
        return self.sample != "off" or self.slow_query_ms is not None

    def begin(self, trace_id: Optional[str] = None) -> Optional[Trace]:
        """A fresh per-query trace, or ``None`` when fully disabled.

        ``trace_id`` adopts a caller-supplied correlation id (the HTTP
        tier propagates ``X-Trace-Id`` request headers through here) so
        the stored record is findable under the id the client knows.
        """
        return Trace(trace_id=trace_id) if self.enabled else None

    def finish(
        self,
        trace: Trace,
        *,
        query: str = "",
        topology: str = "",
        duration_ms: float = 0.0,
        profile: Optional[SearchProfile] = None,
        **attrs: Any,
    ) -> TraceRecord:
        """Seal a trace: build the record, sample it into the store,
        and emit the correlated event-log line(s).

        Returns the record regardless of the store's keep decision —
        the caller (e.g. ``QueryResult.trace``) still gets it.
        """
        slow = self.store.is_slow(duration_ms)
        record = TraceRecord(
            trace_id=trace.trace_id,
            query=query_text(query),
            topology=topology,
            duration_ms=duration_ms,
            slow=slow,
            ts=time.time(),
            spans=trace.export(),
            profile=profile.to_dict() if profile is not None else None,
            attrs=dict(attrs),
        )
        self.store.offer(record)
        fields = {
            "trace_id": record.trace_id,
            "query": record.query,
            "topology": record.topology,
            "duration_ms": round(duration_ms, 3),
            **attrs,
        }
        if slow:
            if profile is not None:
                fields["profile"] = profile.to_dict()
            self.events.slow_query(**fields)
        else:
            self.events.query(**fields)
        return record


def merge_profiles(
    profiles: Iterable[Optional[SearchProfile]],
) -> Optional[SearchProfile]:  # pragma: no cover - convenience
    """Sum per-worker profiles; ``None`` entries are skipped."""
    merged: Optional[SearchProfile] = None
    for profile in profiles:
        if profile is None:
            continue
        if merged is None:
            merged = SearchProfile()
        merged.merge(profile)
    return merged
