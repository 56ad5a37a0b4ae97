"""``repro.obs`` — tracing, kernel profiling and structured events.

The observability layer ISSUE 6 added: a dependency-free (stdlib-only)
subsystem threaded through every serving layer, so a 600 ms query can
be attributed to queueing vs. expansion vs. scatter-gather vs. replica
lag instead of guessed at from two quantiles on ``/metrics``.

* :mod:`repro.obs.trace` — :class:`Span` / :class:`Trace` (one mutable
  collector per query, propagated down the serving layers and across
  forked-worker pipes as a serialisable context dict),
  :class:`TraceRecord` (the finished, storable form),
  :class:`TraceStore` (ring buffer with ``always`` / rate / ``slow``
  tail sampling) and :class:`Observability` (the bundle a cluster or
  engine owns: sampling knobs + store + event log).
* :mod:`repro.obs.profile` — :class:`SearchProfile`, the kernel
  counter block (heap pops, nodes expanded, edges relaxed, answers
  emitted, expansion wall time) the backward expanding search fills
  at near-zero cost when disabled.
* :mod:`repro.obs.events` — :class:`EventLog`, the stdlib-``logging``
  JSON-lines emitter with trace-id correlation (slow queries land
  here at WARNING).

The span-tree helpers (:func:`span_tree`, :func:`render_trace_tree`)
are what ``/trace/<id>`` and ``banks trace`` render.  Operational
walkthrough: ``docs/OPERATIONS.md`` ("Tracing & slow queries").
"""

from repro.obs.events import EventLog
from repro.obs.profile import SearchProfile
from repro.obs.trace import (
    Observability,
    Span,
    Trace,
    TraceRecord,
    TraceStore,
    parse_sample,
    render_trace_tree,
    span_tree,
)

__all__ = [
    "EventLog",
    "Observability",
    "SearchProfile",
    "Span",
    "Trace",
    "TraceRecord",
    "TraceStore",
    "parse_sample",
    "render_trace_tree",
    "span_tree",
]
