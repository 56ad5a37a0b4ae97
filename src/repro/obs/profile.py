"""Kernel profiling counters: what one search actually did.

A :class:`SearchProfile` is a mutable counter block the backward
expanding search (:func:`repro.core.search.backward_expanding_search`,
or the oracle's reference twin) fills while it runs.
The contract with the hot loop is strict: every increment is guarded by
``if profile is not None`` at the call site, so a search without
profiling pays one ``None`` check per counted event and
nothing else — no allocation, no attribute lookup, no lock.

One profile describes one kernel invocation; sharded and replicated
topologies sum per-worker profiles into the caller's block with
:meth:`SearchProfile.merge` / :meth:`SearchProfile.merge_dict` (dicts
are what crosses the forked-worker pipes).  The finished block rides
on span attributes and on ``QueryResult.profile``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


class SearchProfile:
    """Counters for one search-kernel run (or a merged set of runs).

    Attributes are plain numbers on purpose — the kernel touches them
    directly, and the whole block serialises as a dict.
    """

    #: Every counted field, in render order.  ``expansion_seconds`` is
    #: the only float (kernel wall time inside the expansion loop).
    FIELDS = (
        "heap_pops",
        "nodes_expanded",
        "edges_relaxed",
        "trees_considered",
        "duplicate_trees",
        "answers_emitted",
        "iterators",
        "lanes_started",
        "expansion_seconds",
    )

    __slots__ = FIELDS

    def __init__(self) -> None:
        self.heap_pops = 0
        self.nodes_expanded = 0
        self.edges_relaxed = 0
        self.trees_considered = 0
        self.duplicate_trees = 0
        self.answers_emitted = 0
        self.iterators = 0
        #: Iterators that settled at least one node (``iterators``
        #: counts those created) — a broad query creates hundreds of
        #: lanes and starts a handful.
        self.lanes_started = 0
        self.expansion_seconds = 0.0

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "SearchProfile") -> "SearchProfile":
        """Add another profile's counters into this one (shard sums)."""
        for field in self.FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def merge_dict(self, payload: Optional[Mapping[str, Any]]) -> "SearchProfile":
        """Add a serialised profile (from a forked worker) into this one."""
        if payload:
            for field in self.FIELDS:
                value = payload.get(field)
                if value:
                    setattr(self, field, getattr(self, field) + value)
        return self

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {field: getattr(self, field) for field in self.FIELDS}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchProfile":
        profile = cls()
        profile.merge_dict(payload)
        return profile

    def render(self) -> str:
        """One human line: the counters an operator scans first, then
        the kernel's cost per heap pop (what point queries are bound by;
        the benchmark reports the same ratio as ``core.kernel.us_per_pop``)."""
        pops = self.heap_pops
        us_per_pop = self.expansion_seconds * 1e6 / pops if pops else 0.0
        return (
            f"heap_pops={self.heap_pops} "
            f"nodes_expanded={self.nodes_expanded} "
            f"edges_relaxed={self.edges_relaxed} "
            f"trees_considered={self.trees_considered} "
            f"duplicates={self.duplicate_trees} "
            f"answers={self.answers_emitted} "
            f"iterators={self.iterators} "
            f"lanes_started={self.lanes_started} "
            f"expansion_ms={self.expansion_seconds * 1000.0:.2f} "
            f"us_per_pop={us_per_pop:.2f}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SearchProfile({self.render()})"
