"""Query result caching for interactive front ends.

The paper's front end is a Web application; repeated queries (reloads,
back buttons, shared links) are the common case, and graph search is
the expensive step.  :class:`ResultCache` is a small LRU keyed by the
*semantics* of a search — normalised query text plus every knob that
affects ranking — and :class:`CachedBanks` wires it into the facade.

The cache is deliberately conservative: any knob it does not recognise
bypasses caching rather than risking a stale or mismatched entry.  The
serving layer never writes under it: a :class:`CachedBanks` cannot
fork, so the snapshot store (:mod:`repro.serve.snapshot`) serves it
read-only.  A caller that changes the database directly drops every
entry with :meth:`CachedBanks.invalidate`.

The cache is thread-safe: the serving engine
(:mod:`repro.serve.engine`) hits one :class:`CachedBanks` from a whole
worker pool, so every read/write of the LRU order and the hit/miss
counters happens under one lock.  ``clear()`` during an in-flight
computation is safe — the late ``put`` simply re-populates the entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple, Union

from repro.core.banks import BANKS, Answer
from repro.core.query import ParsedQuery, parse_query
from repro.core.scoring import ScoringConfig
from repro.errors import QueryError


@dataclass
class CacheStats:
    """Hit/miss counters (monotone; ratios derived)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.requests:
            return 0.0
        return self.hits / self.requests


class ResultCache:
    """A bounded LRU mapping hashable keys to answer lists.

    Safe for concurrent use from multiple threads: lookups, inserts,
    eviction and the stats counters are serialised by an internal lock.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise QueryError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _query_key(query: Union[str, ParsedQuery]) -> Tuple:
    parsed = parse_query(query) if isinstance(query, str) else query
    return tuple(
        (term.kind, term.term, term.attribute, term.number)
        for term in parsed.terms
    )


def _scoring_key(scoring: Optional[ScoringConfig]) -> Tuple:
    if scoring is None:
        return ()
    return (
        scoring.lambda_weight,
        scoring.edge_log,
        scoring.node_log,
        scoring.combination,
    )


class CachedBanks(BANKS):
    """A BANKS facade with an LRU result cache in front of search.

    Identical queries (same terms after normalisation, same result
    count, same scoring override) return the cached answer list;
    anything else falls through.  Call :meth:`invalidate` after data
    changes.
    """

    def __init__(self, database, cache_capacity: int = 128, **banks_options):
        super().__init__(database, **banks_options)
        self.cache = ResultCache(cache_capacity)

    def search(
        self,
        query,
        max_results=None,
        scoring=None,
        trace=None,
        trace_parent=None,
        profile=None,
        on_answer=None,
        **config_overrides,
    ) -> List[Answer]:
        if config_overrides:
            # Unrecognised knobs: bypass rather than over-key the cache.
            return super().search(
                query,
                max_results=max_results,
                scoring=scoring,
                trace=trace,
                trace_parent=trace_parent,
                profile=profile,
                on_answer=on_answer,
                **config_overrides,
            )
        # Tracing/profiling does not affect ranking, so it stays out of
        # the cache key: traced and untraced requests share entries.
        key = (_query_key(query), max_results, _scoring_key(scoring))
        cached = self.cache.get(key)
        if cached is not None:
            if trace is not None:
                with trace.span(
                    "search.cache", parent_id=trace_parent, hit=True
                ) as span:
                    span.attrs["answers"] = len(cached)
            if on_answer is not None:
                # A hit still streams: replay the cached list through
                # the callback so SSE consumers see the same events.
                for answer in cached:
                    on_answer(answer)
            return list(cached)
        answers = super().search(
            query,
            max_results=max_results,
            scoring=scoring,
            trace=trace,
            trace_parent=trace_parent,
            profile=profile,
            on_answer=on_answer,
        )
        self.cache.put(key, tuple(answers))
        return answers

    def invalidate(self) -> None:
        """Drop every cached result (call after mutating the data)."""
        self.cache.clear()
