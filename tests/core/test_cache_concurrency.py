"""Concurrency tests for the result cache.

The serving engine hits one :class:`CachedBanks` from a whole worker
pool, so the cache must keep its LRU order and stats coherent under
contention, compose with single-flight dedup (no duplicate
computation), and survive ``clear()`` racing in-flight queries.
"""

from __future__ import annotations

import threading

from repro.core.cache import CachedBanks, ResultCache
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
    return load_sql(SCHEMA, "cache-conc")


def make_cached_banks(**kwargs) -> CachedBanks:
    return CachedBanks(make_database(), **kwargs)


class CountingBanks(CachedBanks):
    """CachedBanks that counts actual (non-cached) search computations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.computations = 0
        self._count_lock = threading.Lock()
        self.compute_gate = None

    # BANKS.search is what CachedBanks calls on a cache miss; wrapping
    # here counts exactly the cache-missing computations.
    def _compute(self):
        with self._count_lock:
            self.computations += 1
        if self.compute_gate is not None:
            assert self.compute_gate.wait(timeout=5)

    def search(self, query, **kwargs):
        # Intercept at the CachedBanks layer: a hit returns before the
        # marker runs, so only real computations count.
        cached_before = self.cache.stats.hits
        result = super().search(query, **kwargs)
        if self.cache.stats.hits == cached_before:
            self._compute()
        return result


class TestResultCacheUnderThreads:
    def test_stats_stay_consistent(self):
        """hits+misses must equal total gets even under contention."""
        cache = ResultCache(capacity=64)
        threads_n, ops = 8, 500

        def hammer(seed: int):
            for i in range(ops):
                key = (seed * i) % 96  # mixes hits, misses, evictions
                if cache.get(key) is None:
                    cache.put(key, key)

        threads = [
            threading.Thread(target=hammer, args=(s,))
            for s in range(1, threads_n + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stats.requests == threads_n * ops
        assert cache.stats.hits + cache.stats.misses == cache.stats.requests
        assert len(cache) <= 64

    def test_eviction_counter_matches_bound(self):
        cache = ResultCache(capacity=4)

        def fill(base: int):
            for i in range(100):
                cache.put((base, i), i)

        threads = [
            threading.Thread(target=fill, args=(b,)) for b in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 400 puts of distinct keys into capacity 4: all but 4 evicted.
        assert cache.stats.evictions == 400 - 4
        assert len(cache) == 4

    def test_clear_races_with_put_and_get(self):
        cache = ResultCache(capacity=32)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                i = 0
                while not stop.is_set():
                    cache.put(i % 50, i)
                    cache.get((i + 25) % 50)
                    i += 1
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        def clearer():
            try:
                while not stop.is_set():
                    cache.clear()
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        threads = [threading.Thread(target=churn) for _ in range(4)] + [
            threading.Thread(target=clearer) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join(timeout=10)
        stop_timer.cancel()
        assert not errors
        assert len(cache) <= 32


class TestSingleFlightPlusCache:
    def test_no_duplicate_computation_for_concurrent_identical_queries(self):
        """N identical queries racing through the engine compute once:
        single-flight collapses the in-flight window the cache cannot."""
        counting = CountingBanks(make_database())
        counting.compute_gate = threading.Event()

        with QueryEngine(counting, EngineConfig(workers=4)) as engine:
            futures = [engine.submit("ada engines") for _ in range(12)]
            counting.compute_gate.set()
            results = [f.result(timeout=5) for f in futures]
            assert counting.computations == 1
            assert all(r is results[0] for r in results)

    def test_cache_clear_during_inflight_query_is_safe(self):
        facade = make_cached_banks()
        with QueryEngine(facade, EngineConfig(workers=4)) as engine:
            stop = threading.Event()
            errors = []

            def clearer():
                try:
                    while not stop.is_set():
                        facade.cache.clear()
                except BaseException as error:  # noqa: BLE001 - reported
                    errors.append(error)

            thread = threading.Thread(target=clearer)
            thread.start()
            try:
                for _ in range(50):
                    answers = engine.search("ada engines", timeout=5)
                    assert answers
            finally:
                stop.set()
                thread.join(timeout=10)
            assert not errors

    def test_concurrent_distinct_queries_fill_cache_consistently(self):
        facade = make_cached_banks(cache_capacity=32)
        queries = ["ada", "engines", "analytical", "lovelace",
                   "ada engines", "analytical lovelace"]
        with QueryEngine(facade, EngineConfig(workers=4)) as engine:
            futures = [
                engine.submit(query)
                for _ in range(10)
                for query in queries
            ]
            for future in futures:
                future.result(timeout=10)
        stats = facade.cache.stats
        assert stats.requests == stats.hits + stats.misses
        # Every distinct query is cached at most once (single-flight
        # prevents duplicate misses from racing computations).
        assert len(facade.cache) == len(queries)
