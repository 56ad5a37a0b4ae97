"""Incremental maintenance vs full rebuild (deployment concern).

Sec. 5.2 measures the initial graph load (~2 minutes for 100K nodes in
the paper's Java prototype); a live deployment cannot pay that per
insert.  This bench quantifies the win: applying N inserts as graph
deltas must beat N full rebuilds by orders of magnitude and stay
equivalent to a rebuild (the tests assert equivalence; here we assert
the speedup and the end-state answer equality).

Run with::

    pytest benchmarks/bench_incremental.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from repro import BANKS
from repro.core.incremental import IncrementalBANKS
from repro.datasets import generate_bibliography

INSERTS = 60


def _new_rows(database, count: int):
    """(paper, writes) insert payloads referencing existing authors."""
    author_rows = list(database.table("author").scan())
    rows = []
    for index in range(count):
        pid = f"NEWP{index}"
        author = author_rows[index % len(author_rows)]
        rows.append(
            (
                ("paper", [pid, f"freshly inserted study {index}"]),
                ("writes", [author["author_id"], pid]),
            )
        )
    return rows


def test_incremental_insert_vs_rebuild(benchmark):
    def measure():
        database, _ = generate_bibliography(papers=250, authors=140, seed=3)
        payload = _new_rows(database, INSERTS)

        incremental = IncrementalBANKS(database)
        start = time.perf_counter()
        for paper_insert, writes_insert in payload:
            incremental.insert(*paper_insert)
            incremental.insert(*writes_insert)
        incremental_time = time.perf_counter() - start

        # One full rebuild, timed, as the per-insert alternative cost.
        start = time.perf_counter()
        rebuilt = BANKS(incremental.database)
        rebuild_time = time.perf_counter() - start

        return incremental, rebuilt, incremental_time, rebuild_time

    incremental, rebuilt, incremental_time, rebuild_time = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    per_delta = incremental_time / (2 * INSERTS)
    print(
        f"\n{2 * INSERTS} deltas in {1000 * incremental_time:.1f} ms "
        f"({1000 * per_delta:.2f} ms/delta); "
        f"one full rebuild: {1000 * rebuild_time:.1f} ms"
    )
    # A delta must be far cheaper than a rebuild (the whole point).
    # (Generous margin: CI timing noise must not flake the suite.)
    assert per_delta < rebuild_time / 3

    # End state equivalent: same stats and same answers.
    incremental._refresh_stats()
    assert incremental.stats == rebuilt.stats
    for query in ("freshly inserted", "soumen sunita"):
        left = [a.tree.undirected_key() for a in incremental.search(query)]
        right = [a.tree.undirected_key() for a in rebuilt.search(query)]
        assert left == right


def test_incremental_delete_vs_rebuild(benchmark):
    def measure():
        database, _ = generate_bibliography(papers=250, authors=140, seed=3)
        incremental = IncrementalBANKS(database)
        doomed = list(database.table("cites").rids())[:INSERTS]
        start = time.perf_counter()
        for rid in doomed:
            incremental.delete(("cites", rid))
        incremental_time = time.perf_counter() - start

        start = time.perf_counter()
        rebuilt = BANKS(incremental.database)
        rebuild_time = time.perf_counter() - start
        return incremental, rebuilt, incremental_time, rebuild_time

    incremental, rebuilt, incremental_time, rebuild_time = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    per_delta = incremental_time / INSERTS
    print(
        f"\n{INSERTS} deletes in {1000 * incremental_time:.1f} ms "
        f"({1000 * per_delta:.2f} ms/delete); "
        f"rebuild: {1000 * rebuild_time:.1f} ms"
    )
    assert per_delta < rebuild_time / 3
    incremental._refresh_stats()
    assert incremental.stats == rebuilt.stats

