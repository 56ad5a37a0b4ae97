#!/usr/bin/env python
"""Live data: incremental maintenance, no rebuilds.

The paper reports a ~2 minute initial graph load (Sec. 5.2) — fine
once, fatal per update.  This example runs BANKS as a *live* system:
tuples are inserted, updated and deleted while the engine is serving
queries, and the graph and keyword index follow as deltas
(`IncrementalBANKS`), never rebuilding.

Run:
    python examples/live_updates.py
"""

from __future__ import annotations

import time

from repro.core.incremental import IncrementalBANKS
from repro.datasets import generate_bibliography


def show(banks, query: str, note: str, max_results: int = 3) -> None:
    start = time.perf_counter()
    answers = banks.search(query, max_results=max_results)
    elapsed = 1000 * (time.perf_counter() - start)
    print(f"\n>>> {query!r}  ({note}; {elapsed:.0f} ms)")
    for answer in answers:
        print(f"  [{answer.relevance:.3f}] "
              f"{banks.node_label(answer.tree.root)}")


def main() -> None:
    database, _ = generate_bibliography(papers=200, authors=120, seed=7)
    start = time.perf_counter()
    banks = IncrementalBANKS(database)
    print(f"initial build: {banks} in "
          f"{1000 * (time.perf_counter() - start):.0f} ms")

    show(banks, "quantum indexing", "before any insert")

    # A new paper arrives — searchable immediately, no rebuild.
    start = time.perf_counter()
    paper = banks.insert("paper", ["LIVE1", "Quantum Indexing Structures"])
    author_row = next(database.table("author").scan())
    banks.insert("writes", [author_row["author_id"], "LIVE1"])
    print(f"\n2 deltas applied in "
          f"{1000 * (time.perf_counter() - start):.2f} ms")
    show(banks, "quantum indexing", "after insert")

    # The title is corrected in place; the old term stops matching.
    banks.update(paper, {"title": "Holographic Indexing Structures"})
    show(banks, "quantum indexing", "after title update")
    show(banks, "holographic indexing", "new title matches")

    # Retraction: remove the authorship then the paper.
    writes_rid = next(
        rid
        for rid in database.table("writes").rids()
        if database.table("writes").row(rid)["paper_id"] == "LIVE1"
    )
    banks.delete(("writes", writes_rid))
    banks.delete(paper)
    show(banks, "holographic indexing", "after delete")

    print(f"\nfinal state: {banks}")
    print("every delta above kept the graph identical to a full rebuild "
          "(property-tested in tests/core/test_incremental.py)")


if __name__ == "__main__":
    main()
