"""Section 5.2 — memory utilisation of the data graph.

The paper: "For a bibliographic database with 100K nodes and 300K
edges, memory utilization was around 120 MB.  Java implementations are
notorious for wasting space."  This bench deep-measures the CSR graph
``build_data_graph`` returns (the arrays every facade serves from) at
several scales and reports MB plus derived per-node / per-edge byte
costs (the claim to preserve: the graph of a moderately large database
fits comfortably in memory).
"""

from __future__ import annotations

import pytest

from repro.core.model import build_data_graph
from repro.datasets import generate_bibliography
from repro.eval.memory import graph_memory_bytes

SCALES = [
    ("small", 400, 220),
    ("medium", 2000, 900),
]


@pytest.mark.parametrize(("label", "papers", "authors"), SCALES)
def test_graph_memory(benchmark, label, papers, authors):
    database, _anecdotes = generate_bibliography(
        papers=papers, authors=authors, include_anecdotes=False
    )
    graph, _stats = build_data_graph(database)

    report = benchmark.pedantic(
        graph_memory_bytes, args=(graph,), rounds=1, iterations=1
    )
    print(
        f"\n[{label}] nodes={report.num_nodes} edges={report.num_edges} "
        f"total={report.megabytes:.1f} MB "
        f"({report.bytes_per_node:.0f} B/node)"
    )
    # Sanity: the footprint stays in "modest amounts of memory" —
    # far below 10 KB per node even with Python object overhead.
    assert report.bytes_per_node < 10_000


def test_extrapolated_paper_scale():
    """Extrapolate per-node cost to the paper's 100K-node graph."""
    database, _anecdotes = generate_bibliography(
        papers=2000, authors=900, include_anecdotes=False
    )
    graph, _stats = build_data_graph(database)
    report = graph_memory_bytes(graph)
    per_node = report.total_bytes / report.num_nodes
    projected_mb = per_node * 100_000 / (1024 * 1024)
    print(
        f"\nprojected footprint at 100K nodes: {projected_mb:.0f} MB "
        f"(paper's Java prototype: ~120 MB)"
    )
    assert projected_mb < 1_000
