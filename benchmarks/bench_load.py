"""Section 5.2 — graph (and index) load time vs database scale.

The paper: "The graph currently takes about 2 minutes to load initially"
for ~100K nodes / 300K edges (Java, untuned).  This bench builds the
BANKS graph (laid straight into the CSR arrays the facade serves from)
+ keyword index at three scales and reports wall time, so the numbers
can sit next to the paper's.
"""

from __future__ import annotations

import pytest

from repro.core.model import build_data_graph
from repro.datasets import generate_bibliography
from repro.text.inverted_index import InvertedIndex

#: (label, papers, authors) — nodes scale roughly as 4.3x papers.
SCALES = [
    ("small", 400, 220),
    ("medium", 2000, 900),
    ("large", 6000, 2500),
]


@pytest.mark.parametrize(("label", "papers", "authors"), SCALES)
def test_graph_load(benchmark, label, papers, authors):
    database, _anecdotes = generate_bibliography(
        papers=papers, authors=authors, include_anecdotes=False
    )

    def build():
        _graph, stats = build_data_graph(database)
        index = InvertedIndex(database)
        return stats, len(index)

    stats, terms = benchmark.pedantic(build, rounds=2, iterations=1)
    print(
        f"\n[{label}] nodes={stats.num_nodes} edges={stats.num_edges} "
        f"index_terms={terms}"
    )
    assert stats.num_nodes == database.total_rows()
