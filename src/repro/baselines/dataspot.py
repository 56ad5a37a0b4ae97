"""DataSpot-style search: undirected hyperbase, size-ranked fact trees.

DataSpot [6, 12, 13] models the database as an undirected "hyperbase"
and returns answer trees rooted at *fact nodes*, scored by tree
compactness.  Per the paper's Sec. 6 comparison, the two ingredients
BANKS adds on top of this model are exactly what this baseline lacks:

* **no directional hub penalty** — every association edge costs the
  same in both directions, so hub nodes (a department, a prolific
  author's Writes fan-in) create spurious short connections;
* **no node prestige** — a heavily cited paper and an uncited one
  containing the same keyword are tied.

Implementation: the BANKS machinery is reused with both ingredients
switched off — a symmetric uniform-weight graph (every FK reference
contributes weight-1 edges in both directions) and pure edge scoring
(``lambda = 0``).  Everything else (iterator multiplexing, duplicate
handling, incremental emission) matches, so measured differences are
attributable to the model, not the engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Union

from repro.core.banks import BANKS
from repro.core.model import GraphStats
from repro.core.query import ParsedQuery, parse_query, resolve_query
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import (
    ScoredAnswer,
    SearchConfig,
    backward_expanding_search,
)
from repro.graph.csr import freeze_graph
from repro.graph.digraph import DiGraph
from repro.relational.database import Database
from repro.text.inverted_index import InvertedIndex


def build_hyperbase(database: Database) -> DiGraph:
    """The undirected association graph: weight-1 edges both ways for
    every foreign-key reference; node weights unused (uniform 1)."""
    graph = DiGraph()
    for table in database.tables():
        table_name = table.schema.name
        for rid in table.rids():
            graph.add_node((table_name, rid), weight=1.0)
    for table in database.tables():
        table_name = table.schema.name
        for rid in table.rids():
            source = (table_name, rid)
            for _fk, target in database.references_of(source):
                if source == target:
                    continue
                graph.add_edge(source, target, 1.0)
                graph.add_edge(target, source, 1.0)
    return graph


class DataSpotSearch:
    """Keyword search in the DataSpot model.

    Args:
        database: the data to search.
        include_metadata: let keywords match table/column names (DataSpot
            "does not make metadata queries explicit"; default off).
        max_results: answers returned per query.
    """

    def __init__(
        self,
        database: Database,
        include_metadata: bool = False,
        max_results: int = 10,
    ):
        self.database = database
        self.include_metadata = include_metadata
        self.graph = freeze_graph(build_hyperbase(database))
        self.index = InvertedIndex(database)
        stats = GraphStats(
            min_edge_weight=1.0,
            max_node_weight=1.0,
            num_nodes=self.graph.num_nodes,
            num_edges=self.graph.num_edges,
        )
        # Pure proximity: relevance = 1 / (1 + tree size in edges).
        self.scorer = Scorer(
            stats, ScoringConfig(lambda_weight=0.0, edge_log=False)
        )
        self.config = SearchConfig(max_results=max_results)

    def search(
        self, query: Union[str, ParsedQuery], max_results: Optional[int] = None
    ) -> List[ScoredAnswer]:
        """Ranked fact trees for ``query`` (best first)."""
        parsed = parse_query(query) if isinstance(query, str) else query
        keyword_node_sets = resolve_query(
            parsed,
            self.index,
            self.database,
            include_metadata=self.include_metadata,
        )
        config = self.config
        if max_results is not None and max_results != config.max_results:
            config = replace(config, max_results=max_results)
        return list(
            backward_expanding_search(
                self.graph, keyword_node_sets, self.scorer, config
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataSpotSearch({self.database.name}: "
            f"{self.graph.num_nodes} nodes)"
        )
