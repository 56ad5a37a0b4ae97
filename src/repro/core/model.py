"""Build the BANKS data graph from a relational database (Sec. 2).

Every tuple becomes a node ``(table, rid)``; every foreign-key reference
``u -> v`` contributes

* a forward edge ``u -> v`` weighted ``s(R(u), R(v))``, and
* a backward edge ``v -> u`` weighted
  ``s_b(R(u), R(v)) * IN_{R(u)}(v)``,

where ``IN_{R(u)}(v)`` is the number of tuples of ``R(u)`` referencing
``v``.  When a directed pair ``(a, b)`` receives candidates from both a
forward reference and a backward reference (mutually referencing
relations), Eq. 1 merges them through the policy's rule (min by
default).  Node weights carry prestige (indegree or PageRank).

The graph is laid out straight into the frozen CSR arrays every
facade serves from (:class:`~repro.graph.csr.CSRGraph`): the Eq. 1
candidate map is the single source of edges, and no dict graph is
built on the way (PageRank prestige alone walks a forward-only one).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import pagerank
from repro.core.weights import WeightPolicy
from repro.relational.database import Database, RID
from repro.relational.schema import ForeignKey


def link_tables(database: Database) -> frozenset:
    """Tables that are pure relationship tables (every column is the
    source column of some foreign key), e.g. ``writes`` and ``cites``.

    The paper suggests restricting information nodes: "we may exclude
    the nodes corresponding to the tuples from a specified set of
    relations, such as Writes, which we believe are not meaningful root
    nodes".  This heuristic computes that set automatically from the
    catalog; :class:`repro.core.banks.BANKS` applies it by default.
    """
    excluded = set()
    for schema in database.schema.tables():
        if not schema.foreign_keys:
            continue
        fk_columns = set()
        for fk in schema.foreign_keys:
            fk_columns.update(fk.source_columns)
        if fk_columns == set(schema.column_names):
            excluded.add(schema.name)
    return frozenset(excluded)


@dataclass(frozen=True)
class GraphStats:
    """Normalisers the scorer needs, computed once per graph.

    Attributes:
        min_edge_weight: the paper's edge-score normaliser (``w_min``).
        max_node_weight: the paper's node-score normaliser (``w_max``).
        num_nodes: node count (reporting).
        num_edges: directed edge count, forward + backward (reporting).
    """

    min_edge_weight: float
    max_node_weight: float
    num_nodes: int
    num_edges: int


def stats_of(graph) -> GraphStats:
    """The scoring normalisers of ``graph`` as it stands now.

    The one computation the builder, the mutable facades and the shard
    searchers share: the normalisers divide every relevance score, so
    two copies of this formula would be a score-parity hazard.
    """
    max_node = graph.max_node_weight() if graph.num_nodes else 1.0
    return GraphStats(
        min_edge_weight=graph.min_edge_weight() if graph.num_edges else 1.0,
        max_node_weight=max(max_node, 1.0e-12),
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
    )


def _references(database: Database) -> Iterator[Tuple[RID, ForeignKey, RID]]:
    """Every resolved ``(source, fk, target)`` reference that is not a
    self reference (the graph model has no self loops), table by
    table in row-major, FK-declaration order."""
    for table in database.tables():
        table_name = table.schema.name
        for source, fk, target in database.resolved_references(table_name):
            if source != target:
                yield source, fk, target


def build_data_graph(
    database: Database, policy: Optional[WeightPolicy] = None
) -> Tuple[CSRGraph, GraphStats]:
    """Construct the data graph and its scoring normalisers.

    Args:
        database: a loaded relational database (FKs resolved).
        policy: weighting choices; defaults to the paper's defaults
            (all similarities 1, Eq. 1 ``min`` merge, indegree prestige).

    Returns:
        ``(graph, stats)`` where graph is a frozen
        :class:`~repro.graph.csr.CSRGraph` whose nodes are
        ``(table, rid)`` pairs, laid out straight from the rows.
        :func:`repro.graph.csr.freeze_graph` wraps it in the overlay a
        facade serves from; :meth:`~repro.graph.csr.CSRGraph.thaw`
        copies it into the oracle's dict graph.
    """
    if policy is None:
        policy = WeightPolicy()
    # Every live tuple is a node, isolated ones included, so they are
    # still searchable.
    ids = [(t.schema.name, rid) for t in database.tables() for rid in t.rids()]
    index = {node: i for i, node in enumerate(ids)}

    # Candidate weights per directed pair of node ids; merged via Eq. 1
    # when a pair receives both a forward and a backward candidate.
    # Insertion order is the graph's adjacency order.
    candidates: Dict[Tuple[int, int], float] = {}

    def offer(pair: Tuple[int, int], weight: float) -> None:
        existing = candidates.get(pair)
        if existing is None:
            candidates[pair] = weight
        else:
            candidates[pair] = policy.merge(existing, weight)

    # ``s(R1, R2)``/``s_b(R1, R2)`` depend only on the relation pair and
    # ``IN_{R(u)}(v)`` only on (target, referencing table), so both are
    # computed once per distinct key instead of once per referencing row
    # — on dense reference graphs (many tuples citing one) the repeated
    # indegree scan was quadratic in the popular target's indegree.
    pair_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
    backward_cache: Dict[Tuple[int, str], float] = {}
    scaling = policy.backward_indegree_scaling
    for source, fk, target in _references(database):
        source_id, target_id = index[source], index[target]
        pair = (fk.source_table, fk.target_table)
        similarities = pair_cache.get(pair)
        if similarities is None:
            similarities = (
                policy.forward_similarity(*pair),
                policy.backward_similarity(*pair),
            )
            pair_cache[pair] = similarities
        offer((source_id, target_id), similarities[0])
        cache_key = (target_id, fk.source_table)
        backward = backward_cache.get(cache_key)
        if backward is None:
            backward = similarities[1]
            if scaling:
                backward *= max(1, database.indegree_from(target, fk.source_table))
            backward_cache[cache_key] = backward
        offer((target_id, source_id), backward)

    weights = _prestige(ids, database, policy)
    graph = CSRGraph.from_edges(ids, index, weights, candidates)
    return graph, stats_of(graph)


def _prestige(
    ids: List[RID], database: Database, policy: WeightPolicy
) -> Iterable[float]:
    """Node weights, in ``ids`` order, under the policy's prestige mode."""
    if policy.prestige == "none":
        return repeat(1.0, len(ids))

    if policy.prestige == "indegree":
        # Reference indegree from the database, not graph indegree: the
        # graph's back edges would make every degree symmetric.
        return (float(database.indegree(node)) for node in ids)

    # PageRank over the pure reference structure (forward edges only).
    forward = DiGraph()
    for node in ids:
        forward.add_node(node)
    for source, _fk, target in _references(database):
        forward.add_edge(source, target, 1.0)
    scores = pagerank(forward, damping=policy.pagerank_damping)
    return (scores[node] for node in ids)
