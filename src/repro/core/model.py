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
facade serves from (:class:`~repro.graph.csr.CSRGraph`).  The rows are
walked once, each reference resolved once, straight from its key to
its target's dense id; then every node's row is
copied into the arrays in id order, and no dict graph is built on the
way (PageRank prestige alone walks a forward-only one).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import pagerank
from repro.core.weights import WeightPolicy
from repro.cow import MASK
from repro.relational.database import Database, RID


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


class _Side(NamedTuple):
    """Every reference seen from one of its two ends, grouped by node.

    Node ``u``'s run is ``offsets[u]:offsets[u + 1]``, its references
    in id order (source row, then FK declaration order).
    ``neighbour`` is the other end, ``out_w`` the Eq. 1 weight of the
    edge ``u -> neighbour`` and ``in_w`` that of ``neighbour -> u``.
    """

    offsets: array
    neighbour: array
    out_w: array
    in_w: array


def _references(
    database: Database, policy: WeightPolicy, ids: List[RID], spans, id_of
) -> Tuple[array, _Side, _Side]:
    """Every reference resolved once, in id order: ``(source ids, the
    references seen from their sources, seen from their targets)``.
    ``id_of[table][slot]`` is a row's dense id.  Self references are
    dropped (the graph model has no self loops)."""
    own_off, sources, targets = array("q", [0]), array("q"), array("q")
    forward, backward = array("d"), array("d")
    add_source, add_target = sources.append, targets.append
    add_forward, add_backward = forward.append, backward.append
    indegree_from = database.indegree_from
    scaling = policy.backward_indegree_scaling
    for name, node, end in spans:
        # ``s(R1, R2)`` and ``s_b(R1, R2)`` depend only on the relation
        # pair, so each foreign key's are computed once; a reference's
        # key probes its target's slot and ``id_of`` maps that to an id.
        steps = [
            (
                positions,
                parts,
                id_of[fk.target_table],
                policy.forward_similarity(name, fk.target_table),
                policy.backward_similarity(name, fk.target_table),
            )
            for fk, positions, parts in database.reference_steps(name)
        ]
        if not steps:
            own_off.extend(repeat(len(targets), end - node))
            continue
        # ``IN_{R(u)}(v)`` depends only on (target, referencing table).
        backward_of: Dict[int, float] = {}
        for values in chain.from_iterable(database.table(name)._heap):
            if values is None:
                continue
            for positions, parts, slot_ids, forward_w, similar in steps:
                if len(positions) == 1:
                    key = (values[positions[0]],)
                else:
                    key = tuple([values[p] for p in positions])
                if None in key:
                    continue  # NULL foreign keys reference nothing
                slot = parts[hash(key) & MASK].get(key)
                if slot is None:
                    continue  # dangling, in a deferred database
                target_id = slot_ids[slot]
                if target_id == node:
                    continue
                weight = backward_of.get(target_id)
                if weight is None:
                    weight = similar
                    if scaling:
                        weight *= max(1, indegree_from(ids[target_id], name))
                    backward_of[target_id] = weight
                add_source(node)
                add_target(target_id)
                add_forward(forward_w)
                add_backward(weight)
            own_off.append(len(targets))
            node += 1

    # A stable sort by target keeps each target's run in id order.
    order = sorted(range(len(targets)), key=targets.__getitem__)
    counts = [0] * len(own_off)
    for target_id in targets:
        counts[target_id + 1] += 1
    incoming = _Side(
        array("q", accumulate(counts)),
        _permuted(sources, order),
        _permuted(backward, order),
        _permuted(forward, order),
    )
    return sources, _Side(own_off, targets, forward, backward), incoming


def _permuted(column: array, order: List[int]) -> array:
    """``column[i] for i in order``; ``itemgetter`` takes the items in
    one call, at twice the speed of a ``map`` (but returns a bare item
    when asked for one)."""
    if len(order) < 2:
        return array(column.typecode, [column[i] for i in order])
    return array(column.typecode, itemgetter(*order)(column))


def _lay(spans, own: _Side, incoming: _Side) -> _Side:
    """Every node's adjacency row, in id order.

    A reference gives an edge each way, so a node's successor and
    predecessor rows list the same neighbours: in the order of the
    first reference each shares with it, which is its incoming
    references from lower ids, then its own, then its incoming
    references from higher ids.  ``out_w`` are the successor weights,
    ``in_w`` the predecessor weights.
    """
    rows = _Side(array("q", [0]), array("q"), array("d"), array("d"))

    def copy(side: _Side, first: int, last: int) -> None:
        rows.neighbour.extend(side.neighbour[first:last])
        rows.out_w.extend(side.out_w[first:last])
        rows.in_w.extend(side.in_w[first:last])

    for _name, start, end in spans:
        if own.offsets[start] == own.offsets[end]:
            side = incoming  # no row of this table references
        elif incoming.offsets[start] == incoming.offsets[end]:
            side = own  # no row references this table
        else:  # both at once: node by node
            for node in range(start, end):
                first, last = incoming.offsets[node], incoming.offsets[node + 1]
                split = bisect_left(incoming.neighbour, node, first, last)
                copy(incoming, first, split)
                copy(own, own.offsets[node], own.offsets[node + 1])
                copy(incoming, split, last)
                rows.offsets.append(len(rows.neighbour))
            continue
        # One side alone: the table's rows are one run of it.
        first, last = side.offsets[start], side.offsets[end]
        shift = len(rows.neighbour) - first
        rows.offsets.extend([o + shift for o in side.offsets[start + 1 : end + 1]])
        copy(side, first, last)
    return rows


def _has_repeats(sources: array, targets: array, n: int) -> bool:
    """Whether two references join the same pair of nodes (a row
    referencing one tuple twice, or two tuples referencing each
    other), so some row lists a neighbour twice."""
    pairs = {
        source * n + target if source < target else target * n + source
        for source, target in zip(sources, targets)
    }
    return len(pairs) < len(targets)


def _merged(rows: _Side, merge) -> _Side:
    """``rows`` with each repeated neighbour folded into its first
    place, both weights merged through Eq. 1 in row order."""
    merged = _Side(array("q", [0]), array("q"), array("d"), array("d"))
    for node in range(len(rows.offsets) - 1):
        row: Dict[int, Tuple[float, float]] = {}
        for slot in range(rows.offsets[node], rows.offsets[node + 1]):
            weights = (rows.out_w[slot], rows.in_w[slot])
            seen = row.get(rows.neighbour[slot])
            if seen is not None:
                weights = (merge(seen[0], weights[0]), merge(seen[1], weights[1]))
            row[rows.neighbour[slot]] = weights
        merged.neighbour.extend(row)
        merged.out_w.extend(out for out, _in in row.values())
        merged.in_w.extend(in_ for _out, in_ in row.values())
        merged.offsets.append(len(merged.neighbour))
    return merged


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
    # still searchable.  Each table's nodes are one run of dense ids;
    # ``id_of[table][slot]`` is a row's id: the run itself, or a slot ->
    # id array where tombstones leave gaps.
    ids: List[RID] = []
    tables: List[str] = []
    spans: List[Tuple[str, int, int]] = []
    id_of: Dict[str, Sequence[int]] = {}
    for table in database.tables():
        name, start = table.schema.name, len(ids)
        ids.extend(zip(repeat(name), table.rids()))
        tables.extend(repeat(name, len(ids) - start))
        spans.append((name, start, len(ids)))
        if len(table) == table.next_rid:
            id_of[name] = range(start, len(ids))
        else:
            slots = id_of[name] = array("q", bytes(8 * table.next_rid))
            for node in range(start, len(ids)):
                slots[ids[node][1]] = node
    index = dict(zip(ids, range(len(ids))))

    sources, own, incoming = _references(database, policy, ids, spans, id_of)
    rows = _lay(spans, own, incoming)
    if _has_repeats(sources, own.neighbour, len(ids)):
        rows = _merged(rows, policy.merge)
    graph = CSRGraph.from_rows(
        ids,
        index,
        array("d", _prestige(ids, database, policy, zip(sources, own.neighbour))),
        (rows.offsets, rows.neighbour, rows.out_w),
        (rows.offsets, rows.neighbour, rows.in_w),
        tables=tables,
    )
    return graph, stats_of(graph)


def _prestige(
    ids: List[RID],
    database: Database,
    policy: WeightPolicy,
    references: Iterable[Tuple[int, int]],
) -> Iterable[float]:
    """Node weights, in ``ids`` order, under the policy's prestige mode;
    ``references`` are the ``(source id, target id)`` pairs."""
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
    for source, target in references:
        forward.add_edge(ids[source], ids[target], 1.0)
    scores = pagerank(forward, damping=policy.pagerank_damping)
    return (scores[node] for node in ids)
