"""Delta records: one mutation's complete effect, as data.

A :class:`Delta` captures everything a BANKS replica needs to follow
one relational mutation without re-deriving anything:

* the **replay payload** — table + coerced row values for an insert,
  the change mapping for an update (the relational layer re-executes
  these, which keeps RID assignment deterministic across replicas);
* the **edge re-weigh pairs** — every directed node pair whose Eq. 1
  weight the mutation changed, with the new weight (``None`` = the
  edge no longer exists);
* the **prestige touches** — every node whose prestige (node weight)
  moved, with the new value;
* the **index postings** tokens added / removed, for observability.

The derivation functions below compute a delta *while applying* the
relational and index part of the mutation (the new weights depend on
post-mutation state, and index removal must read pre-deletion row
values, so derivation and data mutation are inseparable).  The graph
part is returned as data and applied separately with
:func:`apply_graph_delta` — idempotently, so the shard layer may
broadcast one delta to a shared graph through several searchers
without double-applying.

This module is the single home of the mutation arithmetic:
:class:`~repro.core.incremental.IncrementalBANKS` (the facade),
:class:`~repro.serve.snapshot.SnapshotStore` (the serving layer) and
:class:`~repro.shard.router.ShardRouter` (the shard layer) all
delegate here, which is what keeps the three write paths equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import StoreError
from repro.graph.digraph import DiGraph
from repro.relational.database import Database, RID
from repro.text.inverted_index import InvertedIndex

#: A directed node pair whose edge weight must be re-derived.
_Pair = Tuple[RID, RID]

#: One edge re-weigh: ``(source, target, new_weight_or_None)``.
EdgeChange = Tuple[RID, RID, Optional[float]]


@dataclass(frozen=True)
class Delta:
    """The complete, replayable effect of one mutation.

    Attributes:
        kind: ``"insert"``, ``"delete"`` or ``"update"``.
        node: the affected tuple node ``(table, rid)``.
        row_values: for inserts, the coerced stored values (replaying
            them into an identical replica reproduces the same RID).
        changes: for updates, the ``(column, value)`` pairs applied.
        edges: every directed edge whose weight the mutation changed,
            as ``(source, target, weight)`` with ``weight=None``
            meaning the edge no longer exists.
        prestige: ``(node, weight)`` pairs for every prestige touch.
        index_added: tokens whose postings gained this row.
        index_removed: tokens whose postings dropped this row.
    """

    kind: str
    node: RID
    row_values: Optional[Tuple[Any, ...]] = None
    changes: Optional[Tuple[Tuple[str, Any], ...]] = None
    edges: Tuple[EdgeChange, ...] = ()
    prestige: Tuple[Tuple[RID, float], ...] = ()
    index_added: Tuple[str, ...] = ()
    index_removed: Tuple[str, ...] = ()

    @property
    def table(self) -> str:
        return self.node[0]

    @property
    def rid(self) -> int:
        return self.node[1]

    def touched_nodes(self) -> Set[RID]:
        """Every node whose graph state this delta moves — the set the
        copy-on-write layer must own before applying it."""
        touched: Set[RID] = {self.node}
        for source, target, _weight in self.edges:
            touched.add(source)
            touched.add(target)
        for node, _weight in self.prestige:
            touched.add(node)
        return touched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Delta({self.kind} {self.node}, {len(self.edges)} edge "
            f"change(s), {len(self.prestige)} prestige touch(es))"
        )


# -- weight arithmetic (the Eq. 1 machinery, shared by every write path) ------


def pair_weight(
    database: Database,
    policy,
    source: RID,
    target: RID,
    _refs_memo: Optional[dict] = None,
) -> Optional[float]:
    """The Eq. 1 weight the directed edge ``source -> target`` should
    carry right now, or ``None`` when no reference justifies it.

    Candidates come from forward references ``source -> target`` and
    back edges of references ``target -> source``; multiple candidates
    merge through the policy rule (min / parallel), in any order —
    both rules are associative and commutative, so the result matches
    full construction.

    ``_refs_memo`` (internal) caches ``references_of`` per node across
    the pairs of one delta derivation: a hub tuple appears as the
    source of every one of its re-weigh pairs, and its resolved
    references cannot change mid-derivation.
    """
    if _refs_memo is None:
        source_refs = database.references_of(source)
        target_refs = database.references_of(target)
    else:
        source_refs = _refs_memo.get(source)
        if source_refs is None:
            source_refs = _refs_memo[source] = database.references_of(source)
        target_refs = _refs_memo.get(target)
        if target_refs is None:
            target_refs = _refs_memo[target] = database.references_of(target)
    candidates: List[float] = []
    for fk, referenced in source_refs:
        if referenced == target:
            candidates.append(
                policy.forward_similarity(fk.source_table, fk.target_table)
            )
    for fk, referenced in target_refs:
        if referenced == source:
            candidates.append(
                policy.backward_weight(
                    fk.source_table,
                    fk.target_table,
                    database.indegree_from(source, fk.source_table),
                )
            )
    if not candidates:
        return None
    weight = candidates[0]
    for candidate in candidates[1:]:
        weight = policy.merge(weight, candidate)
    return weight


def referrer_pairs(database: Database, target: RID) -> Set[_Pair]:
    """The directed pair ``(target, referrer)`` for each tuple that
    currently references ``target``: those are the Eq. 1 weights that
    depend on the target's per-relation indegree, which just changed.

    The opposite direction ``(referrer, target)`` is deliberately not
    emitted: per :func:`pair_weight`, the weight of ``s -> t`` merges
    forward similarities (constants per table pair) with backward
    weights driven by ``IN_R(s)`` — the *source's* indegree.  A
    mutation only moves the indegrees of the tuples its row references
    (the derivation's ``targets``), and every changed direction out of
    those is covered by this function applied to each target.  On
    bulk-ingested graphs with hub tuples this halves the dominant
    re-weigh cost.
    """
    pairs: Set[_Pair] = set()
    for referrer in database.referrer_nodes(target):
        if referrer != target:
            pairs.add((target, referrer))
    return pairs


def _edge_changes(
    database: Database,
    graph: DiGraph,
    policy,
    pairs: Set[_Pair],
    pending: Set[RID] = frozenset(),
    absent: Set[RID] = frozenset(),
) -> Tuple[EdgeChange, ...]:
    """Re-derive each directed pair's weight from the database.

    ``pending`` nodes are treated as present even though the graph has
    not seen them yet (an insert derives before the node is added);
    ``absent`` nodes are dropped (a delete derives after the node left
    the database but possibly before the graph caught up).  Pairs are
    emitted in sorted order so replay order — and therefore adjacency
    iteration order, which feeds Dijkstra tie-breaking — is identical
    on every replica.
    """

    has_node = graph.has_node
    changes: List[EdgeChange] = []
    refs_memo: dict = {}
    for source, target in sorted(pairs):
        if source == target:
            continue  # the graph model has no self loops
        if source in absent or target in absent:
            continue
        if not (source in pending or has_node(source)):
            continue
        if not (target in pending or has_node(target)):
            continue
        weight = pair_weight(database, policy, source, target, refs_memo)
        changes.append((source, target, weight))
    return tuple(changes)


def _prestige_touches(
    database: Database, policy, nodes: Set[RID], absent: Set[RID] = frozenset()
) -> Tuple[Tuple[RID, float], ...]:
    """Post-mutation prestige values for ``nodes`` (sorted for replay
    determinism)."""
    touches: List[Tuple[RID, float]] = []
    for node in sorted(nodes):
        if node in absent:
            continue
        if policy.prestige == "none":
            touches.append((node, 1.0))
        else:
            touches.append((node, float(database.indegree(node))))
    return tuple(touches)


# -- derivation (applies the relational + index part, returns the delta) ------


def derive_insert(
    database: Database,
    indexes: Sequence[InvertedIndex],
    graph: DiGraph,
    policy,
    table_name: str,
    values: Sequence[Any],
) -> Delta:
    """Insert a tuple; return the delta (graph part not yet applied)."""
    rid = database.insert(table_name, values)
    return _finish_insert(database, indexes, graph, policy, rid)


def derive_insert_dict(
    database: Database,
    indexes: Sequence[InvertedIndex],
    graph: DiGraph,
    policy,
    table_name: str,
    mapping: Mapping[str, Any],
) -> Delta:
    rid = database.insert_dict(table_name, mapping)
    return _finish_insert(database, indexes, graph, policy, rid)


def _finish_insert(
    database: Database,
    indexes: Sequence[InvertedIndex],
    graph: DiGraph,
    policy,
    rid: RID,
) -> Delta:
    added: Tuple[str, ...] = ()
    for index in indexes:
        added = index.add_row(rid[0], rid[1])
    targets = {target for _fk, target in database.references_of(rid)}
    pairs: Set[_Pair] = set()
    for target in targets:
        pairs.add((rid, target))
        pairs.add((target, rid))
        pairs.update(referrer_pairs(database, target))
    return Delta(
        kind="insert",
        node=rid,
        row_values=tuple(database.table(rid[0]).row(rid[1]).values),
        edges=_edge_changes(database, graph, policy, pairs, pending={rid}),
        prestige=_prestige_touches(database, policy, targets | {rid}),
        index_added=added,
    )


def derive_delete(
    database: Database,
    indexes: Sequence[InvertedIndex],
    graph: DiGraph,
    policy,
    rid: RID,
) -> Delta:
    """Delete a tuple; return the delta (graph part not yet applied).

    Raises :class:`repro.errors.IntegrityError` (with the index
    restored) if other tuples still reference ``rid``.
    """
    targets = [target for _fk, target in database.references_of(rid)]
    removed: Tuple[str, ...] = ()
    for index in indexes:
        removed = index.remove_row(rid[0], rid[1])
    try:
        database.delete(rid)
    except Exception:
        for index in indexes:
            index.add_row(rid[0], rid[1])  # restore postings
        raise
    pairs: Set[_Pair] = set()
    for target in targets:
        pairs.update(referrer_pairs(database, target))
    touched = set(targets)
    return Delta(
        kind="delete",
        node=rid,
        edges=_edge_changes(database, graph, policy, pairs, absent={rid}),
        prestige=_prestige_touches(database, policy, touched, absent={rid}),
        index_removed=removed,
    )


def derive_update(
    database: Database,
    indexes: Sequence[InvertedIndex],
    graph: DiGraph,
    policy,
    rid: RID,
    changes: Mapping[str, Any],
) -> Delta:
    """Update a tuple in place; return the delta (graph part pending)."""
    old_targets = {target for _fk, target in database.references_of(rid)}
    removed: Tuple[str, ...] = ()
    added: Tuple[str, ...] = ()
    for index in indexes:
        removed = index.remove_row(rid[0], rid[1])
    try:
        database.update(rid, changes)
    except Exception:
        for index in indexes:
            index.add_row(rid[0], rid[1])
        raise
    for index in indexes:
        added = index.add_row(rid[0], rid[1])
    new_targets = {target for _fk, target in database.references_of(rid)}
    touched = old_targets | new_targets
    pairs: Set[_Pair] = set()
    for target in touched:
        pairs.add((rid, target))
        pairs.add((target, rid))
        pairs.update(referrer_pairs(database, target))
    return Delta(
        kind="update",
        node=rid,
        changes=tuple(sorted(changes.items())),
        edges=_edge_changes(database, graph, policy, pairs),
        prestige=_prestige_touches(database, policy, touched | {rid}),
        index_added=added,
        index_removed=removed,
    )


# -- application / replay -----------------------------------------------------


def apply_graph_delta(graph: DiGraph, delta: Delta) -> None:
    """Apply the graph part of ``delta`` — idempotently.

    Idempotence matters because the thread-backed shard layer shares
    one graph between several searchers: broadcasting a delta
    to each of them must not corrupt the shared state.  Edge adds
    re-assign the same weight; removals are guarded; node removal
    drops incident edges exactly once.
    """
    if delta.kind == "insert":
        graph.add_node(delta.node)
    for source, target, weight in delta.edges:
        if weight is None:
            if graph.has_edge(source, target):
                graph.remove_edge(source, target)
        else:
            graph.add_edge(source, target, weight)
    for node, weight in delta.prestige:
        if graph.has_node(node):
            graph.set_node_weight(node, weight)
    if delta.kind == "delete" and graph.has_node(delta.node):
        graph.remove_node(delta.node)


def replay_delta(
    database: Database,
    indexes: Sequence[InvertedIndex],
    delta: Delta,
) -> None:
    """Replay the relational + index part of ``delta`` on a replica.

    Order matters and is fixed per kind (index removal must read the
    row's pre-mutation values):

    * insert: database insert, then index adds;
    * delete: index removals, then database delete;
    * update: index removals, database update, index adds.

    Raises :class:`~repro.errors.StoreError` when an insert lands on a
    different RID than the delta recorded — the replica has diverged.
    """
    if delta.kind == "insert":
        rid = database.insert(delta.table, list(delta.row_values or ()))
        if rid != delta.node:
            raise StoreError(
                f"replica diverged: insert replay produced {rid}, "
                f"delta says {delta.node}"
            )
        for index in indexes:
            index.add_row(delta.table, delta.rid)
    elif delta.kind == "delete":
        for index in indexes:
            index.remove_row(delta.table, delta.rid)
        database.delete(delta.node)
    elif delta.kind == "update":
        for index in indexes:
            index.remove_row(delta.table, delta.rid)
        database.update(delta.node, dict(delta.changes or ()))
        for index in indexes:
            index.add_row(delta.table, delta.rid)
    else:  # pragma: no cover - defensive
        raise StoreError(f"unknown delta kind {delta.kind!r}")
