"""One shard's searcher: partitioned index, root-restricted search.

Answer-space partitioning: every shard searches the same built data
graph, but a shard only *emits* answers whose information node (the
tree root) it owns — :attr:`SearchConfig.allowed_root_nodes` carries
the owned set into the backward expanding search.  Since every node is
owned by exactly one shard, the union of per-shard emissions covers
every answer exactly once (up to re-rootings of the same undirected
tree, which the gather's top-k merge deduplicates).

Keyword resolution is partitioned for real: each shard holds an
inverted index restricted to its own tuples (the router cuts every
shard's slice in one pass,
:meth:`~repro.text.inverted_index.InvertedIndex.split`), and
the per-term node sets it resolves are intersected with the owned set —
so the union of per-shard resolutions equals the unsharded resolution
node-for-node.

Fuzzy (edit-distance) expansion is the one resolution feature that does
not decompose: it triggers on *absence from the vocabulary*, and a term
can be absent from one shard's vocabulary while present in another's.
The searcher therefore does not offer it; the router documents the gap.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import AbstractSet, List, Optional, Sequence, Set, Union

from repro.core.model import GraphStats, link_tables, stats_of
from repro.core.query import ParsedQuery, parse_query, resolve_term
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import (
    ScoredAnswer,
    SearchConfig,
    backward_expanding_search,
)
from repro.graph.csr import CSROverlayGraph
from repro.obs import SearchProfile, Trace
from repro.relational.database import Database, RID
from repro.store.delta import Delta, apply_graph_delta, replay_delta
from repro.text.inverted_index import InvertedIndex


class ShardSearcher:
    """Search duties of one shard.

    Args:
        shard_id: this shard's index in the partition.
        database: the (shared, read-only) database — needed for
            metadata expansion during resolution.
        graph: the global search graph, shared by every shard.
        stats: its scoring normalisers.
        owned_nodes: the nodes this shard owns (allowed answer roots).
        index: the postings of the owned nodes (this shard's slice).
        full_index: the database-wide inverted index the slices were
            cut from; the router builds it once.
        scoring: scoring parameters (default: the paper's best).
        search_config: search knobs; the owned set and the link-table
            root exclusion are applied on top.
        include_metadata: let keywords match table/column names.
    """

    def __init__(
        self,
        shard_id: int,
        database: Database,
        graph: CSROverlayGraph,
        stats: GraphStats,
        owned_nodes: AbstractSet[RID],
        index: InvertedIndex,
        full_index: InvertedIndex,
        scoring: Optional[ScoringConfig] = None,
        search_config: Optional[SearchConfig] = None,
        include_metadata: bool = True,
    ):
        self.shard_id = shard_id
        self.database = database
        self.graph = graph
        # Kept by reference: this very set is the router's Partition
        # record of the shard's ownership, so an ownership change lands
        # in one place (thread mode) or is replayed into the worker's
        # private copy (process mode).
        self.owned_nodes = owned_nodes
        self.include_metadata = include_metadata
        self._scoring_config = scoring or ScoringConfig()
        self._stats_dirty = False
        self.scorer = Scorer(stats, self._scoring_config)
        self.index = index
        # The full index rides along for route-dispatch (whole queries
        # answered by one shard worker).  In a forked worker it is
        # inherited copy-on-write; in thread mode it is a shared
        # reference — either way it costs no extra build or memory.
        self.full_index = full_index
        config = search_config or SearchConfig()
        if not config.excluded_root_tables:
            config = replace(config, excluded_root_tables=link_tables(database))
        self.search_config = replace(config, allowed_root_nodes=owned_nodes)

    # -- mutation (delta routing) ---------------------------------------------

    def apply_delta(self, delta: Delta, owner: int) -> bool:
        """Replay one routed delta into this searcher's *own* replica.

        Called inside a forked worker process (each worker holds
        private fork-inherited copies of the database, the indexes and
        the graph).  The relational + index part replays in
        the canonical order; the graph part applies idempotently; the
        ownership and normaliser bookkeeping follows.  In thread mode
        the router updates the shared structures itself and calls only
        :meth:`note_delta`.
        """
        indexes = [self.full_index]
        if owner == self.shard_id and self.index is not self.full_index:
            indexes.append(self.index)
        replay_delta(self.database, indexes, delta)
        apply_graph_delta(self.graph, delta)
        self.note_delta(delta, owner)
        return True

    def move_node(self, node: RID, source: int, target: int) -> bool:
        """Follow one rebalance move: ownership and index-slice
        maintenance for this searcher's side of it.

        The graph, the database and the full index are
        untouched — a move changes *ownership*, nothing else.  Gaining
        the node means adding its postings to this shard's index slice
        and (process mode, where the ownership set is a private copy)
        its id to the owned set; losing it is the reverse.  Set and
        index operations are idempotent, so thread mode — where the
        owned set is the very object the partition already updated —
        may broadcast this to every searcher safely.
        """
        if target == self.shard_id:
            self.owned_nodes.add(node)
            self.index.add_row(*node)
        elif source == self.shard_id:
            self.owned_nodes.discard(node)
            self.index.remove_row(*node)
        return True

    def note_delta(self, delta: Delta, owner: int) -> None:
        """Bookkeeping after a delta reached this searcher's graph:
        ownership set maintenance plus a lazy normaliser refresh.
        Idempotent, so shared-state (thread) mode may broadcast it."""
        if delta.kind == "insert" and owner == self.shard_id:
            self.owned_nodes.add(delta.node)
        elif delta.kind == "delete":
            self.owned_nodes.discard(delta.node)
        self._stats_dirty = True

    def _refresh_stats(self) -> None:
        """Re-derive the scoring normalisers after mutations, on the
        next search (mirrors :class:`~repro.core.incremental.IncrementalBANKS`).
        O(1) as a rule: the overlay graph keeps its minimum edge and
        maximum node weight up to date, and rescans only when a delta
        re-weighs or removes the last edge at the minimum, or the node
        at the maximum.  Delegates to :func:`repro.core.model.stats_of`, the
        one normaliser implementation score parity depends on."""
        if not self._stats_dirty:
            return
        self.scorer = Scorer(stats_of(self.graph), self._scoring_config)
        self._stats_dirty = False

    # -- resolution -----------------------------------------------------------

    def resolve(self, query: Union[str, ParsedQuery]) -> List[Set[RID]]:
        """Per-term node sets, restricted to this shard's tuples."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return [
            resolve_term(
                term,
                self.index,
                self.database,
                include_metadata=self.include_metadata,
            )
            & self.owned_nodes
            for term in parsed.terms
        ]

    # -- search ---------------------------------------------------------------

    def _prepare_search(
        self,
        query,
        keyword_node_sets,
        max_results,
        unrestricted,
        config_overrides,
    ):
        """Resolve the query (if needed) and finalise the config —
        shared by :meth:`search` and :meth:`search_iter`."""
        if keyword_node_sets is None:
            if query is None:
                raise ValueError("need a query or keyword_node_sets")
            if unrestricted:
                parsed = (
                    parse_query(query) if isinstance(query, str) else query
                )
                keyword_node_sets = [
                    resolve_term(
                        term,
                        self.full_index,
                        self.database,
                        include_metadata=self.include_metadata,
                    )
                    for term in parsed.terms
                ]
            else:
                keyword_node_sets = self.resolve(query)
        config = self.search_config
        if unrestricted:
            config_overrides.setdefault("allowed_root_nodes", None)
        if max_results is not None:
            config_overrides["max_results"] = max_results
        if config_overrides:
            config = replace(config, **config_overrides)
        return keyword_node_sets, config

    def search_iter(
        self,
        query: Union[str, ParsedQuery, None] = None,
        keyword_node_sets: Optional[Sequence[Set[RID]]] = None,
        max_results: Optional[int] = None,
        unrestricted: bool = False,
        profile=None,
        **config_overrides,
    ):
        """Stream :class:`ScoredAnswer` in kernel emission order.

        The shard-level answer-iterator protocol (in-process callers
        only — a generator cannot cross the fork pipe): same answers as
        :meth:`search`, one at a time, with early termination stopping
        the expansion.  ``profile.expansion_seconds`` covers exactly
        the consumed prefix.
        """
        self._refresh_stats()
        keyword_node_sets, config = self._prepare_search(
            query, keyword_node_sets, max_results, unrestricted,
            config_overrides,
        )
        kernel_start = perf_counter() if profile is not None else 0.0
        try:
            yield from backward_expanding_search(
                self.graph, keyword_node_sets, self.scorer, config,
                profile=profile,
            )
        finally:
            if profile is not None:
                profile.expansion_seconds += perf_counter() - kernel_start

    def search(
        self,
        query: Union[str, ParsedQuery, None] = None,
        keyword_node_sets: Optional[Sequence[Set[RID]]] = None,
        max_results: Optional[int] = None,
        unrestricted: bool = False,
        trace=None,
        trace_parent=None,
        profile=None,
        on_answer=None,
        **config_overrides,
    ) -> List[ScoredAnswer]:
        """Answers scored on the shared global graph.

        Default (gather dispatch): answers rooted in this shard only.
        With ``keyword_node_sets`` (the router's scatter phase passes
        the gathered global sets), resolution is skipped and the trees
        may reach keyword matches owned by *other* shards — that is how
        cross-shard answers surface.  Without it, the shard resolves
        against its own index only (a shard-local search).

        With ``unrestricted=True`` (route dispatch) the worker answers
        the whole query by itself: resolution runs against the full
        index and any node may serve as the root — one full search,
        exactly what the single engine would compute.

        Tracing crosses the fork boundary here: in-process callers pass
        a live :class:`repro.obs.Trace` (plus ``trace_parent``) and a
        :class:`repro.obs.SearchProfile` to fill; a forked worker
        receives ``trace`` as the serialized context dict and
        ``profile=True``, records into a local trace, and returns an
        ``(answers, {"spans": ..., "profile": ...})`` envelope the
        parent-side proxy absorbs back into the real trace.
        """
        envelope = isinstance(trace, dict) or profile is True
        if isinstance(trace, dict):
            trace = Trace.from_ctx(trace)
            trace_parent = trace.parent_hint
        if profile is True:
            profile = SearchProfile()
        span = (
            trace.begin(
                "shard.search",
                parent_id=trace_parent,
                shard=self.shard_id,
                unrestricted=bool(unrestricted),
            )
            if trace is not None
            else None
        )
        # Drain the iterator protocol: each emission reaches the
        # callback while the expansion is still running (in-process
        # callers only — a callback cannot cross the fork pipe).
        answers = []
        for scored in self.search_iter(
            query=query,
            keyword_node_sets=keyword_node_sets,
            max_results=max_results,
            unrestricted=unrestricted,
            profile=profile,
            **config_overrides,
        ):
            if on_answer is not None:
                on_answer(scored)
            answers.append(scored)
        if span is not None:
            span.attrs["answers"] = len(answers)
            trace.end(span)
        if envelope:
            return answers, {
                "spans": trace.export() if trace is not None else [],
                "profile": profile.to_dict() if profile is not None else {},
            }
        return answers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSearcher(shard {self.shard_id}: "
            f"{len(self.owned_nodes)} nodes, {len(self.index)} terms)"
        )
