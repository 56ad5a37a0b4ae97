"""Bidirectional search from selective keywords (paper Sec. 7, implemented).

The paper observes that backward search is slow when a keyword matches
very many nodes (metadata keywords are the worst case) and plans to
"speed up such queries by not performing backward search from large
numbers of nodes, and instead searching forwards from probable
information nodes corresponding to more selective keywords".

This module implements that strategy:

1. split terms into *selective* (|S_i| <= ``selectivity_threshold``) and
   *broad* groups; if every term is broad, fall back to plain backward
   search (nothing to be clever about);
2. run backward expanding iterators only from the selective groups'
   keyword nodes, discovering candidate information nodes in increasing
   distance order;
3. for each candidate root, run a *forward* Dijkstra (bounded by
   ``max_distance``) to find the nearest member of every remaining broad
   group; a candidate that reaches all of them yields an answer tree;
4. answers flow through the same scoring/dedup machinery, buffered in a
   relevance-ordered heap and returned best-first.

The result set matches backward search closely (both build
union-of-shortest-path trees) while visiting far fewer nodes when broad
terms would otherwise spawn thousands of iterators — the effect
``benchmarks/bench_bidirectional.py`` measures.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import EmptyQueryError
from repro.core.answer import AnswerTree
from repro.core.scoring import Scorer
from repro.core.search import (
    ScoredAnswer,
    SearchConfig,
    _discard_single_child_root,
    backward_expanding_search,
)
from repro.graph.csr import dijkstra_for
from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import DijkstraIterator

Node = Hashable


def bidirectional_search(
    graph: DiGraph,
    keyword_node_sets: Sequence[Set[Node]],
    scorer: Scorer,
    config: Optional[SearchConfig] = None,
    selectivity_threshold: int = 10,
    candidate_budget: int = 2000,
    profile=None,
) -> List[ScoredAnswer]:
    """Answer a query, expanding backward only from selective terms.

    Args:
        graph: the data graph.
        keyword_node_sets: per-term node sets.
        scorer: relevance scorer.
        config: search knobs (``max_results`` etc.).
        selectivity_threshold: a term is *selective* when it matches at
            most this many nodes.
        candidate_budget: maximum candidate roots to probe forward from.
        profile: optional :class:`repro.obs.SearchProfile` counter
            block (same near-zero-when-disabled contract as
            :func:`~repro.core.search.backward_expanding_search`).

    Returns:
        Up to ``config.max_results`` answers in decreasing relevance.
    """
    config = config or SearchConfig()
    term_count = len(keyword_node_sets)
    if term_count == 0:
        raise EmptyQueryError("no search terms")
    keyword_node_sets = [
        {node for node in group if graph.has_node(node)}
        for group in keyword_node_sets
    ]
    if config.require_all_keywords and any(not g for g in keyword_node_sets):
        return []

    selective = [
        i
        for i, group in enumerate(keyword_node_sets)
        if 0 < len(group) <= selectivity_threshold
    ]
    broad = [i for i in range(term_count) if i not in selective]

    if not selective or not broad:
        # Degenerate splits: plain backward search already optimal.
        return list(
            backward_expanding_search(
                graph, keyword_node_sets, scorer, config, profile=profile
            )
        )

    # Step 1: backward iterators from selective keyword nodes only.
    terms_of_origin: Dict[Node, List[int]] = {}
    for term_index in selective:
        for node in keyword_node_sets[term_index]:
            terms_of_origin.setdefault(node, []).append(term_index)

    # dijkstra_for picks the array-backed iterator on a frozen/overlay
    # graph and the reference dict iterator otherwise — both expose the
    # same peek/next/path_to_source surface this loop multiplexes.
    iterators: Dict[Node, DijkstraIterator] = {
        origin: dijkstra_for(
            graph, origin, reverse=True, max_distance=config.max_distance
        )
        for origin in terms_of_origin
    }
    counter = itertools.count()
    iterator_heap: List[Tuple[float, int, Node]] = []
    for origin, iterator in iterators.items():
        peek = iterator.peek()
        if peek is not None:
            heapq.heappush(iterator_heap, (peek, next(counter), origin))
    if profile is not None:
        profile.iterators += len(iterators)

    # candidate root -> per-selective-term list of origins that reached it
    reached: Dict[Node, Dict[int, List[Node]]] = {}
    candidates: List[Node] = []

    broad_sets = [keyword_node_sets[i] for i in broad]

    def candidate_complete(node: Node) -> bool:
        per_term = reached.get(node)
        if per_term is None:
            return False
        return all(term_index in per_term for term_index in selective)

    probes = 0
    while iterator_heap and probes < candidate_budget:
        _distance, _tiebreak, origin = heapq.heappop(iterator_heap)
        iterator = iterators[origin]
        if profile is not None:
            profile.heap_pops += 1
            relaxed_before = iterator.relaxations
        visit = iterator.next()
        if profile is not None:
            profile.edges_relaxed += iterator.relaxations - relaxed_before
            if visit is not None:
                profile.nodes_expanded += 1
                if visit.parent is None:  # the origin: first next()
                    profile.lanes_started += 1
        if visit is None:
            continue
        peek = iterator.peek()
        if peek is not None:
            heapq.heappush(iterator_heap, (peek, next(counter), origin))
        node = visit.node
        per_term = reached.setdefault(node, {})
        for term_index in terms_of_origin[origin]:
            per_term.setdefault(term_index, []).append(origin)
        if candidate_complete(node) and node not in candidates:
            table = node[0] if isinstance(node, tuple) else None
            if table not in config.excluded_root_tables:
                candidates.append(node)
                probes += 1

    # Step 2: forward probes from candidate roots toward the broad terms.
    answers: List[Tuple[float, int, AnswerTree]] = []
    seen_keys: Set[FrozenSet] = set()
    order = itertools.count()

    for root in candidates:
        forward = dijkstra_for(
            graph, root, reverse=False, max_distance=config.max_distance
        )
        if profile is not None:
            profile.iterators += 1
        remaining: List[Set[Node]] = [set(group) for group in broad_sets]
        found: List[Optional[Node]] = [None] * len(broad)
        missing = len(broad)
        for visit in forward:
            if profile is not None:
                profile.nodes_expanded += 1
                if visit.parent is None:
                    profile.lanes_started += 1
            for position, group in enumerate(remaining):
                if found[position] is None and visit.node in group:
                    found[position] = visit.node
                    missing -= 1
            if missing == 0:
                break
        if profile is not None:
            profile.edges_relaxed += forward.relaxations
        if missing and config.require_all_keywords:
            continue

        paths: List[Optional[List[Node]]] = [None] * term_count
        for term_index in selective:
            origin = reached[root][term_index][0]
            backward_path = iterators[origin].path_to_source(root)
            paths[term_index] = backward_path
        for position, term_index in enumerate(broad):
            target = found[position]
            if target is None:
                continue
            forward_path = forward.path_to_source(target)
            forward_path.reverse()  # parent chain gives target->root
            paths[term_index] = forward_path

        tree = AnswerTree.from_paths(graph, root, paths)
        if profile is not None:
            profile.trees_considered += 1
        if _discard_single_child_root(tree):
            continue
        key = tree.undirected_key()
        if key in seen_keys:
            if profile is not None:
                profile.duplicate_trees += 1
            continue
        seen_keys.add(key)
        relevance = scorer.relevance(tree, graph)
        if not config.require_all_keywords and term_count:
            relevance *= (tree.covered_terms() / term_count) ** 2
        answers.append((-relevance, next(order), tree))

    answers.sort()
    results = [
        ScoredAnswer(tree, -neg_relevance, rank)
        for rank, (neg_relevance, _tiebreak, tree) in enumerate(
            answers[: config.max_results]
        )
    ]
    if profile is not None:
        profile.answers_emitted += len(results)
    return results
