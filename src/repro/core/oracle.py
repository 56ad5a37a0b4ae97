"""The reference search, and the relations answers are judged by.

:func:`reference_search` is Fig. 3 on the dict-of-dicts
:class:`~repro.graph.digraph.DiGraph`, one
:class:`~repro.graph.dijkstra.DijkstraIterator` per keyword node: the
oracle the CSR kernel (:func:`repro.core.search.backward_expanding_search`)
matches answer for answer.  Production reaches it only as
``BANKS(database, freeze=False)``.

The relations compare a served answer list with an expected one; each
takes answers (``.tree.root`` and ``.relevance``) or ``(root,
relevance)`` pairs.  A *tie class* is a run of consecutive answers,
ranked by score, whose scores are within :data:`TOLERANCE`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EmptyQueryError
from repro.core.answer import AnswerTree
from repro.core.scoring import Scorer
from repro.core.search import ScoredAnswer, SearchConfig, _OutputHeap
from repro.graph.csr import Node, _node_table
from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import DijkstraIterator

#: Scores closer than this are equal: a merged, replayed or re-summed
#: list may differ from the reference in the last bits.
TOLERANCE = 1e-9


def signature(answers) -> List[Tuple[Node, float]]:
    """``(root, relevance)`` per answer, in order."""
    return [a if isinstance(a, tuple) else (a.tree.root, a.relevance) for a in answers]


def same(served, expected) -> bool:
    """The same roots in the same order, scores equal within TOLERANCE."""
    served, expected = signature(served), signature(expected)
    return len(served) == len(expected) and all(
        root == want_root and abs(score - want) <= TOLERANCE
        for (root, score), (want_root, want) in zip(served, expected)
    )


def _ranked(answers) -> List[Tuple[Node, float]]:
    # The output heap emits only approximately by score, and gather
    # merges by score: the tie-aware relations compare ranked lists.
    return sorted(signature(answers), key=lambda pair: -pair[1])


def same_up_to_ties(served, expected) -> bool:
    """:func:`same` on both lists ranked by score, once the roots of each
    tie class are put in one canonical order."""
    served, expected = _ranked(served), _ranked(expected)
    if len(served) != len(expected):
        return False
    gaps = [a - b > TOLERANCE for (_r, a), (_q, b) in zip(expected, expected[1:])]
    classes = list(itertools.accumulate([0, *gaps]))  # each rank's tie class

    def canonical(ranked):
        ordered = sorted(zip(classes, ranked), key=lambda c: (c[0], repr(c[1][0])))
        return [pair for _class, pair in ordered]

    return same(canonical(served), canonical(expected))


def never_worse(served, expected) -> bool:
    """Ranked by score: at least as many answers, and at every rank a
    score no lower than expected's, within TOLERANCE (the gather
    contract: different answers are allowed, worse ones are not)."""
    served, expected = _ranked(served), _ranked(expected)
    return len(served) >= len(expected) and all(
        score >= want - TOLERANCE
        for (_root, score), (_want_root, want) in zip(served, expected)
    )


def _discard_single_child_root(tree: AnswerTree) -> bool:
    """The Fig. 3 discard rule: a root with a single child is redundant
    because the tree minus the root is generated separately and scores
    better — *unless* the root itself matches a keyword, in which case
    removing it would break coverage and no better duplicate exists."""
    if tree.size() <= 1 or tree.root_child_count() != 1:
        return False
    return tree.root not in set(tree.keyword_nodes)


def reference_search(
    graph: DiGraph,
    keyword_node_sets: Sequence[Set[Node]],
    scorer: Scorer,
    config: Optional[SearchConfig] = None,
    profile=None,
) -> Iterator[ScoredAnswer]:
    """Fig. 3 over a :class:`DiGraph`: the same arguments, answers and
    profile counters as :func:`repro.core.search.backward_expanding_search`."""
    config = config or SearchConfig()
    term_count = len(keyword_node_sets)
    if term_count == 0:
        raise EmptyQueryError("no search terms")
    keyword_node_sets = [
        {node for node in group if graph.has_node(node)} for group in keyword_node_sets
    ]
    if config.require_all_keywords and any(not group for group in keyword_node_sets):
        return  # some keyword matches nothing: no complete answer exists

    # Terms covered by each distinct origin node.  Origins are visited
    # in sorted order so iterator creation (and hence all heap
    # tie-breaking) is deterministic across processes — set iteration
    # order varies with string-hash randomisation.
    terms_of_origin: Dict[Node, List[int]] = {}
    for term_index, group in enumerate(keyword_node_sets):
        for node in sorted(group, key=repr):
            terms_of_origin.setdefault(node, []).append(term_index)

    if not terms_of_origin:
        return

    max_node_weight = graph.max_node_weight() if graph.num_nodes else 1.0
    if max_node_weight <= 0:
        max_node_weight = 1.0

    iterators: Dict[Node, DijkstraIterator] = {}
    iterator_heap: List[Tuple[float, int, Node]] = []
    counter = itertools.count()
    for origin in terms_of_origin:
        offset = 0.0
        if config.origin_distance_scale > 0.0:
            prestige = graph.node_weight(origin) / max_node_weight
            offset = config.origin_distance_scale * (1.0 - prestige)
        iterator = DijkstraIterator(
            graph,
            origin,
            reverse=True,
            initial_distance=offset,
            max_distance=config.max_distance,
        )
        iterators[origin] = iterator
        peek = iterator.peek()
        if peek is not None:
            heapq.heappush(iterator_heap, (peek, next(counter), origin))
    if profile is not None:
        profile.iterators += len(iterators)

    # v -> per-term lists of origins whose iterators have visited v.
    visit_lists: Dict[Node, List[List[Node]]] = {}

    output = _OutputHeap(config.output_heap_size)
    emitted_keys: Set[FrozenSet] = set()
    emitted_count = 0
    visited_budget = config.max_visited

    def build_tree(root: Node, assignment: Sequence[Optional[Node]]) -> AnswerTree:
        paths: List[Optional[List[Node]]] = []
        for origin in assignment:
            if origin is None:
                paths.append(None)
            else:
                paths.append(iterators[origin].path_to_source(root))
        return AnswerTree.from_paths(graph, root, paths)

    def relevance_of(tree: AnswerTree) -> float:
        score = scorer.relevance(tree, graph)
        if not config.require_all_keywords and term_count:
            # Quadratic coverage penalty: complete answers dominate
            # partial ones unless the complete connection is very large.
            score *= (tree.covered_terms() / term_count) ** 2
        return score

    def consider(tree: AnswerTree) -> Optional[ScoredAnswer]:
        """Dedup + output-heap insertion; returns an emission, if any."""
        nonlocal emitted_count
        if profile is not None:
            profile.trees_considered += 1
        key = tree.undirected_key()
        if key in emitted_keys:
            # "In fact, a duplicate of the result might have already been
            # output; in that case we discard the new result even if its
            # relevance is higher."
            if profile is not None:
                profile.duplicate_trees += 1
            return None
        relevance = relevance_of(tree)
        existing = output.get_relevance(key)
        if existing is not None:
            if relevance <= existing:
                return None
            output.remove(key)
        emission: Optional[ScoredAnswer] = None
        if output.full:
            best_key, best_tree, best_relevance = output.pop_best()
            emitted_keys.add(best_key)
            emission = ScoredAnswer(best_tree, best_relevance, emitted_count)
            emitted_count += 1
        output.add(key, tree, relevance)
        return emission

    while iterator_heap and emitted_count < config.max_results:
        if visited_budget is not None:
            if visited_budget <= 0:
                break
            visited_budget -= 1

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

        v = visit.node
        lists = visit_lists.get(v)
        if lists is None:
            lists = [[] for _ in range(term_count)]
            visit_lists[v] = lists

        table = _node_table(v)
        root_allowed = (
            table not in config.excluded_root_tables
            and v not in config.excluded_root_nodes
            and (config.allowed_root_nodes is None or v in config.allowed_root_nodes)
        )

        for term_index in terms_of_origin[origin]:
            if root_allowed:
                pools: Optional[List[List[Optional[Node]]]] = []
                for other_term in range(term_count):
                    if other_term == term_index:
                        continue
                    pool: List[Optional[Node]] = list(lists[other_term])
                    if not config.require_all_keywords:
                        pool.append(None)
                    if not pool:
                        pools = None
                        break
                    pools.append(pool)
                if pools is not None:
                    for combo in itertools.product(*pools):
                        assignment: List[Optional[Node]] = []
                        combo_iter = iter(combo)
                        for position in range(term_count):
                            if position == term_index:
                                assignment.append(origin)
                            else:
                                assignment.append(next(combo_iter))
                        if all(a is None for a in assignment):
                            continue
                        tree = build_tree(v, assignment)
                        if _discard_single_child_root(tree):
                            continue  # Fig. 3: "duplicate result"
                        emission = consider(tree)
                        if emission is not None:
                            if profile is not None:
                                profile.answers_emitted += 1
                            yield emission
                            if emitted_count >= config.max_results:
                                return
            lists[term_index].append(origin)

    # Drain: "when all answers have been generated, the remaining trees
    # in the heap are output in decreasing order of relevance."
    while len(output) and emitted_count < config.max_results:
        key, tree, relevance = output.pop_best()
        emitted_keys.add(key)
        if profile is not None:
            profile.answers_emitted += 1
        yield ScoredAnswer(tree, relevance, emitted_count)
        emitted_count += 1
