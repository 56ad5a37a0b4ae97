"""Backward expanding search (paper Sec. 3, Fig. 3).

Runs one lazy Dijkstra iterator per keyword node, all traversing the
graph's edges *in reverse*, multiplexed through an iterator heap ordered
on the distance of the next node each iterator would output.  Whenever a
node ``v`` is visited by an iterator originating at keyword node ``o``
(matching term ``l``), the cross product ``{o} x prod_{i != l} v.L_i``
yields new connection trees rooted at ``v``; ``o`` is then added to
``v.L_l``.

Faithfully implemented heuristics from the paper:

* trees whose root has only one child are discarded (the same answer
  minus the root is generated separately and is better);
* a fixed-size *output heap* ordered by relevance buffers generated
  trees; when full, the most relevant tree is emitted before inserting
  the next one — approximate relevance ordering at low latency;
* duplicate trees ("isomorphic modulo direction", i.e. with identical
  undirected versions) are kept once, preferring the higher-relevance
  rooting; a duplicate of an already-emitted answer is discarded *even
  if its relevance is higher* — the paper accepts this as the price of
  incremental emission;
* the information node may be restricted ("we may exclude the nodes
  corresponding to the tuples from a specified set of relations, such as
  Writes") via ``excluded_root_tables``.

Extensions (all optional, off by default):

* ``require_all_keywords=False`` allows answers covering only a subset
  of the terms (Sec. 2.3's relaxation); their relevance is scaled by the
  covered fraction so complete answers dominate;
* ``origin_distance_scale`` adds a node-weight-derived offset to each
  keyword node's starting distance ("the distance measure can be
  extended to include node weights of nodes matching keywords").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EmptyQueryError, QueryError
from repro.core.answer import AnswerTree
from repro.core.scoring import Scorer
from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import DijkstraIterator

Node = Hashable


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the backward expanding search.

    Attributes:
        max_results: stop after emitting this many answers.
        output_heap_size: capacity of the approximate-ordering buffer
            ("we have found it works well even with a reasonably small
            heap size").
        require_all_keywords: if false, allow partial answers.
        excluded_root_tables: relations whose tuples may not serve as
            information nodes.
        excluded_root_nodes: specific nodes that may not serve as
            information nodes (used by the XML layer, whose exclusions
            are tag- rather than table-based).
        allowed_root_nodes: when not ``None``, only these nodes may
            serve as information nodes (on top of the exclusions).  The
            shard router partitions the answer space with this: each
            shard searches the same stitched graph but emits only
            answers rooted in its own partition, so the union of the
            per-shard emissions covers every answer exactly once.
        max_distance: per-iterator expansion radius; ``None`` unbounded.
        max_visited: total iterator settlements budget (safety valve for
            adversarial graphs); ``None`` unbounded.
        origin_distance_scale: weight of the node-prestige offset added
            to keyword-node starting distances (0 disables).
    """

    max_results: int = 10
    output_heap_size: int = 20
    require_all_keywords: bool = True
    excluded_root_tables: FrozenSet[str] = frozenset()
    excluded_root_nodes: FrozenSet = frozenset()
    allowed_root_nodes: Optional[FrozenSet] = None
    max_distance: Optional[float] = None
    max_visited: Optional[int] = None
    origin_distance_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.max_results < 1:
            raise QueryError("max_results must be >= 1")
        if self.output_heap_size < 1:
            raise QueryError("output_heap_size must be >= 1")


@dataclass(frozen=True)
class ScoredAnswer:
    """One emitted answer: the tree, its relevance, its emission rank."""

    tree: AnswerTree
    relevance: float
    order: int


class _OutputHeap:
    """Fixed-capacity buffer ordered by relevance with key-addressable
    entries (for duplicate replacement) and lazy deletion."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._heap: List[Tuple[float, int, List]] = []
        self._by_key: Dict[FrozenSet, List] = {}
        self._counter = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def get_relevance(self, key: FrozenSet) -> Optional[float]:
        entry = self._by_key.get(key)
        if entry is None:
            return None
        return -entry[0]

    def remove(self, key: FrozenSet) -> None:
        entry = self._by_key.pop(key, None)
        if entry is not None:
            entry[3] = False  # lazy-invalidate; popped later
            self._size -= 1

    def add(self, key: FrozenSet, tree: AnswerTree, relevance: float) -> None:
        entry = [-relevance, next(self._counter), tree, True, key]
        self._by_key[key] = entry
        heapq.heappush(self._heap, (entry[0], entry[1], entry))
        self._size += 1

    def pop_best(self) -> Tuple[FrozenSet, AnswerTree, float]:
        while self._heap:
            neg_relevance, _tiebreak, entry = heapq.heappop(self._heap)
            if entry[3]:
                key = entry[4]
                del self._by_key[key]
                self._size -= 1
                return key, entry[2], -neg_relevance
        raise KeyError("pop from empty output heap")


def _node_table(node: Node) -> Optional[str]:
    """Table name of a data-graph node (``(table, rid)``), else ``None``."""
    if isinstance(node, tuple) and len(node) == 2 and isinstance(node[0], str):
        return node[0]
    return None


def _discard_single_child_root(tree: AnswerTree) -> bool:
    """The Fig. 3 discard rule: a root with a single child is redundant
    because the tree minus the root is generated separately and scores
    better — *unless* the root itself matches a keyword, in which case
    removing it would break coverage and no better duplicate exists."""
    if tree.size() <= 1 or tree.root_child_count() != 1:
        return False
    return tree.root not in set(tree.keyword_nodes)


def backward_expanding_search(
    graph: DiGraph,
    keyword_node_sets: Sequence[Set[Node]],
    scorer: Scorer,
    config: Optional[SearchConfig] = None,
    profile=None,
) -> Iterator[ScoredAnswer]:
    """Generate answers incrementally, approximately best-first.

    Dispatches on the graph representation: a frozen
    :class:`~repro.graph.csr.CSRGraph` (or its mutable overlay) runs
    the array kernel (:mod:`repro.core.csrkernel`); a dict-of-dicts
    :class:`DiGraph` runs the reference implementation below.  The two
    are answer-for-answer identical — ``tests/core/test_kernel_parity.py``
    gates exact equality of roots, scores, emission order and profile
    counters — so callers never need to know which one they got.

    Args:
        graph: the data graph (forward + backward edges, weighted).
        keyword_node_sets: for each search term, the set of nodes
            relevant to it (``S_i`` in the paper).
        scorer: relevance scorer (carries the parameter setting).
        config: search knobs; defaults are the paper's.
        profile: optional :class:`repro.obs.SearchProfile` counter
            block; every increment is behind an ``is not None`` check,
            so the unprofiled path pays one comparison per event.

    Returns:
        An iterator of :class:`ScoredAnswer` in emission order
        (approximately decreasing relevance) — the *answer-iterator
        protocol*: advancing it runs the expansion only as far as the
        next emission, so a satisfied top-k consumer simply stops
        iterating and the remaining frontier is never explored.
    """
    from repro.graph.csr import CSRGraph

    if isinstance(graph, CSRGraph):
        from repro.core.csrkernel import csr_backward_search

        return csr_backward_search(
            graph, keyword_node_sets, scorer, config, profile=profile
        )
    return _reference_backward_search(
        graph, keyword_node_sets, scorer, config, profile=profile
    )


def _reference_backward_search(
    graph: DiGraph,
    keyword_node_sets: Sequence[Set[Node]],
    scorer: Scorer,
    config: Optional[SearchConfig] = None,
    profile=None,
) -> Iterator[ScoredAnswer]:
    """The dict-of-dicts implementation — the parity reference the CSR
    kernel is gated against, and the path non-frozen graphs take."""
    config = config or SearchConfig()
    term_count = len(keyword_node_sets)
    if term_count == 0:
        raise EmptyQueryError("no search terms")
    keyword_node_sets = [
        {node for node in group if graph.has_node(node)}
        for group in keyword_node_sets
    ]
    if config.require_all_keywords and any(
        not group for group in keyword_node_sets
    ):
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

    def build_tree(
        root: Node, assignment: Sequence[Optional[Node]]
    ) -> AnswerTree:
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
            and (
                config.allowed_root_nodes is None
                or v in config.allowed_root_nodes
            )
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
