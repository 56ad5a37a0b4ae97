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

The kernel reads the frozen :class:`repro.graph.csr.CSRGraph` and
matches :func:`repro.core.oracle.reference_search`, the dict-of-dicts
reference, answer for answer: roots, float scores, emission order and
``SearchProfile`` counters.  Its hot loops run on dense int node ids and
contiguous adjacency arrays:

* a keyword-node lane is sparse and lazily started: at set-up it is its
  origin and one multiplexer entry at the origin's offset; its first
  multiplexer pop materialises a ``node -> distance`` dict, a
  ``node -> parent`` dict and a queue, which then hold only the nodes
  the lane touches — a lane costs what it settles, never |V|.  There is
  no settled set: a queued node is stale iff ``dist[node] < distance``;
* distance buckets, not tuple heap entries: a lane's queue is a heap of
  its distinct distances beside a ``distance -> bucket`` dict, where a
  bucket is a bare node id until a second node arrives at the same
  distance and a FIFO ``deque`` from then on; the multiplexer is the
  same pair over lane numbers.  Edge weights are sums of a few values,
  so distances tie constantly, and a heap of floats skips the tuple
  comparisons that would fall through to a tie-break.  First in, first
  out within a bucket *is* the reference's tie-break: the reference
  orders equal distances by a push counter, which only ever grows;
* visits are recorded per term (``node -> origins``); a settled node is
  a candidate root only once the terms its origin does not match have
  all reached it — until then settling records the visit, nothing else;
* candidate trees are int parent maps, each edge weight read back from
  the row relaxation read; most are discarded (single-child root, output
  heap) without an :class:`AnswerTree` allocation.  Trees materialise
  only at emission, in the reference's dict insertion order
  (``AnswerTree.weight`` sums in that order, so the floats match);
* edge/node score normalisations are memoised per query, seeded from
  the snapshot's precomputed ``log2(1 + w/w_min)`` table whenever the
  live normaliser still equals the frozen one.

Overlay rows (:class:`repro.graph.csr.CSROverlayGraph`) are read before
the arrays, so a forked, delta-mutated graph searches without
re-freezing, at dict speed only for the touched rows; nodes an overlay
appended (ids from the base's ``n`` up) resolve through its own list.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cow import MASK
from repro.errors import EmptyQueryError, GraphError, QueryError
from repro.core.answer import AnswerTree
from repro.core.scoring import Scorer
from repro.graph.csr import CSRGraph, _node_table


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
            information nodes.  Federation is its only setter: its
            nodes name a member database as well as a table, so it
            excludes the link tables' tuples node by node.
        allowed_root_nodes: when not ``None``, only these nodes may
            serve as information nodes (on top of the exclusions).  The
            shard router partitions the answer space with this: each
            shard searches the same built graph but emits only
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
        heappush(self._heap, (entry[0], entry[1], entry))
        self._size += 1

    def pop_best(self) -> Tuple[FrozenSet, AnswerTree, float]:
        while self._heap:
            neg_relevance, _tiebreak, entry = heappop(self._heap)
            if entry[3]:
                key = entry[4]
                del self._by_key[key]
                self._size -= 1
                return key, entry[2], -neg_relevance
        raise KeyError("pop from empty output heap")


#: An unscored candidate: (root, child -> parent, keyword nodes,
#: (parent, child) -> weight) — all dense int node ids.
_IntTree = Tuple[int, Dict[int, int], Tuple[Optional[int], ...], Dict]


def backward_expanding_search(
    graph: CSRGraph,
    keyword_node_sets: Sequence[Set],
    scorer: Scorer,
    config: Optional[SearchConfig] = None,
    profile=None,
) -> Iterator[ScoredAnswer]:
    """Generate answers incrementally, approximately best-first.

    Args:
        graph: the frozen data graph (forward + backward edges,
            weighted), a :class:`~repro.graph.csr.CSRGraph` or overlay.
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
    config = config or SearchConfig()
    term_count = len(keyword_node_sets)
    if term_count == 0:
        raise EmptyQueryError("no search terms")

    # The frozen spine's lists, read directly; ids from ``base_n`` up
    # were appended by an overlay (none on a read-only facade).
    id_of = graph.id_of
    base_ids = graph._ids
    base_tables = graph._tables
    app_ids = graph._app_ids
    base_n = len(base_ids)
    lookup = graph._lookup if app_ids or graph._removed else graph._index.get

    def repr_of(i: int) -> str:
        return repr(base_ids[i] if i < base_n else app_ids[i - base_n])

    groups = [
        {node for node in group if lookup(node) is not None}
        for group in keyword_node_sets
    ]
    if config.require_all_keywords and any(not group for group in groups):
        return  # some keyword matches nothing: no complete answer exists

    # Same origin ordering as the reference: per term, sorted by repr;
    # dict insertion order then fixes lane numbering and with it the
    # order of every tie downstream.
    terms_of_origin: Dict[int, List[int]] = {}
    for term_index, group in enumerate(groups):
        for node in sorted(group, key=repr):
            terms_of_origin.setdefault(lookup(node), []).append(term_index)
    if not terms_of_origin:
        return

    base_nw = graph._node_weights
    if graph._over_nw:
        over_nw = graph._over_nw.parts

        def nw(i: int) -> float:
            weight = over_nw[i & MASK].get(i)
            return base_nw[i] if weight is None else weight

    else:
        nw = base_nw.__getitem__

    max_node_weight = graph.max_node_weight() if graph.num_nodes else 1.0
    if max_node_weight <= 0:
        max_node_weight = 1.0

    # The overlay rows' partitions, or None on a facade without any:
    # then every row is read straight off the arrays, with no probe.
    over_pred = graph._over_pred.parts if graph._over_pred else None
    pred_off = graph._pred_off
    pred_to = graph._pred_to
    pred_w = graph._pred_w
    max_distance = config.max_distance

    # -- lanes: one sparse Dijkstra per origin, started on first pop -------
    # Until its multiplexer entry is first popped a lane is only its
    # origin and that entry, queued at the origin's offset; the per-lane
    # state lists hold None.  A started lane queues its frontier in a
    # heap of distinct distances and a ``distance -> bucket`` dict.
    origins: List[int] = list(terms_of_origin)
    lane_count = len(origins)
    lane_of: Dict[int, int] = {origin: lane for lane, origin in enumerate(origins)}
    dists: List[Optional[Dict[int, float]]] = [None] * lane_count
    links: List[Optional[Dict[int, int]]] = [None] * lane_count
    # Per started lane: the visit maps of the terms its origin does not
    # match (none when partial answers are allowed).
    waits: List[Optional[Tuple[Dict[int, List[int]], ...]]] = [None] * lane_count
    heaps: List[Optional[List[float]]] = [None] * lane_count
    queues: List[Optional[Dict[float, object]]] = [None] * lane_count
    # The node each armed lane settles on its next multiplexer pop,
    # taken off its queue when the lane was armed.
    nexts: List[int] = list(origins)
    # The multiplexer: the same two structures over lane numbers.
    multiplexer: List[float] = []
    lanes_at: Dict[float, object] = {}
    scale = config.origin_distance_scale
    for lane, origin in enumerate(origins):
        offset = 0.0
        if scale > 0.0:
            prestige = nw(origin) / max_node_weight
            offset = scale * (1.0 - prestige)
        # initial peek (reference: iterator.peek() before first push)
        if max_distance is None or offset <= max_distance:
            _enqueue(multiplexer, lanes_at, offset, lane)
    if profile is not None:
        profile.iterators += lane_count

    # -- per-query score memos ---------------------------------------------
    if (
        scorer.config.edge_log
        and scorer.stats.min_edge_weight == graph.frozen_min_edge_weight
    ):
        esn_memo: Dict[float, float] = dict(graph.frozen_edge_norms)
    else:
        esn_memo = {}
    edge_score_norm = scorer.edge_score_norm
    nsn_memo: Dict[int, float] = {}
    node_score_norm = scorer.node_score_norm
    require_all = config.require_all_keywords

    def relevance_of(tree: _IntTree) -> float:
        root, _parent, keyword_nodes, edge_weights = tree
        total = 0
        if edge_weights:
            pairs = [
                ("(%s, %s)" % (repr_of(s), repr_of(t)), w)
                for (s, t), w in edge_weights.items()
            ]
            pairs.sort(key=itemgetter(0))
            for _key, weight in pairs:
                norm = esn_memo.get(weight)
                if norm is None:
                    norm = edge_score_norm(weight)
                    esn_memo[weight] = norm
                total = total + norm
        norms = nsn_memo.get(root)
        if norms is None:
            norms = node_score_norm(nw(root))
            nsn_memo[root] = norms
        scores = [norms]
        covered = 0
        for keyword_node in keyword_nodes:
            if keyword_node is None:
                scores.append(0.0)
            else:
                covered += 1
                norm = nsn_memo.get(keyword_node)
                if norm is None:
                    norm = node_score_norm(nw(keyword_node))
                    nsn_memo[keyword_node] = norm
                scores.append(norm)
        score = scorer.relevance_parts(total, scores)
        if not require_all and term_count:
            score *= (covered / term_count) ** 2
        return score

    def materialize(tree: _IntTree) -> AnswerTree:
        root, parent, keyword_nodes, edge_weights = tree
        return AnswerTree(
            id_of(root),
            {id_of(c): id_of(p) for c, p in parent.items()},
            tuple(None if k is None else id_of(k) for k in keyword_nodes),
            {(id_of(s), id_of(t)): w for (s, t), w in edge_weights.items()},
        )

    # -- dedup + output heap (identical machinery, int keys) ---------------
    # Per term: node -> the origins (matching that term) that settled it.
    visits: List[Dict[int, List[int]]] = [{} for _ in range(term_count)]
    output = _OutputHeap(config.output_heap_size)
    emitted_keys: Set[FrozenSet] = set()
    emitted_count = 0
    visited_budget = config.max_visited
    max_results = config.max_results
    excluded_tables = config.excluded_root_tables
    excluded_nodes = config.excluded_root_nodes
    allowed_nodes = config.allowed_root_nodes

    def consider(tree: _IntTree):
        nonlocal emitted_count
        if profile is not None:
            profile.trees_considered += 1
        root, parent, _keyword_nodes, _edge_weights = tree
        key = frozenset(
            (
                frozenset(parent) | {root},
                frozenset(frozenset(pair) for pair in _edge_weights),
            )
        )
        if key in emitted_keys:
            if profile is not None:
                profile.duplicate_trees += 1
            return None
        relevance = relevance_of(tree)
        existing = output.get_relevance(key)
        if existing is not None:
            if relevance <= existing:
                return None
            output.remove(key)
        emission = None
        if output.full:
            best_key, best_tree, best_relevance = output.pop_best()
            emitted_keys.add(best_key)
            emission = ScoredAnswer(
                materialize(best_tree), best_relevance, emitted_count
            )
            emitted_count += 1
        output.add(key, tree, relevance)
        return emission

    # -- main loop ---------------------------------------------------------
    product = itertools.product
    first_hops: Set[int] = set()
    while multiplexer and emitted_count < max_results:
        if visited_budget is not None:
            if visited_budget <= 0:
                break
            visited_budget -= 1

        d0 = multiplexer[0]
        waiting = lanes_at[d0]
        if waiting.__class__ is int:
            lane = waiting
            del lanes_at[d0]
            heappop(multiplexer)
        else:
            lane = waiting.popleft()
            if not waiting:
                del lanes_at[d0]
                heappop(multiplexer)
        if profile is not None:
            profile.heap_pops += 1

        # Settle the lane's next node.  A lane has at most one
        # multiplexer entry, pushed at the distance of the node it was
        # armed with, and nothing touches the lane in between — so that
        # node (on the first pop, the origin itself) settles unchecked.
        v = nexts[lane]
        origin = origins[lane]
        dist = dists[lane]
        if dist is None:
            heap = heaps[lane] = []
            queue = queues[lane] = {}
            dist = dists[lane] = {v: d0}
            link = links[lane] = {}
            matched = terms_of_origin[v] if require_all else range(term_count)
            waits[lane] = tuple(
                visits[t] for t in range(term_count) if t not in matched
            )
            if profile is not None:
                profile.lanes_started += 1
        else:
            heap = heaps[lane]
            queue = queues[lane]
            link = links[lane]
        # No settled probe while relaxing: weights are non-negative, so
        # a settled neighbour already has dist <= d0 <= candidate and
        # the strict comparison fails on its own.
        row = None if over_pred is None else over_pred[v & MASK].get(v)
        if row is None and v < base_n:
            lo = pred_off[v]
            hi = pred_off[v + 1]
            if profile is not None:
                profile.edges_relaxed += hi - lo
            for position in range(lo, hi):
                neighbor = pred_to[position]
                weight = pred_w[position]
                candidate = d0 + weight
                known = dist.get(neighbor)
                if known is None or candidate < known:
                    dist[neighbor] = candidate
                    link[neighbor] = v
                    # _enqueue, inlined: this runs once per relaxation
                    bucket = queue.get(candidate)
                    if bucket is None:
                        queue[candidate] = neighbor
                        heappush(heap, candidate)
                    elif bucket.__class__ is int:
                        queue[candidate] = deque((bucket, neighbor))
                    else:
                        bucket.append(neighbor)
        elif row:
            if profile is not None:
                profile.edges_relaxed += len(row)
            for neighbor, weight in row.items():
                candidate = d0 + weight
                known = dist.get(neighbor)
                if known is None or candidate < known:
                    dist[neighbor] = candidate
                    link[neighbor] = v
                    # _enqueue, inlined: this runs once per relaxation
                    bucket = queue.get(candidate)
                    if bucket is None:
                        queue[candidate] = neighbor
                        heappush(heap, candidate)
                    elif bucket.__class__ is int:
                        queue[candidate] = deque((bucket, neighbor))
                    else:
                        bucket.append(neighbor)
        if profile is not None:
            profile.nodes_expanded += 1

        # Re-arm the multiplexer with the lane's next node, taken off the
        # head of its nearest bucket.  An entry is stale iff dist fell
        # below it: a push lowers dist strictly and nothing lowers a
        # settled node's, so the live one is equal.
        while heap:
            head_distance = heap[0]
            if max_distance is not None and head_distance > max_distance:
                heap.clear()
                queue.clear()
                break
            bucket = queue[head_distance]
            if bucket.__class__ is int:
                head = bucket
                del queue[head_distance]
                heappop(heap)
            else:
                head = bucket.popleft()
                if not bucket:
                    del queue[head_distance]
                    heappop(heap)
            if dist[head] < head_distance:
                continue
            nexts[lane] = head
            _enqueue(multiplexer, lanes_at, head_distance, lane)
            break

        # v can root a tree only once every term the origin does not
        # match has reached it; until then the visit is all there is.
        may_root = True
        for seen in waits[lane]:
            if v not in seen:
                may_root = False
                break
        if may_root:
            if v < base_n:
                node_id = base_ids[v]
                table = base_tables[v]
            else:
                node_id = app_ids[v - base_n]
                table = _node_table(node_id)
            may_root = (
                table not in excluded_tables
                and node_id not in excluded_nodes
                and (allowed_nodes is None or node_id in allowed_nodes)
            )
            path_cache: Dict[int, List[int]] = {}

        for term_index in terms_of_origin[origin]:
            if may_root:
                pools: Optional[List[Sequence[Optional[int]]]] = []
                for other_term in range(term_count):
                    if other_term == term_index:
                        continue
                    pool: Sequence[Optional[int]] = visits[other_term].get(v, ())
                    if not require_all:
                        pool = [*pool, None]
                    elif not pool:
                        pools = None
                        break
                    pools.append(pool)
                if pools is not None:
                    for combo in product(*pools):
                        assignment: List[Optional[int]] = []
                        combo_iter = iter(combo)
                        for position in range(term_count):
                            if position == term_index:
                                assignment.append(origin)
                            else:
                                assignment.append(next(combo_iter))
                        # Pre-graft discard (Fig. 3 "duplicate result"):
                        # the grafted tree's root children are a subset
                        # of the raw first hops {links[lane][v]}, and
                        # the subset is exact when it has at most one
                        # element (the first grafted path always keeps
                        # its first hop) — so most discards need no tree
                        # build.  Two or more distinct hops can still
                        # collapse to one root child during grafting, so
                        # that case falls through to the exact check.
                        first_hops.clear()
                        root_is_keyword = False
                        for member in assignment:
                            if member is None:
                                continue
                            hop = links[lane_of[member]].get(v)
                            if hop is None:
                                root_is_keyword = True
                            else:
                                first_hops.add(hop)
                        if len(first_hops) == 1 and not root_is_keyword:
                            continue
                        tree = _build_int_tree(
                            v,
                            assignment,
                            lane_of,
                            links,
                            path_cache,
                            graph,
                        )
                        if len(first_hops) > 1 and (
                            _discard_single_child_root_int(tree)
                        ):
                            continue
                        emission = consider(tree)
                        if emission is not None:
                            if profile is not None:
                                profile.answers_emitted += 1
                            yield emission
                            if emitted_count >= max_results:
                                return
            visits[term_index].setdefault(v, []).append(origin)

    # Drain: remaining buffered trees in decreasing relevance.
    while len(output) and emitted_count < max_results:
        key, tree, relevance = output.pop_best()
        emitted_keys.add(key)
        if profile is not None:
            profile.answers_emitted += 1
        yield ScoredAnswer(materialize(tree), relevance, emitted_count)
        emitted_count += 1


def _enqueue(heap: List[float], buckets: Dict, distance: float, item: int) -> None:
    """Queue ``item`` last among those at ``distance``: the distance
    enters the heap with its first item, which is the bucket itself
    until a second one arrives and a deque is made."""
    bucket = buckets.get(distance)
    if bucket is None:
        buckets[distance] = item
        heappush(heap, distance)
    elif bucket.__class__ is int:
        buckets[distance] = deque((bucket, item))
    else:
        bucket.append(item)


def _build_int_tree(
    root: int,
    assignment: Sequence[Optional[int]],
    lane_of: Dict[int, int],
    links: List,
    path_cache: Dict[int, List[int]],
    graph: CSRGraph,
) -> _IntTree:
    """Union-of-paths graft, int edition of :meth:`AnswerTree.from_paths`.

    Paths follow the lanes' ``node -> parent`` links; each edge weight
    is read back from the predecessor row relaxation read (the exact
    float ``graph.edge_weight`` would return), and dict insertion order
    replicates the reference graft order so the eventual
    ``AnswerTree.weight`` sums identically.
    """
    parent: Dict[int, int] = {}
    in_tree = {root}
    edge_weights: Dict[Tuple[int, int], float] = {}
    keyword_nodes: List[Optional[int]] = []
    for origin in assignment:
        if origin is None:
            keyword_nodes.append(None)
            continue
        link = links[lane_of[origin]]
        path = path_cache.get(origin)
        if path is None:
            path = [root]
            hop = link.get(root)
            while hop is not None:
                path.append(hop)
                hop = link.get(hop)
            path_cache[origin] = path
        keyword_nodes.append(path[-1])
        graft = 0
        for position in range(len(path) - 1, -1, -1):
            if path[position] in in_tree:
                graft = position
                break
        for position in range(graft, len(path) - 1):
            source, target = path[position], path[position + 1]
            if target in in_tree:
                raise GraphError(f"path re-enters the tree at {target!r}")
            parent[target] = source
            in_tree.add(target)
            edge_weights[(source, target)] = graph.raw_predecessors(target)[source]
    return (root, parent, tuple(keyword_nodes), edge_weights)


def _discard_single_child_root_int(tree: _IntTree) -> bool:
    """The Fig. 3 discard rule on int trees (see
    :func:`repro.core.oracle._discard_single_child_root`)."""
    root, parent, keyword_nodes, _edge_weights = tree
    if not parent:
        return False
    children_of_root = 0
    for node_parent in parent.values():
        if node_parent == root:
            children_of_root += 1
            if children_of_root > 1:
                return False
    if children_of_root != 1:
        return False
    return root not in set(keyword_nodes)
