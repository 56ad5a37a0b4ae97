"""The :class:`ShardRouter`: scatter-gather keyword search over shards.

Query protocol (two scatter phases through the serving machinery):

1. **resolve scatter** — the parsed query goes to every shard through
   the router's :class:`~repro.serve.pool.WorkerPool`; each shard
   resolves every term against its *own* slice of the inverted index.
   The gathered union reproduces unsharded resolution exactly (each
   tuple's postings live on exactly one shard).
2. **search scatter** — the query plus the gathered global keyword node
   sets go to every shard's :class:`~repro.serve.engine.QueryEngine`;
   each shard runs the backward expanding search over the *whole*
   data graph but emits only answers rooted in its own partition, fetching
   ``max_results + overfetch`` candidates.
3. **gather** — per-shard answer trees merge into a global top-k by the
   paper's answer-relevance score
   (:func:`repro.core.topk.merge_scored_answers`), deduplicating
   re-rootings of the same undirected tree.

Cross-shard answers need no completion step: every shard searches the
one built graph, cut edges included, so a shard's trees freely cross
into other shards' territory — only the *root* is partitioned.  Against
the same database, the gathered top-k therefore matches single-engine
search scores to within float reproducibility (exactly, in practice:
both run the same arithmetic on the same graph).

Dispatch policies — the throughput finding, measured honestly:

* ``dispatch="gather"`` (default): the exact scatter-gather above.  It
  does **not** beat single-engine dispatch on throughput, on any core
  count: a shard must either emit its k candidates or *exhaust* its
  expansion to prove no better root exists in its partition, and that
  lower bound routinely costs as much as the single engine's whole
  early-stopping search (measured 0.65x–3.6x of it per query on the
  bibliography battery).  Gather is the mode whose mechanics —
  partitioned index, partitioned answer space, cut-edge links —
  carry over to a true memory-partitioned deployment, where per-shard
  search *is* 1/N of the work; on one box it buys semantics, not QPS.
* ``dispatch="route"``: each query goes whole to one shard worker,
  chosen by query hash (repeat queries keep shard affinity).  Every
  forked worker holds the built graph copy-on-write, so the worker
  computes exactly the single-engine answer list, and N workers answer
  N queries concurrently — throughput scales with cores.  Memory does
  not shrink; this is the policy when the graph fits and the GIL is
  the constraint.

Mutations — the router serves a *changing* database: the write path
routes every :class:`~repro.store.delta.Delta` to its **owning shard**
(the shard the affected node hashes to) instead of republishing a
whole-facade copy.  :meth:`ShardRouter.insert` / :meth:`delete` /
:meth:`update` derive the delta against the router's own replica;
:meth:`ShardRouter.apply` accepts deltas produced elsewhere (e.g. the
epochs a :class:`~repro.serve.snapshot.SnapshotStore` publishes, or a
WAL).  Either way the same O(delta) work happens everywhere it must:
the shared graph absorbs the edge re-weighs once (thread mode) or each
forked worker replays them into its private copy (process mode); the
owning shard's index slice and ownership set move; the partition's
cut-edge count follows from the delta's own edges, never a walk of the
whole graph; and only the owning shard's engine state is republished
(its snapshot version advances, bumping the epoch that keys
single-flight dedup).

With the process backend each worker is a forked process; the thread
backend exists for portability and deterministic tests.

Tracing — the router records its ``router.*`` spans (and its shard
engines their ``engine.*`` spans) into the trace the cluster front end
hands it; like every layer below :class:`~repro.cluster.api.Cluster`,
it never begins or seals a trace itself.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Union

from repro.core.answer import AnswerTree
from repro.core.banks import node_label
from repro.core.model import build_data_graph, stats_of
from repro.core.query import ParsedQuery, parse_query
from repro.core.scoring import ScoringConfig
from repro.core.search import ScoredAnswer, SearchConfig
from repro.core.topk import merge_scored_answers
from repro.core.weights import WeightPolicy
from repro.errors import ShardError
from repro.graph.csr import freeze_graph
from repro.obs import SearchProfile
from repro.relational.database import Database, RID
from repro.serve.engine import EngineConfig, QueryEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import WorkerPool
from repro.shard.partition import GraphPartitioner, Partition, ShardStrategy
from repro.shard.process import ProcessShardWorker, fork_available
from repro.shard.searcher import ShardSearcher
from repro.store.delta import (
    Delta,
    apply_graph_delta,
    derive_delete,
    derive_insert,
    derive_update,
    replay_delta,
)
from repro.text.inverted_index import InvertedIndex

_BACKENDS = ("thread", "process", "auto")
_DISPATCHES = ("gather", "route")


class _SearchGate:
    """Writer-preferring reader/writer gate between searches and
    routed mutations.

    Thread-backed searchers share one graph, database and
    index; applying a delta while a Dijkstra iterator walks those
    dicts would crash or corrupt scores.  Searches therefore enter as
    *readers* (concurrent with each other — the per-shard engines do
    the real parallelism) and a mutation enters as the exclusive
    *writer*, waiting for in-flight searches to drain.  Writers are
    preferred: once one is waiting, new searches queue behind it, so a
    steady read load cannot starve the write path.  Both sides are
    short-lived relative to serving (mutations are O(delta)), and
    mutations also cover the process backend — its per-worker pipe
    locks already serialise per shard, but the router's own replica
    (labels, partition, describe) wants the same exclusion.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writing or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


@dataclass
class ShardAnswer:
    """One globally ranked answer, annotated with shard provenance.

    Attributes:
        tree: the connection tree.
        relevance: overall relevance in [0, 1].
        rank: global rank (0 = best).
        root_shard: the shard that emitted this answer (owns the root).
    """

    tree: AnswerTree
    relevance: float
    rank: int
    root_shard: int
    _banks: "ShardRouter"

    @property
    def root(self) -> RID:
        return self.tree.root

    def shards(self) -> Set[int]:
        """Every shard contributing a node to this answer."""
        partition = self._banks.partition
        return {partition.shard_of(node) for node in self.tree.nodes}

    def is_cross_shard(self) -> bool:
        return len(self.shards()) > 1

    def render(self) -> str:
        labels = {node: self._banks.node_label(node) for node in self.tree.nodes}
        return self.tree.render_indented(labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardAnswer(rank={self.rank}, relevance={self.relevance:.4f}, "
            f"shards={sorted(self.shards())})"
        )


class ShardRouter:
    """Keyword search scattered over N shards, gathered to one top-k.

    Args:
        database: the data to shard and search.
        shards: shard count (>= 1).
        strategy: placement callable ``node -> int`` (default: the
            hash placement; see
            :class:`~repro.shard.partition.GraphPartitioner`).
        backend: ``"thread"`` (in-process searchers), ``"process"``
            (forked workers, one per shard — CPU scaling), or
            ``"auto"`` (process where fork exists, else thread).
        dispatch: ``"gather"`` (exact scatter-gather, the default) or
            ``"route"`` (whole queries to one worker each, by query
            hash — throughput mode; see the module docstring).
        weight_policy: edge/prestige weighting (the paper's defaults).
        scoring: scoring parameters (the paper's best).
        search_config: search knobs shared by every shard.
        include_metadata: let keywords match table/column names.
        overfetch: extra per-shard candidates beyond ``max_results`` —
            insurance against the output heap's approximate ordering.
        engine_config: per-shard engine knobs; ``workers`` is forced to
            1 (one CPU-bound searcher behind each engine).
        metrics: external registry to record into (one per router).
    """

    def __init__(
        self,
        database: Database,
        shards: int = 4,
        strategy: Optional[ShardStrategy] = None,
        backend: str = "auto",
        dispatch: str = "gather",
        weight_policy: Optional[WeightPolicy] = None,
        scoring: Optional[ScoringConfig] = None,
        search_config: Optional[SearchConfig] = None,
        include_metadata: bool = True,
        overfetch: int = 1,
        engine_config: Optional[EngineConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if backend not in _BACKENDS:
            raise ShardError(
                f"unknown shard backend {backend!r} "
                f"(choose from {', '.join(_BACKENDS)})"
            )
        if dispatch not in _DISPATCHES:
            raise ShardError(
                f"unknown dispatch policy {dispatch!r} "
                f"(choose from {', '.join(_DISPATCHES)})"
            )
        if overfetch < 0:
            raise ShardError("overfetch must be >= 0")
        if backend == "auto":
            backend = "process" if fork_available() else "thread"
        self.database = database
        self.backend = backend
        self.dispatch = dispatch
        self.overfetch = overfetch
        self.include_metadata = include_metadata
        self.search_config = search_config or SearchConfig()
        self.weight_policy = weight_policy or WeightPolicy()
        self._gate = _SearchGate()
        self._stats_dirty = False

        # Build once and partition in place: the partition copies no
        # graph, it assigns owners.  Every shard searcher searches the
        # built arrays (thread mode shares them by reference, forked
        # workers inherit them), and delta routing writes through the
        # overlay dicts.
        graph, self.stats = build_data_graph(database, self.weight_policy)
        full_index = InvertedIndex(database)
        self.full_index = full_index
        self.partitioner = GraphPartitioner(shards, strategy)
        self.partition: Partition = self.partitioner.partition(graph)
        self.graph = freeze_graph(graph)
        owned = self.partition.shard_nodes
        self._searchers = [
            ShardSearcher(
                shard_id,
                database,
                self.graph,
                self.stats,
                owned[shard_id],
                index,
                full_index,
                scoring=scoring,
                search_config=search_config,
                include_metadata=include_metadata,
            )
            for shard_id, index in enumerate(full_index.split(owned))
        ]

        # Fork before any thread exists (see repro.shard.process), then
        # put a QueryEngine in front of each shard worker.  A failed
        # fork stops the workers already forked: nothing else owns them.
        if backend == "process":
            self._workers: List[Any] = []
            try:
                for searcher in self._searchers:
                    self._workers.append(ProcessShardWorker(searcher))
            except BaseException:
                for worker in self._workers:
                    worker.stop()
                raise
        else:
            self._workers = list(self._searchers)

        base = engine_config or EngineConfig()
        per_shard = EngineConfig(
            workers=1,
            queue_bound=base.queue_bound,
            default_deadline=base.default_deadline,
            dedup=False,
        )
        self.engines = [QueryEngine(worker, per_shard) for worker in self._workers]
        self.pool = WorkerPool(
            workers=max(2, shards), queue_bound=0, name="shard-router"
        )

        self.metrics = metrics or MetricsRegistry(prefix="banks_shard")
        m = self.metrics
        self._queries = m.counter("queries_total", "scatter-gather searches")
        self._answers = m.counter("answers_total", "answers returned")
        self._cross = m.counter(
            "cross_shard_answers_total",
            "returned answers spanning more than one shard",
        )
        self.epoch = 0
        self._mutations = m.counter(
            "mutations_total", "deltas routed to their owning shard"
        )
        self._rebalance_moves = m.counter(
            "rebalance_moves_total", "nodes moved between shards live"
        )
        m.gauge("epoch", "router mutation epoch", fn=lambda: self.epoch)
        self._mutate_latency = m.histogram(
            "mutate_seconds", "delta route-and-apply cost distribution"
        )
        m.gauge("shards", "shard count", fn=lambda: self.partition.shards)
        m.gauge(
            "cut_edges",
            "directed edges crossing the partition",
            fn=lambda: self.partition.cut_edge_count,
        )
        self._latency = m.latency("latency_seconds", "scatter-to-gather latency")
        self._shard_searches: List[Any] = []
        for shard_id, engine in enumerate(self.engines):
            self._shard_searches.append(
                m.counter(
                    f"shard{shard_id}_searches_total",
                    f"sub-searches scattered to shard {shard_id}",
                )
            )
            m.gauge(
                f"shard{shard_id}_nodes",
                f"nodes owned by shard {shard_id}",
                fn=lambda i=shard_id: len(self.partition.shard_nodes[i]),
            )
            m.gauge(
                f"shard{shard_id}_completed_total",
                f"sub-searches completed by shard {shard_id}'s engine",
                fn=lambda e=engine: e.metrics.snapshot()["completed_total"],
            )

    # -- the search path ------------------------------------------------------

    def resolve(self, query: Union[str, ParsedQuery]) -> List[Set[RID]]:
        """Global per-term node sets, gathered from every shard."""
        with self._gate.read():
            return self._resolve_unlocked(query)

    def _resolve_unlocked(self, query: Union[str, ParsedQuery]) -> List[Set[RID]]:
        parsed = parse_query(query) if isinstance(query, str) else query
        per_shard = self.pool.map(lambda worker: worker.resolve(parsed), self._workers)
        node_sets: List[Set[RID]] = [set() for _ in parsed.terms]
        for shard_sets in per_shard:
            for term_index, nodes in enumerate(shard_sets):
                node_sets[term_index].update(nodes)
        return node_sets

    def search(
        self,
        query: Union[str, ParsedQuery],
        max_results: Optional[int] = None,
        timeout: Optional[float] = None,
        trace=None,
        trace_parent=None,
        profile=None,
        **config_overrides,
    ) -> List[ShardAnswer]:
        """Answer a keyword query under the configured dispatch policy:
        scatter-search-gather-rank, or route whole to one worker.

        Searches enter the router's read gate: they run concurrently
        with each other but never overlap a routed mutation (which
        takes the gate exclusively — see :class:`_SearchGate`).

        When the cluster front end hands a ``trace`` in, the scatter
        records a span tree under ``trace_parent``: ``router.search``
        over ``router.resolve``, one ``engine.request`` subtree per
        shard (forked workers' spans re-parented across the pipe) and
        ``router.merge``; per-shard profiles merge into ``profile``.
        """
        start = time.monotonic()
        router_span = (
            trace.begin(
                "router.search",
                parent_id=trace_parent,
                dispatch=self.dispatch,
                shards=self.partition.shards,
            )
            if trace is not None
            else None
        )
        self._queries.inc()
        wanted = (
            max_results
            if max_results is not None
            else self.search_config.max_results
        )
        parsed = parse_query(query) if isinstance(query, str) else query
        try:
            with self._gate.read():
                if self.dispatch == "route":
                    merged = self._route(
                        parsed, wanted, timeout, config_overrides,
                        trace, router_span, profile,
                    )
                else:
                    merged = self._scatter_gather(
                        parsed, wanted, timeout, config_overrides,
                        trace, router_span, profile,
                    )
                answers = [
                    ShardAnswer(
                        scored.tree,
                        scored.relevance,
                        rank,
                        self.partition.shard_of(scored.tree.root),
                        self,
                    )
                    for rank, scored in enumerate(merged)
                ]
        except BaseException as error:
            if router_span is not None:
                router_span.attrs["error"] = type(error).__name__
                trace.end(router_span)
            raise
        self._answers.inc(len(answers))
        self._cross.inc(sum(1 for a in answers if a.is_cross_shard()))
        self._latency.observe(time.monotonic() - start)
        if router_span is not None:
            router_span.attrs["answers"] = len(answers)
            trace.end(router_span)
        return answers

    def _scatter_gather(
        self, parsed: ParsedQuery, wanted: int, timeout, config_overrides,
        trace=None, router_span=None, profile=None,
    ) -> List[ScoredAnswer]:
        """Exact scatter-gather: all shards, roots partitioned."""
        parent_id = router_span.span_id if router_span is not None else None
        if trace is not None:
            with trace.span("router.resolve", parent_id=parent_id) as span:
                keyword_node_sets = self._resolve_unlocked(parsed)
                span.attrs["terms"] = len(keyword_node_sets)
        else:
            keyword_node_sets = self._resolve_unlocked(parsed)
        futures = []
        # One private profile per shard: the engines fill them from
        # concurrent worker threads, the gather merges single-threaded.
        shard_profiles: List[Optional[SearchProfile]] = []
        for shard_id, engine in enumerate(self.engines):
            self._shard_searches[shard_id].inc()
            shard_profile = SearchProfile() if profile is not None else None
            shard_profiles.append(shard_profile)
            try:
                futures.append(
                    engine.submit(
                        parsed,
                        keyword_node_sets=keyword_node_sets,
                        max_results=wanted + self.overfetch,
                        trace=trace,
                        trace_parent=parent_id,
                        profile=shard_profile,
                        **config_overrides,
                    )
                )
            except BaseException:
                for queued in futures:
                    queued.cancel()
                raise
        # One deadline for the whole gather: the caller's timeout bounds
        # the scatter-gather, not each shard individually.
        gather_deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        per_shard: List[List[ScoredAnswer]] = []
        for position, future in enumerate(futures):
            remaining = (
                None
                if gather_deadline is None
                else max(0.0, gather_deadline - time.monotonic())
            )
            try:
                per_shard.append(future.result(timeout=remaining).answers)
            except BaseException:
                for queued in futures[position:]:
                    queued.cancel()
                raise
        if profile is not None:
            for shard_profile in shard_profiles:
                if shard_profile is not None:
                    profile.merge(shard_profile)
        if trace is not None:
            with trace.span("router.merge", parent_id=parent_id) as span:
                merged = merge_scored_answers(per_shard, wanted)
                span.attrs["candidates"] = sum(len(s) for s in per_shard)
                span.attrs["answers"] = len(merged)
            return merged
        return merge_scored_answers(per_shard, wanted)

    def _route(
        self, parsed: ParsedQuery, wanted: int, timeout, config_overrides,
        trace=None, router_span=None, profile=None,
    ) -> List[ScoredAnswer]:
        """Route the whole query to one worker, by query hash."""
        parent_id = router_span.span_id if router_span is not None else None
        shard_id = zlib.crc32(repr(parsed).encode("utf-8")) % len(
            self.engines
        )
        if router_span is not None:
            router_span.attrs["routed_shard"] = shard_id
        self._shard_searches[shard_id].inc()
        future = self.engines[shard_id].submit(
            parsed,
            unrestricted=True,
            max_results=wanted,
            trace=trace,
            trace_parent=parent_id,
            profile=profile,
            **config_overrides,
        )
        # Emission order is preserved: a routed query returns exactly
        # the single-engine answer list, not a re-sorted view of it.
        return future.result(timeout=timeout).answers

    # -- the write path (delta routing) ---------------------------------------

    def insert(self, table_name: str, values: Sequence[Any]) -> RID:
        """Insert a tuple; route the delta to its owning shard."""
        with self._gate.write():
            started = time.perf_counter()
            # Validate placement *before* deriving: derivation mutates
            # the shared database and index, and a strategy that
            # misplaces the new node must fail before any of that.
            # The heap is append-only, so the next RID is known.
            node = (table_name, self.database.table(table_name).next_rid)
            owner = self._place(node)
            delta = derive_insert(
                self.database,
                [self.full_index],
                self.graph,
                self.weight_policy,
                table_name,
                values,
            )
            # The owning shard's index slice gains the new postings
            # (derivation already updated the shared full index).
            self._searchers[owner].index.add_row(*delta.node)
            self._admit(delta, owner, started)
            return delta.node

    def delete(self, rid: RID) -> None:
        """Delete a tuple; route the delta to its owning shard.

        Raises :class:`repro.errors.IntegrityError` (before any shard
        state changes) if other tuples still reference ``rid``.
        """
        with self._gate.write():
            started = time.perf_counter()
            owner = self.partition.shard_of(rid)
            delta = derive_delete(
                self.database,
                [self.full_index, self._searchers[owner].index],
                self.graph,
                self.weight_policy,
                rid,
            )
            self._admit(delta, owner, started)

    def update(self, rid: RID, changes: Mapping[str, Any]) -> None:
        """Update a tuple in place; route the delta to its owner."""
        with self._gate.write():
            started = time.perf_counter()
            owner = self.partition.shard_of(rid)
            delta = derive_update(
                self.database,
                [self.full_index, self._searchers[owner].index],
                self.graph,
                self.weight_policy,
                rid,
                changes,
            )
            self._admit(delta, owner, started)

    def apply(self, delta: Delta) -> int:
        """Route one externally derived delta (e.g. from an epoch a
        :class:`~repro.serve.snapshot.SnapshotStore` published) to its
        owning shard; returns the owner.

        The router's replica replays the relational + index part and
        absorbs the graph part, then the same per-shard propagation as
        the native mutation methods runs.
        """
        with self._gate.write():
            started = time.perf_counter()
            if delta.kind == "insert":
                owner = self._place(delta.node)
            else:
                owner = self.partition.shard_of(delta.node)
            replay_delta(
                self.database,
                [self.full_index, self._searchers[owner].index],
                delta,
            )
            self._admit(delta, owner, started)
            return owner

    def apply_epochs(self, epochs) -> int:
        """Apply every delta of a sequence of published
        :class:`~repro.store.log.Epoch` entries; returns deltas applied."""
        applied = 0
        for epoch in epochs:
            for delta in epoch.deltas:
                self.apply(delta)
                applied += 1
        return applied

    def _place(self, node: RID) -> int:
        """The shard a *new* node belongs to, by the partition strategy."""
        shard = self.partitioner.strategy(node)
        if not 0 <= shard < self.partition.shards:
            raise ShardError(
                f"strategy placed {node!r} on shard {shard}, outside "
                f"range(0, {self.partition.shards})"
            )
        return shard

    def _admit(self, delta: Delta, owner: int, started: float) -> None:
        """Propagate an already-derived delta through the shard state.

        The router's shared database, full index and owner's index
        slice are updated by the caller; what remains is the partition
        bookkeeping (read against the graph *before* it absorbs the
        delta), the shared graph write, the per-searcher
        ownership/normaliser notes, the per-worker replay in process
        mode, and republishing the owning shard's engine state.
        """
        self.partition.apply_delta(delta, owner, self.graph)
        apply_graph_delta(self.graph, delta)
        for searcher in self._searchers:
            searcher.note_delta(delta, owner)
        if self.backend == "process":
            # Each forked worker holds a private replica: replay the
            # whole delta there (serialised with in-flight searches by
            # the per-worker pipe lock).
            for worker in self._workers:
                worker.apply_delta(delta, owner)
        # Normalisers refresh lazily (searchers on their next search,
        # the router's reporting copy in describe()): recomputing the
        # O(E) scan here would make every O(delta) write pay O(graph).
        self._stats_dirty = True
        # Republish only the owning shard's engine state: its snapshot
        # version advances (new dedup epoch), everyone else's stands.
        self.engines[owner].snapshots.republish()
        self.epoch += 1
        self._mutations.inc()
        self._mutate_latency.observe(time.perf_counter() - started)

    # -- live rebalancing ------------------------------------------------------

    def rebalance(self, plan, faults=None) -> Dict[str, int]:
        """Execute a rebalance plan move by move, while serving.

        ``plan`` is a :class:`~repro.ops.rebalance.RebalancePlan` (or
        anything with a ``moves`` sequence of ``node``/``source``/
        ``target`` records — the router deliberately doesn't import the
        planner).  Each move takes the write gate exclusively, exactly
        like a routed mutation: in-flight searches drain, the move
        applies everywhere (partition, every searcher's ownership and
        index slice, forked workers' private replicas), both affected
        engines republish, and the router epoch advances — so a query
        admitted between moves always sees a disjoint ownership cover
        and exact answer parity (the graph never changes).

        ``faults`` (a :class:`~repro.ops.faults.FaultInjector`) gets
        every step of :data:`~repro.ops.rebalance.REBALANCE_STEPS`
        announced per move.  A fault mid-move rolls the completed
        sub-steps of *that move* back before re-raising, so an aborted
        rebalance leaves the partition consistent at the last fully
        applied move.

        Returns ``{"applied": ..., "skipped": ..., "epoch": ...}``;
        moves whose node has vanished or already migrated (a stale
        plan) are skipped, not errors — planning reads live state that
        mutations may have moved on from.
        """
        applied = 0
        skipped = 0
        for move in plan.moves:
            with self._gate.write():
                try:
                    current = self.partition.shard_of(move.node)
                except ShardError:
                    skipped += 1  # deleted since planning
                    continue
                if current != move.source or move.source == move.target:
                    skipped += 1  # already migrated / no-op
                    continue
                self._move_node(move.node, move.source, move.target, faults)
                applied += 1
                self._rebalance_moves.inc()
        return {"applied": applied, "skipped": skipped, "epoch": self.epoch}

    def drain(self, shard: int, faults=None) -> Dict[str, int]:
        """Empty one shard through :meth:`rebalance` (decommission
        primitive; plan derived by
        :func:`~repro.ops.rebalance.drain_plan`)."""
        from repro.ops.rebalance import drain_plan

        return self.rebalance(drain_plan(self, shard), faults=faults)

    def _move_node(self, node: RID, source: int, target: int, faults) -> None:
        """One move under the held write gate, with rollback.

        Order mirrors the delta write path: partition bookkeeping,
        per-searcher ownership/index maintenance, process-worker
        replay, then republish.  The undo stack inverts completed
        sub-steps if a fault (or a dead worker) interrupts, restoring
        the pre-move state before the error propagates.
        """
        undo: List[Any] = []
        try:
            self.partition.move_node(node, target, self.graph)
            undo.append(lambda: self.partition.move_node(node, source, self.graph))
            if faults is not None:
                faults.step("assign")
            moved_searchers: List[ShardSearcher] = []
            undo.append(
                lambda: [
                    searcher.move_node(node, target, source)
                    for searcher in moved_searchers
                ]
            )
            for searcher in self._searchers:
                searcher.move_node(node, source, target)
                moved_searchers.append(searcher)
            if faults is not None:
                faults.step("reslice")
            if self.backend == "process":
                moved_workers: List[Any] = []
                undo.append(
                    lambda: [
                        worker.move_node(node, target, source)
                        for worker in moved_workers
                    ]
                )
                for worker in self._workers:
                    worker.move_node(node, source, target)
                    moved_workers.append(worker)
            if faults is not None:
                faults.step("replay")
            self.engines[source].snapshots.republish()
            self.engines[target].snapshots.republish()
            self.epoch += 1
            if faults is not None:
                faults.step("republish")
        except BaseException:
            for action in reversed(undo):
                action()
            # Readers may already have seen a republish carrying the
            # half-applied (or, at the final step, fully applied but
            # now reverted) move: advertise the restored ownership
            # under a fresh version so every later search is exact.
            self.engines[source].snapshots.republish()
            self.engines[target].snapshots.republish()
            self.epoch += 1
            raise

    # -- presentation / introspection ----------------------------------------

    def node_label(self, node: RID) -> str:
        return node_label(self.database, node)

    def describe(self) -> Dict[str, Any]:
        """Shard-level facts for status pages and benchmarks."""
        if self._stats_dirty:
            self.stats = stats_of(self.graph)
            self._stats_dirty = False
        return {
            "shards": self.partition.shards,
            "backend": self.backend,
            "dispatch": self.dispatch,
            "epoch": self.epoch,
            "nodes": self.partition.num_nodes,
            "edges": self.stats.num_edges,
            "cut_edges": self.partition.cut_edge_count,
            "cut_fraction": self.partition.cut_fraction(self.graph),
            "balance": self.partition.balance(),
            "shard_nodes": [
                len(nodes) for nodes in self.partition.shard_nodes
            ],
        }

    # -- lifecycle ------------------------------------------------------------

    def stop(self) -> None:
        """Stop engines, the router pool and any worker processes."""
        for engine in self.engines:
            engine.stop()
        self.pool.stop()
        if self.backend == "process":
            for worker in self._workers:
                worker.stop()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter({self.partition.shards} shards, {self.backend}, "
            f"{self.dispatch} dispatch, {self.stats.num_nodes} nodes, "
            f"{self.partition.cut_edge_count} cut edges)"
        )
