"""Live rebalancing: drains under query load, rollback on faults.

The serving claim of :meth:`~repro.shard.router.ShardRouter.rebalance`:
every move holds the write gate exactly like a routed mutation, so a
query admitted at any point during a drain sees a disjoint ownership
cover and a complete answer set — never a missing node, never a
double-owned one — and the post-drain answers equal the pre-drain
answers exactly.  A fault mid-move rolls that move back atomically
(proven here per :data:`~repro.ops.rebalance.REBALANCE_STEPS` step).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import never_worse, same_up_to_ties
from repro.datasets import generate_bibliography
from repro.ops.faults import FaultInjected, FaultInjector
from repro.ops.rebalance import REBALANCE_STEPS, drain_plan, plan_rebalance
from repro.shard.process import fork_available
from repro.shard.router import ShardRouter

from tests.ops.test_checkpoint_crash import make_db

SHARDS = 3

#: Strict-parity safe through a drain at SHARDS: no exact-score tie
#: straddles a per-shard top-5 boundary (the demo query set's deep
#: ranks do).  The last two match nothing in this dataset and keep the
#: no-answer path under the same load.
PROBE_QUERIES = (
    "soumen sunita",
    "transaction",
    "benchmark workload",
    "snapshot epoch",
)


def disjoint_cover(router) -> bool:
    owned: set = set()
    total = 0
    for nodes in router.partition.shard_nodes:
        total += len(nodes)
        owned |= nodes
    return total == len(owned) and owned == set(router.graph.nodes())


class TestDrainUnderLoad:
    def test_background_queries_see_complete_undamaged_answers(self):
        """Three threads hammer the probe queries while a full shard
        drains.  Every observed answer set must be internally sound (no
        duplicated roots), at least as large as the unsharded
        reference's, and never-worse at every rank; the post-drain
        answers must equal the pre-drain ones exactly."""
        database, _anecdotes = generate_bibliography(
            papers=150, authors=80, seed=11
        )
        reference = IncrementalBANKS(database.fork())
        reference_top = {
            query: reference.search(query, max_results=5) for query in PROBE_QUERIES
        }
        router = ShardRouter(database.fork(), shards=SHARDS, backend="thread")
        with router:
            before = {
                query: router.search(query, max_results=5) for query in PROBE_QUERIES
            }
            observed = [[] for _ in range(3)]
            errors = []
            stop = threading.Event()

            def prober(out):
                while not stop.is_set():
                    for query in PROBE_QUERIES:
                        try:
                            out.append((query, router.search(query, max_results=5)))
                        except Exception as error:  # noqa: BLE001 - recorded
                            errors.append(error)
                            return

            threads = [
                threading.Thread(target=prober, args=(out,))
                for out in observed
            ]
            for thread in threads:
                thread.start()
            try:
                outcome = router.rebalance(drain_plan(router, SHARDS - 1))
            finally:
                stop.set()
                for thread in threads:
                    thread.join()

            assert errors == []
            assert outcome["applied"] > 0 and outcome["skipped"] == 0
            assert not router.partition.shard_nodes[SHARDS - 1]
            assert disjoint_cover(router)
            for query in PROBE_QUERIES:
                after = router.search(query, max_results=5)
                assert same_up_to_ties(after, before[query]), query

            probes = sum(len(out) for out in observed)
            assert probes > 0
            for out in observed:
                for query, answers in out:
                    roots = [answer.tree.root for answer in answers]
                    assert len(roots) == len(set(roots)), query
                    assert never_worse(answers, reference_top[query]), query

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_drain_keeps_exact_parity(self):
        """The forked-worker move path: drain a shard, then require
        answer parity with an identically mutated single engine."""
        router = ShardRouter(make_db(), shards=2, backend="process")
        facade = IncrementalBANKS(make_db())
        with router:
            for step in range(4):
                row = [f"lv{step}", f"drain study {step}"]
                router.insert("paper", row)
                facade.insert("paper", row)
            before = {
                query: router.search(query, max_results=5)
                for query in ("grace", "drain study", "abstraction")
            }
            outcome = router.rebalance(drain_plan(router, 1))
            assert outcome["applied"] > 0
            assert not router.partition.shard_nodes[1]
            assert disjoint_cover(router)
            for query, want in before.items():
                assert same_up_to_ties(router.search(query, max_results=5), want), query
                assert same_up_to_ties(facade.search(query, max_results=5), want), query


class TestFaultMidDrain:
    @pytest.mark.parametrize("step", REBALANCE_STEPS)
    def test_kill_mid_move_rolls_back_atomically(self, step):
        """Kill the drain's second move at every protocol step: the
        first move sticks, the interrupted one fully reverts, and the
        router still answers exactly as before the attempt."""
        router = ShardRouter(make_db(), shards=SHARDS, backend="thread")
        with router:
            queries = ("grace", "abstraction", "compiling")
            before = {query: router.search(query, max_results=5) for query in queries}
            ownership_before = [
                set(nodes) for nodes in router.partition.shard_nodes
            ]
            plan = drain_plan(router, SHARDS - 1)
            assert len(plan.moves) >= 2
            faults = FaultInjector().kill_at(step, occurrence=2)
            with pytest.raises(FaultInjected):
                router.rebalance(plan, faults=faults)
            assert faults.fired == [(step, "kill", 2)]

            # Move 1 applied; move 2 reverted — its node is back home.
            second = plan.moves[1]
            assert router.partition.shard_of(second.node) == second.source
            assert disjoint_cover(router)
            moved = sum(
                1
                for shard, nodes in enumerate(ownership_before)
                for node in nodes
                if router.partition.shard_of(node) != shard
            )
            assert moved == 1
            for query in queries:
                after = router.search(query, max_results=5)
                assert same_up_to_ties(after, before[query]), query

            # The drain is resumable: re-planning finishes the job.
            router.rebalance(drain_plan(router, SHARDS - 1))
            assert not router.partition.shard_nodes[SHARDS - 1]
            assert disjoint_cover(router)

    def test_metrics_plan_is_deterministic_and_applies(self):
        router = ShardRouter(make_db(), shards=SHARDS, backend="thread")
        with router:
            plan = plan_rebalance(router, max_moves=4)
            again = plan_rebalance(router, max_moves=4)
            assert plan.moves == again.moves
            outcome = router.rebalance(plan)
            assert outcome["applied"] + outcome["skipped"] == len(plan.moves)
            assert disjoint_cover(router)
