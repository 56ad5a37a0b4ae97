"""User-feedback authority transfer — spreading activation (Sec. 7).

The paper plans: *"We are investigating authority transfer (a form of
spreading activation), wherein nodes pointed to by heavy nodes (perhaps
via user feedback) become heavier."*  This module implements exactly
that loop:

1. users click answers; :class:`FeedbackStore` accumulates per-tuple
   feedback mass (clicks on an answer endorse its root, and more
   weakly its keyword nodes);
2. :func:`spreading_activation` propagates that mass along the
   database's *reference* structure — a tuple pointed to by endorsed
   tuples becomes heavier, damped per hop and split across each
   endorser's out-references;
3. :class:`FeedbackBanks` folds the activation into node prestige
   (``weight = base prestige + scale * activation``) so subsequent
   searches rank endorsed regions higher.

The activation uses the pure forward reference graph (as the PageRank
prestige mode does), not the search graph's backward edges: authority
flows along semantic references only.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from repro.core.banks import BANKS, Answer
from repro.core.model import stats_of
from repro.core.scoring import Scorer
from repro.errors import QueryError
from repro.relational.database import Database, RID


class FeedbackStore:
    """Accumulated user endorsements per tuple.

    Clicking an :class:`repro.core.banks.Answer` endorses its root with
    full weight and each keyword node with ``leaf_share`` of it — the
    root is what the user judged relevant, the leaves contributed.
    """

    def __init__(self, leaf_share: float = 0.25):
        if not 0.0 <= leaf_share <= 1.0:
            raise QueryError("leaf_share must be in [0, 1]")
        self.leaf_share = leaf_share
        self._mass: Dict[RID, float] = {}

    def record_click(
        self, endorsement: Union[Answer, RID], weight: float = 1.0
    ) -> None:
        """Record one endorsement of an answer (or a bare tuple)."""
        if weight <= 0:
            raise QueryError("feedback weight must be positive")
        if isinstance(endorsement, Answer):
            self._add(endorsement.tree.root, weight)
            for keyword_node in endorsement.tree.keyword_nodes:
                if keyword_node is not None:
                    self._add(keyword_node, weight * self.leaf_share)
        else:
            self._add(endorsement, weight)

    def _add(self, node: RID, weight: float) -> None:
        self._mass[node] = self._mass.get(node, 0.0) + weight

    def mass(self, node: RID) -> float:
        return self._mass.get(node, 0.0)

    def seeds(self) -> Dict[RID, float]:
        return dict(self._mass)

    def clear(self) -> None:
        self._mass.clear()

    def __len__(self) -> int:
        return len(self._mass)


def spreading_activation(
    database: Database,
    seeds: Mapping[RID, float],
    damping: float = 0.5,
    rounds: int = 3,
) -> Dict[RID, float]:
    """Propagate feedback mass along forward references.

    In each round, every active tuple ``u`` sends
    ``damping * activation(u) / out_references(u)`` to each tuple it
    references — "nodes pointed to by heavy nodes become heavier".
    Activation accumulates (a node keeps what it received in earlier
    rounds); ``rounds`` bounds the spreading radius.

    Returns the total activation per node (seeds included).
    """
    if not 0.0 <= damping < 1.0:
        raise QueryError("damping must be in [0, 1)")
    if rounds < 0:
        raise QueryError("rounds must be >= 0")

    total: Dict[RID, float] = dict(seeds)
    frontier: Dict[RID, float] = dict(seeds)
    for _ in range(rounds):
        next_frontier: Dict[RID, float] = {}
        for node, activation in frontier.items():
            if activation <= 0:
                continue
            table_name, rid = node
            table = database.table(table_name)
            if not table.has_rid(rid):
                continue
            references = [
                target
                for _fk, target in database.references_of(node)
                if target != node
            ]
            if not references:
                continue
            share = damping * activation / len(references)
            for target in references:
                next_frontier[target] = next_frontier.get(target, 0.0) + share
        for node, activation in next_frontier.items():
            total[node] = total.get(node, 0.0) + activation
        frontier = next_frontier
        if not frontier:
            break
    return total


class FeedbackBanks(BANKS):
    """A BANKS facade whose prestige absorbs user feedback.

    Args:
        database: the data to search.
        feedback_scale: how strongly activation adds to base prestige
            (in units of indegree; 1.0 means one click at a node is
            worth one extra inlink there).
        damping: spreading-activation damping per hop.
        rounds: spreading radius in hops.
        **banks_options: forwarded to :class:`BANKS`.
    """

    def __init__(
        self,
        database: Database,
        feedback_scale: float = 1.0,
        damping: float = 0.5,
        rounds: int = 3,
        **banks_options,
    ):
        super().__init__(database, **banks_options)
        if feedback_scale < 0:
            raise QueryError("feedback_scale must be >= 0")
        self.feedback_scale = feedback_scale
        self.damping = damping
        self.rounds = rounds
        self.feedback = FeedbackStore()
        self._base_weights: Dict[RID, float] = {
            node: self.graph.node_weight(node) for node in self.graph.nodes()
        }

    def record_click(
        self, endorsement: Union[Answer, RID], weight: float = 1.0
    ) -> None:
        """Record an endorsement; call :meth:`apply_feedback` to fold
        accumulated feedback into the ranking."""
        self.feedback.record_click(endorsement, weight)

    def apply_feedback(self) -> Dict[RID, float]:
        """Recompute node prestige as base + scaled activation.

        Returns the activation map (useful for inspection/benchmarks).
        """
        activation = spreading_activation(
            self.database,
            self.feedback.seeds(),
            damping=self.damping,
            rounds=self.rounds,
        )
        for node, base in self._base_weights.items():
            boost = self.feedback_scale * activation.get(node, 0.0)
            self.graph.set_node_weight(node, base + boost)
        # Prestige changed: refresh the scoring normaliser.
        self.stats = stats_of(self.graph)
        self.scorer = Scorer(self.stats, self.scoring)
        return activation

    def reset_feedback(self) -> None:
        """Drop all feedback and restore base prestige."""
        self.feedback.clear()
        self.apply_feedback()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeedbackBanks({self.database.name}: "
            f"{len(self.feedback)} endorsed tuple(s))"
        )
