"""Answer and durability checks, run after timing and outside every metric.

The oracle is the reference search -- ``BANKS(database,
freeze=False).search``, the dict-of-dicts kernel the array kernel was
ported from.  On ``point_http``, ``broad_inproc`` and ``mixed_rw`` the
served answers must equal the oracle's: same roots, same scores to
1e-9, same order.

``gather_sharded`` cannot be held to that.  Backward expanding search
emits the first k trees its output heap releases, which is a heuristic
order; the gather dispatch exhausts every shard and merges by score, so
on the 107k-node graph it returns a different -- usually higher-scored
-- top-k list for two queries in three (see README.md).  What *fails*
a gather answer is what no correct answer list may do: hold a tree that
is not a valid tree over the reference graph with the graph's edge
weights, miss a keyword, carry a relevance other than what the
reference scorer gives that tree, or be out of order.  Two further
findings are *counted*, not hidden and not failed: queries whose list
differs from the oracle's (``shard.parity_mismatch``) and queries where
an oracle answer outscoring the served list's last entry is absent from
it (``shard.missed_better``; about 1 query in 100 at baseline).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

TOLERANCE = 1e-9

Signature = List[Tuple[Any, float]]


def reference(database):
    from repro.core.banks import BANKS

    return BANKS(database, freeze=False)


def signature(answers: Sequence[Any]) -> Signature:
    return [(tuple(a.tree.root), a.relevance) for a in answers]


def wire_signature(document: dict) -> Signature:
    return [(tuple(a["root"]), a["relevance"]) for a in document["answers"]]


def same(served: Signature, expected: Signature) -> bool:
    """Roots, scores (to 1e-9) and order all agree."""
    return len(served) == len(expected) and all(
        root == want_root and abs(score - want_score) <= TOLERANCE
        for (root, score), (want_root, want_score) in zip(served, expected)
    )


def valid_answers(oracle, query: str, answers: Sequence[Any]) -> bool:
    """What every answer list must satisfy (module docstring)."""
    graph, scorer = oracle.graph, oracle.scorer
    term_sets = oracle.resolve(query)
    previous = float("inf")
    for answer in answers:
        tree = answer.tree
        try:
            tree.validate()
        except Exception:
            return False
        for source, target in tree.edges:
            if not graph.has_edge(source, target):
                return False
            if abs(graph.edge_weight(source, target)
                   - tree.edge_weight(source, target)) > TOLERANCE:
                return False
        if len(tree.keyword_nodes) != len(term_sets) or any(
            node not in matches
            for node, matches in zip(tree.keyword_nodes, term_sets)
        ):
            return False
        if abs(scorer.relevance(tree, graph) - answer.relevance) > TOLERANCE:
            return False
        if answer.relevance > previous + TOLERANCE:
            return False
        previous = answer.relevance
    return True


def misses_better(wanted: Sequence[Any], answers: Sequence[Any], k: int) -> bool:
    """Whether one of the oracle's answers (``wanted``) scoring above
    the served list's last entry is absent from it.  Compared as
    undirected trees: the two searches may root one tree differently,
    and it is still one answer."""
    floor = answers[-1].relevance if len(answers) >= k else float("-inf")
    served = {answer.tree.undirected_key() for answer in answers}
    return any(
        answer.tree.undirected_key() not in served
        for answer in wanted
        if answer.relevance > floor + TOLERANCE
    )


def apply_write(target, op: tuple, rids: dict, position: int) -> None:
    """Apply one generated write op to ``target`` (a cluster or a
    database -- both expose insert / update / delete); ``rids`` maps an
    insert op's position to the RID it produced, for later deletes."""
    kind = op[0]
    if kind == "insert":
        rids[position] = target.insert(op[1], op[2])
    elif kind == "update":
        target.update(op[1], op[2])
    else:
        target.delete(rids[op[1]])


def lost_writes(database, ops: Sequence[tuple], acked: Sequence[int], rids: dict) -> int:
    """How many acknowledged writes ``database`` does not reflect: an
    acked insert must be present with its values (unless a later acked
    delete removed it), an acked delete absent, an acked update's
    latest value visible."""
    deleted = {ops[p][1] for p in acked if ops[p][0] == "delete"}
    latest_title = {}
    for position in acked:
        if ops[position][0] == "update":
            latest_title[ops[position][1]] = ops[position][2]["title"]
    lost = 0
    for position in acked:
        op = ops[position]
        if op[0] == "insert":
            table, slot = rids[position]
            present = database.table(table).has_rid(slot)
            if position in deleted:
                lost += present
            elif not present or list(database.row((table, slot)).values) != list(op[2]):
                lost += 1
        elif op[0] == "update":
            lost += database.row(op[1])["title"] != latest_title[op[1]]
    return lost
