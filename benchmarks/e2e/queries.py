"""Seeded input generation: the program receives only what this makes.

The data graph is always the same (``synth:N`` with the generator's own
default seed, so every run and every commit searches one graph); the
benchmark's ``--seed`` decides which queries and writes are issued.

Query classes, drawn from the ``synth`` vocabulary (an author is named
``First Last <number>``, 40 first names x 40 last names):

``point``
    Two author-number tokens, one matching node per term, both authors
    in the graph's giant component so every query has answers (a pair
    from different components exhausts all 107k nodes for nothing) and
    both with at least two papers (see ``Vocabulary``).
    Kernel *expansion* dominates: 2 lanes, 7k-14k heap pops.
``solo``
    One first or last name -- the paper's ``mohan`` query shape.
    ~365 matching authors, so ~365 lanes, and 25 heap pops: the cost
    is per-lane set-up and memory, not expansion.

Left out at this scale, with the measurement that rules each out (see
README.md): three-token ``point`` queries, ``name`` (first + last),
``half`` (name + author number) and title-word terms.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

Record = Tuple[str, List[Any]]

#: Answers requested by every read.
K = 5
#: No generated query may resolve to more matching nodes than this: the
#: kernel allocates ~2.7 MB per matching node on the 107k-node graph.
LANE_BUDGET = 800
#: Share of ``point_http`` requests that repeat an earlier request.
REPEAT_SHARE = 0.23
#: Popularity exponent: which earlier request a repeat picks.
ZIPF_EXPONENT = 0.75

_TITLE_WORDS = (
    "adaptive", "caching", "dynamic", "indexing", "joins", "mining",
    "parallel", "queries", "sampling", "streams", "views", "workflow",
)


def synth_records(n_papers: int) -> List[Record]:
    from repro.datasets.synth import synth_bibliography_records

    return list(synth_bibliography_records(n_papers))


def load_database(records: Sequence[Record]):
    """The relational layer's part of set-up: one insert per record."""
    from repro.datasets.synth import synth_bibliography_base

    database = synth_bibliography_base()
    for table, values in records:
        database.insert(table, values)
    return database


class Vocabulary:
    """What queries may be built from, derived from the records."""

    def __init__(self, records: Sequence[Record]):
        parent: Dict[str, str] = {}

        def find(key: str) -> str:
            root = key
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[key] != root:
                parent[key], key = root, parent[key]
            return root

        names: Counter = Counter()
        papers: Counter = Counter()
        author_keys: List[str] = []
        for table, values in records:
            if table == "author":
                author_keys.append(values[0])
                first, last, _number = values[1].lower().split()
                names[first] += 1
                names[last] += 1
            elif table in ("writes", "cites"):
                if table == "writes":
                    papers[values[0]] += 1
                left, right = find(values[0]), find(values[1])
                if left != right:
                    parent[left] = right
        sizes = Counter(find(key) for key in author_keys)
        giant = sizes.most_common(1)[0][0]
        #: Author numbers (the query tokens) inside the giant component,
        #: of authors with at least two papers: 1 pair in 180 that holds
        #: a one-paper author exhausts the graph (106k heap pops, 0.5 s
        #: against 50 ms), and whether a run draws none or three of
        #: those decides its throughput.
        self.authors: List[int] = [
            int(key[2:]) for key in author_keys
            if find(key) == giant and papers[key] >= 2
        ]
        # Plain-ASCII names (the index folds accents, so ``tomás`` as
        # typed matches nothing) whose posting count sits with the
        # bulk: on synth:19500
        # seven last names match 400 authors instead of 360-367 and cost
        # 2.4x (allocator growth past the retained arena), so a seed
        # drawing more of them would read as a slower system.
        typical = sorted(names.values())[len(names) // 2]
        self.names: List[str] = sorted(
            name for name, count in names.items()
            if 0.9 * typical <= count <= 1.05 * typical and name.isascii()
        )


def point_queries(rng: random.Random, authors: Sequence[int], count: int) -> List[str]:
    """``count`` distinct two-author queries."""
    seen, queries = set(), []
    while len(queries) < count:
        query = "%d %d" % tuple(rng.sample(authors, 2))
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def request_stream(rng: random.Random, authors: Sequence[int], count: int) -> List[str]:
    """``count`` point requests of which exactly ``REPEAT_SHARE`` repeat
    an earlier request, the repeated one picked Zipf-wise by order of
    first appearance (the first-issued query is the hottest).

    The repeat *count* is fixed, not drawn, so the cache-hit share is
    the same for every seed; which positions repeat, and what, is the
    seed's.
    """
    repeats = round(REPEAT_SHARE * count)
    fresh = iter(point_queries(rng, authors, count - repeats))
    repeat_at = set(rng.sample(range(4, count), repeats)) if repeats else set()
    distinct: List[str] = []
    stream: List[str] = []
    for position in range(count):
        if position in repeat_at:
            weights = [
                1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(distinct))
            ]
            stream.append(rng.choices(distinct, weights)[0])
        else:
            query = next(fresh)
            distinct.append(query)
            stream.append(query)
    return stream


def solo_queries(rng: random.Random, names: Sequence[str], count: int) -> List[str]:
    """``count`` distinct one-name queries."""
    return rng.sample(list(names), count)


def write_ops(rng: random.Random, records: Sequence[Record], count: int) -> List[tuple]:
    """``count`` write operations against a store holding ``records``:
    60 % inserts (cycling paper -> writes -> cites, each new paper linked
    to an existing author and an existing paper), 25 % title updates of
    existing papers, 15 % deletes of a link tuple inserted earlier.

    Operations are ``("insert", table, values)``, ``("update", rid,
    changes)`` and ``("delete", index of the earlier insert op)``.
    The kinds follow a fixed pattern so every seed has the same mix.
    """
    authors = [v[0] for t, v in records if t == "author"]
    papers = [v[0] for t, v in records if t == "paper"]
    pattern = ["insert"] * 12 + ["update"] * 5 + ["delete"] * 3
    rng.shuffle(pattern)
    ops: List[tuple] = []
    deletable: List[int] = []  # indices of link inserts not yet deleted
    inserted = 0
    new_paper = None
    for position in range(count):
        kind = pattern[position % len(pattern)]
        if kind == "delete" and not deletable:
            kind = "insert"
        if kind == "insert":
            step = inserted % 3
            inserted += 1
            if step == 0:
                new_paper = "B%06d" % (inserted // 3)
                title = " ".join(w.capitalize() for w in rng.sample(_TITLE_WORDS, 4))
                ops.append(("insert", "paper", [new_paper, title]))
            elif step == 1:
                ops.append(("insert", "writes", [rng.choice(authors), new_paper]))
                deletable.append(position)
            else:
                ops.append(("insert", "cites", [new_paper, rng.choice(papers)]))
                deletable.append(position)
        elif kind == "update":
            title = " ".join(w.capitalize() for w in rng.sample(_TITLE_WORDS, 3))
            ops.append(
                ("update", ("paper", rng.randrange(len(papers))), {"title": title})
            )
        else:
            ops.append(("delete", deletable.pop(rng.randrange(len(deletable)))))
    return ops
