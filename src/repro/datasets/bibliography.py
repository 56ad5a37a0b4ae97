"""DBLP-like bibliographic database generator (paper Fig. 1 schema).

Schema::

    author(author_id PK, name)
    paper(paper_id PK, title)
    writes(author_id -> author, paper_id -> paper)
    cites(citing -> paper, cited -> paper)

Structural properties mirrored from DBLP: Zipf-like paper counts per
author (a few very prolific authors), Zipf-like citation counts (a few
classics), 1–4 authors per paper.  On top of the random mass, the
generator plants the exact substructures behind the paper's Sec. 5.1
anecdotes; :class:`BibliographyAnecdotes` records their RIDs so the
evaluation workload can point at ground-truth ideal answers.

Planted anecdotes:

* ``soumen sunita`` — Soumen Chakrabarti, Sunita Sarawagi and Byron Dom
  co-author *Mining Surprising Patterns Using Temporal Description
  Length* (ChakrabartiSD98), and Soumen/Sunita co-author one more paper;
* ``mohan`` — C. Mohan is highly prolific; Mohan Ahuja and Mohan Kamat
  have fewer papers;
* ``transaction`` — Jim Gray's classic and the Gray & Reuter book are
  the two most-cited "transaction" items; several low-citation
  transaction papers also exist;
* ``seltzer sunita`` — Margo Seltzer and Sunita are *not* co-authors but
  both co-authored with the extremely prolific Michael Stonebraker (the
  log-scaling anecdote: his author->writes back edge is very heavy).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.database import Database, RID
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import TEXT

_FIRST_NAMES = [
    "Alice", "Rajeev", "Wei", "Maria", "David", "Elena", "Hiro", "Fatima",
    "Carlos", "Ingrid", "Pavel", "Nadia", "Tomás", "Yuki", "Omar", "Greta",
    "Lars", "Priya", "Chen", "Amara", "Viktor", "Leila", "Marco", "Sofia",
    "Anders", "Ravi", "Mei", "Hanna", "Diego", "Olga", "Kenji", "Asha",
    "Peter", "Lucia", "Ivan", "Rosa", "Emil", "Tara", "Jorge", "Nina",
]

_LAST_NAMES = [
    "Albrecht", "Banerjee", "Costa", "Dimitrov", "Eriksson", "Fernandez",
    "Goldberg", "Haas", "Ivanov", "Jensen", "Kaufmann", "Lindqvist",
    "Moreno", "Nakamura", "Oliveira", "Petrov", "Quast", "Rossi",
    "Schmidt", "Takahashi", "Ullman2", "Varga", "Weber", "Xu", "Yamada",
    "Zhou", "Becker", "Carvalho", "Dutta", "Engel", "Fischer", "Garg",
    "Hoffmann", "Iyer", "Joshi", "Keller", "Lombardi", "Mishra", "Novak",
    "Okafor",
]

_TITLE_WORDS = [
    "adaptive", "aggregation", "algebra", "analysis", "buffering",
    "caching", "clustering", "concurrent", "cost", "cube", "decision",
    "declarative", "deductive", "dependencies", "design", "discovery",
    "distributed", "dynamic", "efficient", "estimation", "evaluation",
    "extensible", "federated", "histograms", "incremental", "indexing",
    "integration", "joins", "knowledge", "languages", "learning",
    "maintenance", "materialized", "mediators", "memory", "mining",
    "models", "multidimensional", "nested", "object", "optimization",
    "parallel", "partitioning", "performance", "pipelined", "processing",
    "provenance", "queries", "recursive", "relational", "replication",
    "sampling", "scalable", "scheduling", "semantics", "semistructured",
    "sequences", "spatial", "storage", "streams", "views", "warehousing",
    "workflow",
]


@dataclass
class BibliographyAnecdotes:
    """Ground-truth RIDs of the planted Sec. 5.1 substructures."""

    # soumen sunita
    soumen: Optional[RID] = None
    sunita: Optional[RID] = None
    byron: Optional[RID] = None
    chakrabarti_sd98: Optional[RID] = None
    soumen_sunita_second_paper: Optional[RID] = None
    # mohan
    c_mohan: Optional[RID] = None
    mohan_ahuja: Optional[RID] = None
    mohan_kamat: Optional[RID] = None
    # transaction
    gray: Optional[RID] = None
    reuter: Optional[RID] = None
    transaction_classic: Optional[RID] = None
    transaction_book: Optional[RID] = None
    minor_transaction_papers: List[RID] = field(default_factory=list)
    # seltzer sunita
    seltzer: Optional[RID] = None
    stonebraker: Optional[RID] = None
    stonebraker_seltzer_paper: Optional[RID] = None
    stonebraker_sunita_paper: Optional[RID] = None
    # sudarshan (metadata query)
    sudarshan: Optional[RID] = None
    # writes tuples for the Fig. 2 tree
    writes_by_paper: Dict[Tuple[RID, RID], RID] = field(default_factory=dict)


def _schema(database: Database) -> None:
    database.create_table(
        TableSchema(
            "author",
            [Column("author_id", TEXT, nullable=False),
             Column("name", TEXT, nullable=False)],
            primary_key=("author_id",),
        )
    )
    database.create_table(
        TableSchema(
            "paper",
            [Column("paper_id", TEXT, nullable=False),
             Column("title", TEXT, nullable=False)],
            primary_key=("paper_id",),
        )
    )
    database.create_table(
        TableSchema(
            "writes",
            [Column("author_id", TEXT, nullable=False),
             Column("paper_id", TEXT, nullable=False)],
            primary_key=("author_id", "paper_id"),
            foreign_keys=[
                ForeignKey("writes", ("author_id",), "author", ("author_id",)),
                ForeignKey("writes", ("paper_id",), "paper", ("paper_id",)),
            ],
        )
    )
    database.create_table(
        TableSchema(
            "cites",
            [Column("citing", TEXT, nullable=False),
             Column("cited", TEXT, nullable=False)],
            primary_key=("citing", "cited"),
            foreign_keys=[
                ForeignKey("cites", ("citing",), "paper", ("paper_id",)),
                ForeignKey("cites", ("cited",), "paper", ("paper_id",)),
            ],
        )
    )


class _Builder:
    """Insertion helpers with id bookkeeping."""

    def __init__(self, database: Database, rng: random.Random):
        self.database = database
        self.rng = rng
        self.author_rids: Dict[str, RID] = {}
        self.paper_rids: Dict[str, RID] = {}
        self.writes_rids: Dict[Tuple[str, str], RID] = {}
        self.cites_pairs: Set[Tuple[str, str]] = set()
        self.papers_of_author: Dict[str, List[str]] = {}

    def add_author(self, author_id: str, name: str) -> RID:
        rid = self.database.insert("author", [author_id, name])
        self.author_rids[author_id] = rid
        self.papers_of_author[author_id] = []
        return rid

    def add_paper(self, paper_id: str, title: str) -> RID:
        rid = self.database.insert("paper", [paper_id, title])
        self.paper_rids[paper_id] = rid
        return rid

    def add_writes(self, author_id: str, paper_id: str) -> RID:
        key = (author_id, paper_id)
        if key in self.writes_rids:
            return self.writes_rids[key]
        rid = self.database.insert("writes", [author_id, paper_id])
        self.writes_rids[key] = rid
        self.papers_of_author[author_id].append(paper_id)
        return rid

    def add_cites(self, citing: str, cited: str) -> Optional[RID]:
        if citing == cited or (citing, cited) in self.cites_pairs:
            return None
        self.cites_pairs.add((citing, cited))
        return self.database.insert("cites", [citing, cited])

    def random_title(self, words: int) -> str:
        picked = self.rng.sample(_TITLE_WORDS, words)
        return " ".join(word.capitalize() for word in picked)


def generate_bibliography(
    papers: int = 400,
    authors: int = 220,
    seed: int = 42,
    include_anecdotes: bool = True,
    citations_per_paper: float = 1.2,
) -> Tuple[Database, BibliographyAnecdotes]:
    """Generate the bibliographic database.

    Args:
        papers: number of *random* papers (anecdote papers are extra).
        authors: number of random authors (anecdote authors are extra).
        seed: RNG seed; everything is deterministic in it.
        include_anecdotes: plant the Sec. 5.1 substructures.
        citations_per_paper: mean outgoing citations per random paper.

    Returns:
        ``(database, anecdotes)``; ``anecdotes`` holds ground-truth RIDs
        (all ``None`` when ``include_anecdotes`` is false).
    """
    rng = random.Random(seed)
    database = Database("bibliography")
    _schema(database)
    builder = _Builder(database, rng)
    anecdotes = BibliographyAnecdotes()

    if include_anecdotes:
        _plant_anecdotes(builder, anecdotes)

    # -- random authors ------------------------------------------------------
    random_author_ids: List[str] = []
    used_names: Set[str] = set()
    while len(random_author_ids) < authors:
        first = rng.choice(_FIRST_NAMES)
        last = rng.choice(_LAST_NAMES)
        name = f"{first} {last}"
        if name in used_names:
            # The name pool holds ~1600 combinations; at larger scales
            # disambiguate with a numeral instead of rejecting (a bare
            # rejection loop would never terminate past the pool size).
            name = f"{first} {last} {len(random_author_ids)}"
        used_names.add(name)
        author_id = f"{first}{last}{len(random_author_ids)}"
        builder.add_author(author_id, name)
        random_author_ids.append(author_id)

    # Zipf-ish author productivity, flattened so that no *random* author
    # rivals the planted prolific ones (C. Mohan ~18 papers, Stonebraker
    # ~55): the top random author lands around 15 papers at the default
    # scale.
    author_weights = [
        1.0 / (rank + 20) for rank in range(len(random_author_ids))
    ]
    # Cumulative weights make each rng.choices call O(log n) instead of
    # O(n) — essential at benchmark scales.
    author_cum_weights = list(itertools.accumulate(author_weights))

    # -- random papers ------------------------------------------------------------
    random_paper_ids: List[str] = []
    for number in range(papers):
        paper_id = f"P{number:05d}"
        title = builder.random_title(rng.randint(3, 6))
        builder.add_paper(paper_id, title)
        random_paper_ids.append(paper_id)
        team_size = rng.choices((1, 2, 3, 4), weights=(20, 40, 30, 10))[0]
        team = _weighted_sample(
            rng, random_author_ids, author_cum_weights, team_size
        )
        for author_id in team:
            builder.add_writes(author_id, paper_id)

    if include_anecdotes:
        _attach_anecdote_mass(builder, anecdotes, random_author_ids, random_paper_ids)

    # -- citations: preferential attachment --------------------------------------
    all_paper_ids = list(builder.paper_rids)
    # Base attractiveness: 1 + already-assigned boost (classics get big boosts
    # during anecdote planting through explicit extra citations below).
    attractiveness = {paper_id: 1.0 for paper_id in all_paper_ids}
    if include_anecdotes and anecdotes.transaction_classic is not None:
        # The two Gray classics dominate citations (as in real life);
        # they also push the graph's maximum node weight well above the
        # planted prolific authors, which keeps node scores spread out.
        classic_id = database.row(anecdotes.transaction_classic)["paper_id"]
        book_id = database.row(anecdotes.transaction_book)["paper_id"]
        attractiveness[classic_id] = 250.0
        attractiveness[book_id] = 150.0

    target_citations = int(len(random_paper_ids) * citations_per_paper)
    cum_weights = list(
        itertools.accumulate(attractiveness[p] for p in all_paper_ids)
    )
    for _ in range(target_citations):
        citing = rng.choice(random_paper_ids)
        cited = rng.choices(all_paper_ids, cum_weights=cum_weights)[0]
        builder.add_cites(citing, cited)

    anecdotes.writes_by_paper = {
        (builder.author_rids[a], builder.paper_rids[p]): rid
        for (a, p), rid in builder.writes_rids.items()
    }
    return database, anecdotes


def _weighted_sample(
    rng: random.Random,
    population: Sequence[str],
    cum_weights: Sequence[float],
    count: int,
) -> List[str]:
    """Sample ``count`` distinct items with replacement-then-dedup, in
    first-drawn order (a dict, not a set, so the order does not depend
    on the process's string hashing)."""
    chosen: Dict[str, None] = {}
    guard = 0
    while len(chosen) < count and guard < 50 * count:
        chosen[rng.choices(population, cum_weights=cum_weights)[0]] = None
        guard += 1
    return list(chosen)


def _plant_anecdotes(builder: _Builder, out: BibliographyAnecdotes) -> None:
    """Insert the Sec. 5.1 entities (before the random mass)."""
    db_paper_count = 0

    def planted_paper(title: str) -> str:
        nonlocal db_paper_count
        paper_id = f"A{db_paper_count:04d}"
        db_paper_count += 1
        builder.add_paper(paper_id, title)
        return paper_id

    # soumen sunita / byron — the Fig. 1(B) substructure.
    out.soumen = builder.add_author("SoumenC", "Soumen Chakrabarti")
    out.sunita = builder.add_author("SunitaS", "Sunita Sarawagi")
    out.byron = builder.add_author("ByronD", "Byron Dom")
    sd98 = "ChakrabartiSD98"
    builder.add_paper(
        sd98, "Mining Surprising Patterns Using Temporal Description Length"
    )
    out.chakrabarti_sd98 = builder.paper_rids[sd98]
    for author in ("SoumenC", "SunitaS", "ByronD"):
        builder.add_writes(author, sd98)
    second = planted_paper("Scalable Mining Of Sequential Rules")
    out.soumen_sunita_second_paper = builder.paper_rids[second]
    builder.add_writes("SoumenC", second)
    builder.add_writes("SunitaS", second)

    # mohan — prestige by writes-count.
    out.c_mohan = builder.add_author("CMohan", "C. Mohan")
    out.mohan_ahuja = builder.add_author("MohanA", "Mohan Ahuja")
    out.mohan_kamat = builder.add_author("MohanK", "Mohan Kamat")
    for number in range(18):
        paper_id = planted_paper(
            f"Recovery Method {number} For Write Ahead Logging"
        )
        builder.add_writes("CMohan", paper_id)
    for number in range(5):
        paper_id = planted_paper(f"Ordered Multicast Protocols Part {number}")
        builder.add_writes("MohanA", paper_id)
    for number in range(2):
        paper_id = planted_paper(f"Lock Manager Notes Volume {number}")
        builder.add_writes("MohanK", paper_id)

    # transaction — prestige by citations.
    out.gray = builder.add_author("JimGray", "Jim Gray")
    out.reuter = builder.add_author("AndreasR", "Andreas Reuter")
    classic = planted_paper("The Transaction Concept Virtues And Limitations")
    out.transaction_classic = builder.paper_rids[classic]
    builder.add_writes("JimGray", classic)
    book = planted_paper("Transaction Processing Concepts And Techniques")
    out.transaction_book = builder.paper_rids[book]
    builder.add_writes("JimGray", book)
    builder.add_writes("AndreasR", book)
    for number in range(4):
        minor = planted_paper(f"Nested Transaction Scheduling Study {number}")
        out.minor_transaction_papers.append(builder.paper_rids[minor])
        author_id = f"TxMinor{number}"
        builder.add_author(author_id, f"Taylor Minor{number}")
        builder.add_writes(author_id, minor)

    # seltzer sunita — common co-author Stonebraker, very prolific.
    out.seltzer = builder.add_author("MargoS", "Margo Seltzer")
    out.stonebraker = builder.add_author("MichaelSt", "Michael Stonebraker")
    with_seltzer = planted_paper("Logging Versus Soft Updates In File Systems")
    out.stonebraker_seltzer_paper = builder.paper_rids[with_seltzer]
    builder.add_writes("MargoS", with_seltzer)
    builder.add_writes("MichaelSt", with_seltzer)
    with_sunita = planted_paper("Integrating Mining With Object Stores")
    out.stonebraker_sunita_paper = builder.paper_rids[with_sunita]
    builder.add_writes("SunitaS", with_sunita)
    builder.add_writes("MichaelSt", with_sunita)
    for number in range(55):
        paper_id = planted_paper(f"Postgres Storage Notes Series {number}")
        builder.add_writes("MichaelSt", paper_id)

    # sudarshan — for the metadata query "author sudarshan".
    out.sudarshan = builder.add_author("SudarshanS", "S. Sudarshan")
    sudarshan_paper = planted_paper("Pipelining In Multi Query Optimization")
    builder.add_writes("SudarshanS", sudarshan_paper)


def _attach_anecdote_mass(
    builder: _Builder,
    anecdotes: BibliographyAnecdotes,
    random_author_ids: List[str],
    random_paper_ids: List[str],
) -> None:
    """Blend planted entities into the random mass so they are not
    isolated islands: random co-authors on planted papers and citation
    links both ways keep path structure realistic."""
    rng = builder.rng
    if not random_author_ids or not random_paper_ids:
        return
    # Give Stonebraker's and Mohan's papers occasional random co-authors.
    for author_id, paper_ids in list(builder.papers_of_author.items()):
        if author_id in ("MichaelSt", "CMohan"):
            for paper_id in paper_ids:
                if rng.random() < 0.30:
                    builder.add_writes(rng.choice(random_author_ids), paper_id)
    # One random paper each keeps the anecdote authors connected to the
    # rest of the graph without flooding the Seltzer/Sunita
    # neighbourhood with short junk paths.
    for author_id in ("SoumenC", "MargoS", "SudarshanS"):
        builder.add_writes(author_id, rng.choice(random_paper_ids))


#: Queries with real matches in the default dataset, used by the
#: serving and sharding benchmarks (multi-term heavy: single-keyword
#: queries over a prestige-flat table produce large tie groups whose
#: "top k" is not well defined for any incremental engine).
DEMO_QUERIES = (
    "soumen sunita",
    "transaction",
    "mining",
    "query optimization",
    "parallel database",
    "recovery",
    "soumen",
    "index concurrency",
    "temporal",
    "sunita mining",
    "distributed",
    "join",
)
