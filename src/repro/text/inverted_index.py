"""In-memory inverted index over a relational database.

Maps every normalised token to its *postings*: the tuples whose text
attributes contain the token, plus metadata postings.  Metadata matching
follows the paper exactly: *"A node is relevant to a search term if it
contains the search term as part of an attribute value or metadata (such
as column, table or view names).  E.g., all tuples belonging to a
relation named AUTHOR would be regarded as relevant to the keyword
'author'."*

Data postings are stored per (table, rid, column); metadata matches are
resolved lazily at lookup time (expanding "every tuple of table X" into
RIDs only when a query actually asks for it — they can be huge, which is
the very problem Sec. 7 discusses).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.cow import MASK, PartitionedMap, empty_parts
from repro.errors import IndexError_
from repro.relational.database import Database, RID
from repro.text.tokenizer import normalize, tokenize, tokenize_identifier


@dataclass(frozen=True)
class Posting:
    """One occurrence of a token: which tuple, which column."""

    table: str
    rid: int
    column: str

    @property
    def node(self) -> RID:
        return (self.table, self.rid)


def _key_columns(schema) -> Set[str]:
    """Columns of ``schema`` that serve as connection identifiers."""
    columns: Set[str] = set(schema.primary_key)
    for fk in schema.foreign_keys:
        columns.update(fk.source_columns)
    return columns


class InvertedIndex:
    """Token -> postings over data values and schema metadata.

    Build once per database (:meth:`build` or the constructor), then
    :meth:`lookup` returns data postings and :meth:`lookup_nodes` the
    combined set of graph nodes relevant to a term, optionally including
    metadata expansion.

    By default, columns that participate in a primary key or a foreign
    key are *not* indexed: they hold connection identifiers, not
    content, and the paper's own example (Fig. 1B) treats the author
    tuples — not the ``Writes`` tuples carrying the same id strings — as
    the keyword nodes.  Pass ``index_key_columns=True`` to index them
    anyway.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        index_key_columns: bool = False,
    ):
        self.index_key_columns = index_key_columns
        # token -> postings, partitioned by the token's hash
        self._postings = PartitionedMap()
        # token -> tables whose *name* matches it
        self._table_meta: Dict[str, Set[str]] = {}
        # token -> (table, column) pairs whose column name matches it
        self._column_meta: Dict[str, Set[Tuple[str, str]]] = {}
        self._database: Optional[Database] = None
        # Postings lists this version has copied since its last fork,
        # so owns privately; any other list may be shared with a fork
        # and is copied before its first append.
        self._owned_tokens: Set[str] = set()
        if database is not None:
            self.build(database)

    # -- construction -------------------------------------------------------

    def build(self, database: Database) -> None:
        """(Re)index every table of ``database``."""
        self._table_meta.clear()
        self._column_meta.clear()
        self._owned_tokens.clear()
        self._database = database
        parts = empty_parts()

        for table in database.tables():
            schema = table.schema
            for token in tokenize_identifier(schema.name):
                self._table_meta.setdefault(token, set()).add(schema.name)
            for column in schema.columns:
                for token in tokenize_identifier(column.name):
                    self._column_meta.setdefault(token, set()).add(
                        (schema.name, column.name)
                    )

            text_columns = [
                (schema.column_position(c.name), c.name)
                for c in schema.text_columns()
                if self.index_key_columns
                or c.name not in _key_columns(schema)
            ]
            if not text_columns:
                continue
            # One posting per (row, column), shared by its value's tokens.
            name = schema.name
            for rid, values in enumerate(chain.from_iterable(table._heap)):
                if values is None:
                    continue
                for position, column_name in text_columns:
                    value = values[position]
                    if value is None:
                        continue
                    posting = Posting(name, rid, column_name)
                    for token in tokenize(value):
                        part = parts[hash(token) & MASK]
                        postings = part.get(token)
                        if postings is None:
                            part[token] = [posting]
                        else:
                            postings.append(posting)
        self._postings = PartitionedMap(parts=parts)

    def add_row(self, table: str, rid: int) -> Tuple[str, ...]:
        """Index one newly inserted row (incremental maintenance);
        returns the tokens that gained a posting."""
        if self._database is None:
            raise IndexError_("index not built yet")
        table_obj = self._database.table(table)
        row = table_obj.row(rid)
        key_columns = (
            set() if self.index_key_columns else _key_columns(table_obj.schema)
        )
        postings = self._postings
        owned = self._owned_tokens
        added: List[str] = []
        for column in table_obj.schema.text_columns():
            if column.name in key_columns:
                continue
            value = row[column.name]
            if value is None:
                continue
            for token in tokenize(value):
                posting = Posting(table, rid, column.name)
                if token in owned:
                    postings[token].append(posting)
                else:
                    # Possibly shared with a fork: copy before the
                    # first append.
                    postings[token] = [*postings.get(token, ()), posting]
                    owned.add(token)
                added.append(token)
        return tuple(added)

    def remove_row(self, table: str, rid: int) -> Tuple[str, ...]:
        """Drop the postings of one row (call *before* deleting or
        updating the row — the tokens are derived from its current
        values); returns the tokens that lost a posting."""
        if self._database is None:
            raise IndexError_("index not built yet")
        table_obj = self._database.table(table)
        row = table_obj.row(rid)
        key_columns = (
            set() if self.index_key_columns else _key_columns(table_obj.schema)
        )
        removed: List[str] = []
        for column in table_obj.schema.text_columns():
            if column.name in key_columns:
                continue
            value = row[column.name]
            if value is None:
                continue
            for token in tokenize(value):
                postings = self._postings.get(token)
                if not postings:
                    continue
                kept = [
                    posting
                    for posting in postings
                    if not (posting.table == table and posting.rid == rid)
                ]
                if len(kept) != len(postings):
                    removed.append(token)
                if kept:
                    self._postings[token] = kept
                    self._owned_tokens.add(token)
                else:
                    del self._postings[token]
                    self._owned_tokens.discard(token)
        return tuple(removed)

    def fork(self, database: Optional[Database] = None) -> "InvertedIndex":
        """A copy-on-write fork sharing every postings list.

        ``database`` rebinds the fork to (typically) a fork of the
        database, so incremental maintenance reads the right rows.
        Postings lists are copied only when a mutation appends to them
        (removal already replaces lists wholesale); metadata tables
        describe the schema, which is fixed while serving, and stay
        shared outright.  Cost: one list of partition references (a
        write copies the partitions it lands in, see
        :class:`~repro.cow.PartitionedMap`); the owned-list sets
        restart empty on both sides.
        """
        child = InvertedIndex.__new__(InvertedIndex)
        child.index_key_columns = self.index_key_columns
        child._database = database if database is not None else self._database
        child._table_meta = self._table_meta
        child._column_meta = self._column_meta
        child._postings = self._postings.fork()
        child._owned_tokens = set()
        self._owned_tokens = set()
        return child

    def split(self, owners: Sequence[AbstractSet[RID]]) -> List["InvertedIndex"]:
        """One index per node set, holding only the postings of its
        nodes, made in one pass over the postings.

        The shard layer partitions the keyword index this way: each
        shard keeps the postings of its own tuples, so the union of
        per-shard lookups equals a full-index lookup and no shard pays
        for another shard's vocabulary.  The sets are disjoint.  Metadata
        tables (name matches) are shared — they describe the schema,
        which every shard sees.
        """
        owner: Dict[RID, int] = {}
        for shard, nodes in enumerate(owners):
            owner.update(dict.fromkeys(nodes, shard))
        shard_of = owner.get
        parts = [empty_parts() for _ in owners]
        for token, postings in self._postings.items():
            kept: List[List[Posting]] = [[] for _ in owners]
            for posting in postings:
                shard = shard_of((posting.table, posting.rid))
                if shard is not None:
                    kept[shard].append(posting)
            part = hash(token) & MASK
            for shard, owned in enumerate(kept):
                if owned:
                    parts[shard][part][token] = owned
        slices = []
        for shard_parts in parts:
            sub = InvertedIndex(index_key_columns=self.index_key_columns)
            sub._database = self._database
            sub._table_meta = self._table_meta
            sub._column_meta = self._column_meta
            sub._postings = PartitionedMap(parts=shard_parts)
            slices.append(sub)
        return slices

    # -- lookup ------------------------------------------------------------

    def lookup(self, term: str) -> List[Posting]:
        """Data postings for a term (no metadata expansion)."""
        token = normalize(term)
        return list(self._postings.parts[hash(token) & MASK].get(token, ()))

    def lookup_column(self, term: str, table: str, column: str) -> List[Posting]:
        """Postings for ``term`` restricted to one table column —
        the machinery behind ``attribute:keyword`` queries."""
        return [
            posting
            for posting in self._postings.get(normalize(term), ())
            if posting.table == table and posting.column == column
        ]

    def matching_tables(self, term: str) -> Set[str]:
        """Tables whose *name* matches the term."""
        return set(self._table_meta.get(normalize(term), ()))

    def matching_columns(self, term: str) -> Set[Tuple[str, str]]:
        """(table, column) pairs whose column name matches the term."""
        return set(self._column_meta.get(normalize(term), ()))

    def lookup_nodes(
        self, term: str, include_metadata: bool = True
    ) -> Set[RID]:
        """All graph nodes relevant to ``term``.

        Data postings always contribute; with ``include_metadata`` every
        tuple of a name-matching table, and every tuple with a non-null
        value in a name-matching column, contributes too.
        """
        nodes: Set[RID] = {posting.node for posting in self.lookup(term)}
        if not include_metadata or self._database is None:
            return nodes
        for table_name in self.matching_tables(term):
            table = self._database.table(table_name)
            nodes.update((table_name, rid) for rid in table.rids())
        for table_name, column_name in self.matching_columns(term):
            table = self._database.table(table_name)
            position = table.schema.column_position(column_name)
            for row in table.scan():
                if row.values[position] is not None:
                    nodes.add((table_name, row.rid))
        return nodes

    # -- introspection ------------------------------------------------------

    def vocabulary(self) -> List[str]:
        """Every indexed token, sorted (used by fuzzy matching)."""
        return sorted(self._postings)

    def document_frequency(self, term: str) -> int:
        """Number of distinct tuples containing ``term`` (the
        term's selectivity)."""
        return len({p.node for p in self._postings.get(normalize(term), ())})

    def __contains__(self, term: str) -> bool:
        return normalize(term) in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InvertedIndex({len(self._postings)} terms)"
