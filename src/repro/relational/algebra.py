"""Relational-algebra operators over materialised result sets.

The browsing subsystem of the paper (Sec. 4) exposes exactly these
operations as interactive controls: project columns away, impose
selections, join through a foreign key in either direction, group by a
column, sort, paginate.  Each operator here is a pure function from a
:class:`Relation` to a new :class:`Relation` so that a browsing session is
a composable chain of operator applications.

A :class:`Relation` is a *derived* result: a list of named columns plus a
list of value tuples, optionally remembering the provenance RID of each
source row so hyperlinks can still be generated after projection.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import BrowseError, UnknownColumnError
from repro.relational.database import Database, RID
from repro.relational.schema import ForeignKey
from repro.relational.table import Row, Table

#: Comparison operators accepted by :func:`select`.
COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class Relation:
    """A derived table: column names, rows, and per-row provenance.

    Attributes:
        columns: output column names, qualified (``"paper.title"``) when
            the relation is the result of a join.
        rows: value tuples, one per output row.
        provenance: for each row, the RIDs of the base-table tuples it was
            derived from (used by the browser to build hyperlinks).
    """

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    provenance: List[Tuple[RID, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.provenance:
            self.provenance = [() for _ in self.rows]
        if len(self.provenance) != len(self.rows):
            raise BrowseError("provenance length must match row count")

    def column_position(self, column_name: str) -> int:
        try:
            return self.columns.index(column_name)
        except ValueError:
            # Accept unqualified names when unambiguous.
            matches = [
                i
                for i, name in enumerate(self.columns)
                if name.split(".")[-1] == column_name
            ]
            if len(matches) == 1:
                return matches[0]
            raise UnknownColumnError("<derived>", column_name) from None

    def __len__(self) -> int:
        return len(self.rows)


def from_table(table: Table) -> Relation:
    """Lift a base table into a :class:`Relation`."""
    name = table.schema.name
    columns = [f"{name}.{c}" for c in table.schema.column_names]
    rows: List[Tuple[Any, ...]] = []
    provenance: List[Tuple[RID, ...]] = []
    for row in table.scan():
        rows.append(row.values)
        provenance.append(((name, row.rid),))
    return Relation(columns, rows, provenance)


def project(relation: Relation, keep: Sequence[str]) -> Relation:
    """Keep only the named columns (the browser's "drop column" control
    is ``project`` with the complement)."""
    positions = [relation.column_position(c) for c in keep]
    columns = [relation.columns[p] for p in positions]
    rows = [tuple(row[p] for p in positions) for row in relation.rows]
    return Relation(columns, rows, list(relation.provenance))


def drop_columns(relation: Relation, drop: Sequence[str]) -> Relation:
    """Project away the named columns."""
    drop_positions = {relation.column_position(c) for c in drop}
    keep = [
        name
        for i, name in enumerate(relation.columns)
        if i not in drop_positions
    ]
    return project(relation, keep)


def select(
    relation: Relation, column: str, comparator: str, value: Any
) -> Relation:
    """Filter rows by ``column <comparator> value``.

    NULLs never satisfy a comparison (SQL three-valued logic collapsed to
    "unknown is false").
    """
    if comparator not in COMPARATORS:
        raise BrowseError(f"unknown comparator: {comparator!r}")
    compare = COMPARATORS[comparator]
    position = relation.column_position(column)
    rows: List[Tuple[Any, ...]] = []
    provenance: List[Tuple[RID, ...]] = []
    for row, prov in zip(relation.rows, relation.provenance):
        cell = row[position]
        if cell is None:
            continue
        try:
            keep = compare(cell, value)
        except TypeError:
            keep = False
        if keep:
            rows.append(row)
            provenance.append(prov)
    return Relation(list(relation.columns), rows, provenance)


def join_fk(
    database: Database,
    relation: Relation,
    foreign_key: ForeignKey,
    reverse: bool = False,
) -> Relation:
    """Join the referenced (or, with ``reverse=True``, the referencing)
    table into ``relation`` along ``foreign_key``.

    This is the browser's one-click "join" control: for a foreign key
    column the referenced tuple's columns are appended; in reverse mode
    each row fans out to one output row per referencing tuple (rows with
    no referencing tuple disappear, i.e. an inner join, matching the
    paper's UI behaviour of showing referencing tuples).
    """
    if not reverse:
        other = database.table(foreign_key.target_table)
        key_positions = [
            relation.column_position(
                f"{foreign_key.source_table}.{c}"
            )
            for c in foreign_key.source_columns
        ]
        other_key_columns = foreign_key.target_columns
    else:
        other = database.table(foreign_key.source_table)
        key_positions = [
            relation.column_position(
                f"{foreign_key.target_table}.{c}"
            )
            for c in foreign_key.target_columns
        ]
        other_key_columns = foreign_key.source_columns

    # Hash the joined-in table on its key columns.
    other_positions = [
        other.schema.column_position(c) for c in other_key_columns
    ]
    buckets: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in other.scan():
        key = tuple(row.values[p] for p in other_positions)
        buckets.setdefault(key, []).append(row)

    other_name = other.schema.name
    columns = list(relation.columns) + [
        f"{other_name}.{c}" for c in other.schema.column_names
    ]
    rows: List[Tuple[Any, ...]] = []
    provenance: List[Tuple[RID, ...]] = []
    for row, prov in zip(relation.rows, relation.provenance):
        key = tuple(row[p] for p in key_positions)
        if any(part is None for part in key):
            continue
        for match in buckets.get(key, ()):
            rows.append(row + match.values)
            provenance.append(prov + ((other_name, match.rid),))
    return Relation(columns, rows, provenance)


def group_by(relation: Relation, column: str) -> "Grouping":
    """Group rows by the distinct values of ``column``.

    Mirrors the paper's group-by control: "only the distinct values for
    that column [are] displayed; the user can click on any of the values
    to see the tuples associated with that value".
    """
    position = relation.column_position(column)
    groups: Dict[Any, List[int]] = {}
    for i, row in enumerate(relation.rows):
        groups.setdefault(row[position], []).append(i)
    return Grouping(relation, column, groups)


@dataclass
class Grouping:
    """The result of :func:`group_by`: distinct values, expandable."""

    relation: Relation
    column: str
    _groups: Dict[Any, List[int]]

    def distinct_values(self) -> List[Any]:
        return list(self._groups)

    def count(self, value: Any) -> int:
        return len(self._groups.get(value, ()))

    def expand(self, value: Any) -> Relation:
        """The rows associated with one distinct value."""
        indexes = self._groups.get(value, [])
        return Relation(
            list(self.relation.columns),
            [self.relation.rows[i] for i in indexes],
            [self.relation.provenance[i] for i in indexes],
        )


class _NullsLast:
    """Sort key wrapper ordering NULLs after every non-null value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value


def sort_by(relation: Relation, column: str, descending: bool = False) -> Relation:
    """Stable sort by one column, NULLs last."""
    position = relation.column_position(column)
    order = sorted(
        range(len(relation.rows)),
        key=lambda i: _NullsLast(relation.rows[i][position]),
        reverse=descending,
    )
    return Relation(
        list(relation.columns),
        [relation.rows[i] for i in order],
        [relation.provenance[i] for i in order],
    )


def paginate(relation: Relation, page: int, page_size: int) -> Relation:
    """Slice out one page (pages are 1-based, as displayed to users)."""
    if page < 1 or page_size < 1:
        raise BrowseError("page and page_size must be >= 1")
    start = (page - 1) * page_size
    stop = start + page_size
    return Relation(
        list(relation.columns),
        relation.rows[start:stop],
        relation.provenance[start:stop],
    )


def page_count(relation: Relation, page_size: int) -> int:
    if page_size < 1:
        raise BrowseError("page_size must be >= 1")
    return max(1, -(-len(relation.rows) // page_size))


@dataclass
class Projection:
    """A reusable description of a column subset (kept for the template
    layer, which stores projections in the database)."""

    columns: Tuple[str, ...]

    def apply(self, relation: Relation) -> Relation:
        return project(relation, self.columns)
