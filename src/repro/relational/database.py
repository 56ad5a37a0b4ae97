"""The :class:`Database`: catalog + tables + referential integrity.

Beyond plain storage this layer maintains the *reverse reference index* —
for every tuple, which tuples reference it through which foreign key.
That index serves two masters:

* BANKS graph construction (:mod:`repro.core.model`) reads it to create
  backward edges and to compute the per-relation indegrees
  ``IN_{R}(v)`` that drive Eq. 1 edge weights and node prestige;
* the browsing subsystem uses it to offer "referencing tuples" links on
  every primary key (Sec. 4 of the paper).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cow import (
    CHUNK_MASK,
    CHUNK_SHIFT,
    MASK,
    PartitionedMap,
    by_slot,
    empty_parts,
)
from repro.errors import IntegrityError, TypeMismatchError, UnknownTableError
from repro.relational.schema import DatabaseSchema, ForeignKey, TableSchema
from repro.relational.table import Row, Table

# A fully-qualified row identifier: (table name, slot in that table's heap).
RID = Tuple[str, int]


class Database:
    """A named collection of :class:`Table` objects with FK enforcement.

    Foreign keys are checked on insert: referencing a primary key that
    does not (yet) exist raises :class:`IntegrityError` unless the
    database was created with ``deferred_fk_check=True``, in which case
    :meth:`check_integrity` validates everything at the end of loading
    (bulk loaders and the sqlite adapter use that mode since dumps are
    rarely topologically sorted).
    """

    def __init__(self, name: str = "db", deferred_fk_check: bool = False):
        self.name = name
        self.schema = DatabaseSchema()
        self._tables: Dict[str, Table] = {}
        self._deferred = deferred_fk_check
        # (target table, target rid) -> list of (fk, source table, source
        # rid); partitioned by the target's slot bits, like ``_indeg``.
        self._reverse_refs = PartitionedMap(by_slot)
        # target rid -> {source table: count}: the per-relation indegree
        # ``IN_{R}(v)`` of Eq. 1, maintained so :meth:`indegree_from` is
        # O(1) instead of scanning the (possibly huge, for hub tuples)
        # reverse-reference list.
        self._indeg = PartitionedMap(by_slot)
        # Targets whose reverse-ref list and indegree dict this version
        # made since its last fork, so owns privately and mutates in
        # place.  Any other target's list and dict may be shared with a
        # fork: a change copies both first and adds the target here.
        self._owned_refs: Set[RID] = set()
        # table name -> prepared FK resolution steps (see :meth:`_fk_plan`).
        # Derived purely from the schema, so forks share it; DDL rebinds
        # a fresh dict rather than clearing in place.
        self._fk_plans: Dict[str, List[Tuple[ForeignKey, str, Tuple[int, ...], Optional[Tuple[int, ...]]]]] = {}

    # -- copy-on-write forking ------------------------------------------------

    def fork(self) -> "Database":
        """A copy-on-write fork: same schema, shared row storage.

        Tables fork at chunk and partition granularity (see
        :meth:`Table.fork`); the reverse-reference and indegree maps
        are partitioned (:class:`~repro.cow.PartitionedMap`): a write
        copies the partitions it lands in, and a target's
        reverse-reference list and indegree dict are copied before their
        first change.  The fork and the original each see a fully
        consistent database; whichever side mutates first pays for
        exactly what it touches.  The snapshot store only ever
        mutates the newest fork.

        Cost: the table map, each table's chunk list and one list of
        partition references per map; the owned-target sets restart
        empty on both sides, so no set of keys is built.
        """
        child = Database.__new__(Database)
        child.name = self.name
        child.schema = self.schema  # DDL is fixed while serving
        child._deferred = self._deferred
        child._tables = {name: table.fork() for name, table in self._tables.items()}
        child._reverse_refs = self._reverse_refs.fork()
        child._owned_refs = set()
        self._owned_refs = set()
        child._indeg = self._indeg.fork()
        child._fk_plans = self._fk_plans  # schema-derived, DDL rebinds
        return child

    @classmethod
    def restore(
        cls,
        name: str,
        table_schemas: Sequence[TableSchema],
        heaps: Mapping[str, Sequence[Any]],
    ) -> "Database":
        """A database rebuilt from saved rows in one bulk pass.

        ``heaps`` maps every table to its saved heap (see
        :meth:`Table.restore`: one value sequence per RID, ``None`` for
        a tombstone, so RIDs survive).  Each table's rows are checked
        and its PK index built; then every foreign key is resolved,
        strictly, and the reverse-reference index and indegrees are
        rebuilt (:meth:`_index_references`).  Reverse-reference lists
        come back in table-major, RID order rather than write order.

        Raises :class:`SchemaError` when the schemas do not validate,
        :class:`IntegrityError` on anything else: a heap for an unknown
        table or a table without one, a bad row, a duplicate primary
        key or a dangling foreign key.
        """
        database = cls(name)
        database.create_tables(table_schemas)
        if set(heaps) != set(database._tables):
            raise IntegrityError(
                f"saved heaps {sorted(heaps)} do not match the schema's "
                f"tables {sorted(database._tables)}"
            )
        for table_name, heap in heaps.items():
            database._tables[table_name].restore(heap)
        database._index_references()
        return database

    # -- DDL ----------------------------------------------------------------

    def create_table(self, table_schema: TableSchema) -> Table:
        self.schema.add_table(table_schema)
        self.schema.validate()
        table = Table(table_schema)
        self._tables[table_schema.name] = table
        self._fk_plans = {}
        return table

    def create_tables(self, table_schemas: Sequence[TableSchema]) -> None:
        """Create several tables, validating foreign keys only after all
        are registered — required when declaration order does not follow
        reference order (sqlite dumps list tables alphabetically)."""
        for table_schema in table_schemas:
            self.schema.add_table(table_schema)
        self.schema.validate()
        for table_schema in table_schemas:
            self._tables[table_schema.name] = Table(table_schema)
        self._fk_plans = {}

    def drop_table(self, table_name: str) -> None:
        self.schema.drop_table(table_name)
        table = self._tables[table_name]
        # Forget while the table still resolves its own references.
        for row in table.scan():
            self._forget_references(table_name, row.rid, row.values)
        del self._tables[table_name]
        self._fk_plans = {}

    # -- access ---------------------------------------------------------------

    def table(self, table_name: str) -> Table:
        try:
            return self._tables[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def row(self, rid: RID) -> Row:
        table_name, slot = rid
        return self.table(table_name).row(slot)

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def all_rows(self) -> Iterator[Row]:
        for table in self._tables.values():
            yield from table.scan()

    # -- DML ----------------------------------------------------------------

    def insert(self, table_name: str, values: Sequence[Any]) -> RID:
        """Insert one tuple, enforce FKs, maintain the reverse index."""
        table = self.table(table_name)
        return self._referenced(table_name, table, table.insert(values))

    def insert_dict(self, table_name: str, mapping: Mapping[str, Any]) -> RID:
        table = self.table(table_name)
        return self._referenced(table_name, table, table.insert_dict(mapping))

    def _referenced(self, table_name: str, table: Table, slot: int) -> RID:
        """Record the references of the row just inserted at ``slot``,
        or tombstone it again when one does not resolve."""
        try:
            self._record_references(
                table_name, slot, table._heap[slot >> CHUNK_SHIFT][slot & CHUNK_MASK]
            )
        except IntegrityError:
            table.delete(slot)
            raise
        return (table_name, slot)

    def update(self, rid: RID, changes: Mapping[str, Any]) -> None:
        """Update columns of one tuple in place, preserving its RID.

        Foreign keys of the *new* tuple are validated (an update that
        would dangle a reference raises :class:`IntegrityError` and the
        tuple is restored); the reverse-reference index is maintained.
        Changing the primary key of a tuple that other tuples reference
        is refused — their foreign-key values would be orphaned — and so
        is changing a non-key column an inclusion dependency references
        it through.
        """
        table_name, slot = rid
        table = self.table(table_name)
        schema = table.schema
        for column_name in changes:
            schema.column_position(column_name)  # raises on unknown

        old_row = table.row(slot)
        old_values = old_row.values
        referrers = self._reverse_refs.get(rid)
        changed = {
            column for column in changes if changes[column] != old_row[column]
        }
        if referrers and changed:
            if changed.intersection(schema.primary_key):
                raise IntegrityError(
                    f"cannot change primary key of {rid}: referenced by "
                    f"{len(referrers)} tuple(s)"
                )
            for fk, _source_table, _source_rid in referrers:
                if changed.intersection(fk.target_columns):
                    raise IntegrityError(
                        f"cannot change {fk.target_columns} of {rid}: "
                        f"referenced via {fk.name}"
                    )

        new_values = [
            changes.get(name, old_values[position])
            for position, name in enumerate(schema.column_names)
        ]
        self._forget_references(table_name, slot, old_values)
        try:
            table.update(slot, new_values)
        except (IntegrityError, TypeMismatchError):
            self._record_references(table_name, slot, old_values)
            raise
        try:
            self._record_references(table_name, slot, table.values_at(slot))
        except IntegrityError:
            table.update(slot, list(old_values))
            self._record_references(table_name, slot, old_values)
            raise

    def delete(self, rid: RID) -> None:
        """Delete a tuple; refuse if other live tuples reference it."""
        if self._reverse_refs.get(rid):
            referrers = self._reverse_refs[rid]
            fk = referrers[0][0]
            raise IntegrityError(
                f"cannot delete {rid}: referenced by {len(referrers)} "
                f"tuple(s), e.g. via {fk.name}"
            )
        table_name, slot = rid
        table = self.table(table_name)
        self._forget_references(table_name, slot, table.values_at(slot))
        table.delete(slot)

    # -- referential machinery ------------------------------------------------

    def _record_references(
        self, table_name: str, slot: int, values: Sequence[Any]
    ) -> None:
        # Resolve every target before mutating the index so that a failing
        # FK leaves no partial entries behind.
        targets = self._resolve(self._fk_plan(table_name), values)
        refs, indeg, owned = self._reverse_refs, self._indeg, self._owned_refs
        ref_parts, indeg_parts = refs.parts, indeg.parts
        for fk, target in targets:
            i = target[1] & MASK
            entry = (fk, table_name, slot)
            if target in owned:
                # Made by this version since its last fork, so are its
                # partitions: append and count in place.
                ref_parts[i][target].append(entry)
                counts = indeg_parts[i][target]
                counts[table_name] = counts.get(table_name, 0) + 1
                continue
            # Possibly shared with a fork: copy the list and the counts.
            part = ref_parts[i] if refs.owned[i] else refs.own(i)
            part[target] = [*part.get(target, ()), entry]
            part = indeg_parts[i] if indeg.owned[i] else indeg.own(i)
            counts = dict(part.get(target, ()))
            counts[table_name] = counts.get(table_name, 0) + 1
            part[target] = counts
            owned.add(target)

    def _forget_references(
        self, table_name: str, slot: int, values: Sequence[Any]
    ) -> None:
        """Drop the entries of the row at ``slot`` holding ``values``
        from the reverse index.

        Each foreign key's target is resolved exactly as
        :meth:`_record_references` resolved it, and only that target's
        list and indegree entry are rebuilt; a NULL or deferred-missing
        target recorded nothing, so there is nothing to forget.  (A
        recorded target keeps its key: it can be neither deleted nor
        re-keyed while referenced, see :meth:`update`.)
        """
        refs = self._reverse_refs
        for fk, target in self._resolve(self._fk_plan(table_name), values):
            entries = refs.get(target)
            if not entries:
                continue
            kept = [
                e
                for e in entries
                if not (e[0] is fk and e[1] == table_name and e[2] == slot)
            ]
            dropped = len(entries) - len(kept)
            if not dropped:
                continue
            if kept:
                refs[target] = kept
                self._owned_refs.add(target)
            else:
                del refs[target]
                self._owned_refs.discard(target)
            counts = dict(self._indeg.get(target, ()))
            remaining = counts.get(table_name, 0) - dropped
            if remaining > 0:
                counts[table_name] = remaining
            else:
                counts.pop(table_name, None)
            if counts:
                self._indeg[target] = counts
            else:
                self._indeg.pop(target, None)

    # -- reference queries ------------------------------------------------------

    def _fk_plan(
        self, table_name: str
    ) -> List[Tuple[ForeignKey, str, Tuple[int, ...], Optional[Tuple[int, ...]]]]:
        """Prepared FK resolution steps for ``table_name``:
        ``(fk, target table, source positions, target positions)`` with
        ``target positions = None`` meaning a PK hash probe.  Purely
        schema-derived, cached until DDL — Eq. 1 re-weighing resolves
        references once per affected edge, so per-call schema walks
        (column positions, PK comparisons) dominate without this.
        """
        plan = self._fk_plans.get(table_name)
        if plan is None:
            schema = self.table(table_name).schema
            plan = []
            for fk in schema.foreign_keys:
                source_positions = tuple(
                    schema.column_position(c) for c in fk.source_columns
                )
                target_schema = self.table(fk.target_table).schema
                if tuple(target_schema.primary_key) == tuple(fk.target_columns):
                    target_positions = None
                else:
                    target_positions = tuple(
                        target_schema.column_position(c)
                        for c in fk.target_columns
                    )
                plan.append(
                    (fk, fk.target_table, source_positions, target_positions)
                )
            self._fk_plans[table_name] = plan
        return plan

    def references_of(self, rid: RID) -> List[Tuple[ForeignKey, RID]]:
        """Outgoing references: tuples that ``rid`` points to."""
        table_name, slot = rid
        plan = self._fk_plans.get(table_name)
        if plan is None:
            plan = self._fk_plan(table_name)
        if not plan:
            return []
        return self._resolve(plan, self._tables[table_name].values_at(slot))

    def _resolve(
        self, plan, values: Sequence[Any]
    ) -> List[Tuple[ForeignKey, RID]]:
        """``(fk, target)`` for each foreign key of a row holding
        ``values``, following its table's :meth:`_fk_plan` — the one
        resolution that recording, forgetting and :meth:`references_of`
        share.  NULL keys reference nothing; a missing target raises
        :class:`IntegrityError`, or is skipped in a deferred database."""
        out: List[Tuple[ForeignKey, RID]] = []
        tables = self._tables
        for fk, target_name, source_positions, target_positions in plan:
            if len(source_positions) == 1:
                key = (values[source_positions[0]],)
                if key[0] is None:
                    continue  # NULL foreign keys reference nothing
            else:
                key = tuple([values[p] for p in source_positions])
                if None in key:
                    continue
            if target_positions is None:
                # The PK index itself: an FK's target key is never empty.
                parts = tables[target_name]._pk_index.parts
                target_rid = parts[hash(key) & MASK].get(key)
            else:
                # Non-PK inclusion dependency: scan for the first match.
                target_rid = None
                for candidate in tables[target_name].scan():
                    if (
                        tuple(candidate.values[p] for p in target_positions)
                        == key
                    ):
                        target_rid = candidate.rid
                        break
            if target_rid is None:
                if self._deferred:
                    continue
                raise IntegrityError(
                    f"foreign key violation: {fk.name} has no target "
                    f"for {key!r}"
                )
            out.append((fk, (target_name, target_rid)))
        return out

    def reference_steps(
        self, table_name: str
    ) -> List[Tuple[ForeignKey, Tuple[int, ...], List[Dict[Any, int]]]]:
        """``(fk, source positions, parts)`` per foreign key of
        ``table_name``: a row's key ``k`` (its source values) targets
        slot ``parts[hash(k) & MASK].get(k)`` — a probe of the PK index,
        or of a map to each key's first row for a non-PK target, as
        :meth:`_resolve` finds it.  For walks over every row."""
        steps = []
        plan = self._fk_plan(table_name)
        for fk, target_name, source_positions, target_positions in plan:
            target = self._tables[target_name]
            if target_positions is None:
                parts = target._pk_index.parts
            else:
                parts = empty_parts()
                for slot, values in enumerate(chain.from_iterable(target._heap)):
                    if values is not None:
                        key = tuple([values[p] for p in target_positions])
                        parts[hash(key) & MASK].setdefault(key, slot)
            steps.append((fk, source_positions, parts))
        return steps

    def referencing(self, rid: RID) -> List[Tuple[ForeignKey, RID]]:
        """Incoming references: tuples that point to ``rid``."""
        return [
            (fk, (source_table, source_rid))
            for fk, source_table, source_rid in self._reverse_refs.get(rid, ())
        ]

    def referrer_nodes(self, rid: RID) -> List[RID]:
        """The tuples that point to ``rid``, without the FK detail —
        :meth:`referencing` minus the per-entry tuple packing, for the
        Eq. 1 re-weigh sweep that only needs the neighbour identities.
        A tuple referencing ``rid`` through several FKs appears once
        per reference; callers that need distinct nodes deduplicate.
        """
        return [
            (source_table, source_rid)
            for _fk, source_table, source_rid in self._reverse_refs.get(rid, ())
        ]

    def indegree(self, rid: RID) -> int:
        """Total number of tuples referencing ``rid`` — node prestige."""
        return len(self._reverse_refs.parts[rid[1] & MASK].get(rid, ()))

    def indegree_from(self, rid: RID, source_table: str) -> int:
        """Indegree of ``rid`` contributed by tuples of ``source_table``
        (the ``IN_{R}(v)`` quantity of the paper's Eq. 1).

        O(1): read from the maintained per-relation counters rather
        than scanning the reverse-reference list — on hub tuples of a
        bulk-ingested graph that list holds thousands of entries and
        Eq. 1 re-weighing reads this once per affected edge.
        """
        counts = self._indeg.parts[rid[1] & MASK].get(rid)
        if not counts:
            return 0
        return counts.get(source_table, 0)

    def check_integrity(self) -> None:
        """Re-validate every foreign key (for deferred-check loading).

        After a successful check the reverse-reference index is rebuilt,
        so deferred databases become fully queryable; a failed one
        leaves the database deferred and its index as it was.
        """
        self.schema.validate()
        was_deferred = self._deferred
        self._deferred = False
        try:
            self._index_references()
        except IntegrityError:
            self._deferred = was_deferred
            raise

    def _index_references(self) -> None:
        """Rebuild the reverse-reference index and the indegrees from
        every live row in one pass — the bulk counterpart of
        :meth:`_record_references`, sharing its :meth:`_resolve`.  The
        new maps replace the old ones only when every reference
        resolved, so a failure leaves the database untouched."""
        ref_parts = empty_parts()
        indeg_parts = empty_parts()
        resolve = self._resolve
        for table_name, table in self._tables.items():
            plan = self._fk_plan(table_name)
            if not plan:
                continue
            for slot, values in enumerate(chain.from_iterable(table._heap)):
                if values is None:
                    continue
                for fk, target in resolve(plan, values):
                    i = target[1] & MASK
                    entries = ref_parts[i].get(target)
                    if entries is None:
                        ref_parts[i][target] = [(fk, table_name, slot)]
                    else:
                        entries.append((fk, table_name, slot))
                    counts = indeg_parts[i].get(target)
                    if counts is None:
                        indeg_parts[i][target] = {table_name: 1}
                    else:
                        counts[table_name] = counts.get(table_name, 0) + 1
        self._reverse_refs = PartitionedMap(by_slot, ref_parts)
        self._owned_refs = set()
        self._indeg = PartitionedMap(by_slot, indeg_parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{name}({len(table)})" for name, table in self._tables.items()
        )
        return f"Database({self.name}: {parts})"
