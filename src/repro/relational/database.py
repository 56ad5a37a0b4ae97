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

from array import array
from collections import Counter
from itertools import accumulate, chain
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cow import CHUNK_MASK, CHUNK_SHIFT, MASK, PartitionedMap, by_slot
from repro.errors import (
    IntegrityError,
    SchemaError,
    TypeMismatchError,
    UnknownTableError,
)
from repro.relational.schema import DatabaseSchema, ForeignKey, TableSchema
from repro.relational.table import Row, Table

# A fully-qualified row identifier: (table name, slot in that table's heap).
RID = Tuple[str, int]
# One foreign key's resolution step (see :meth:`Database._fk_plan`).
FkStep = Tuple[ForeignKey, str, Tuple[int, ...], Optional[Tuple[int, ...]], int]


#: Low bits of a packed reverse reference that hold its foreign key's
#: code (see :class:`Referrers`); the source slot sits above them.
CODE_BITS = 16
CODE_MASK = (1 << CODE_BITS) - 1


class Referrers(NamedTuple):
    """One target table's reverse references, frozen in arrays.

    Target slot ``s``'s references are ``entries[offsets[s]:offsets[s +
    1]]``, each packed as ``source slot << CODE_BITS | code``, where
    ``code`` indexes the database's registry of foreign keys (a foreign
    key names its source table).  ``counts[source table][s]`` is how
    many of them come from that table: ``IN_{R}(v)`` of Eq. 1, in O(1)
    on hub tuples.  Slots past ``len(offsets) - 1`` have none.
    """

    offsets: array
    entries: array
    counts: Dict[str, array]


def _lay_referrers(
    table_name: str, size: int, log: array, registry: List[ForeignKey]
) -> Referrers:
    """The :class:`Referrers` of target table ``table_name`` of ``size``
    slots from its load log (``target slot, packed entry`` pairs, in
    write order), in one stable pass: each target keeps its order."""
    targets, packed = log[0::2], log[1::2]
    degree = [0] * (size + 1)
    for slot, count in Counter(targets).items():
        degree[slot + 1] = count
    offsets = array("q", accumulate(degree))
    cursor = array("q", offsets)
    entries = array("q", bytes(8 * len(packed)))
    counts = {
        fk.source_table: array("q", bytes(8 * size))
        for fk in registry
        if fk.target_table == table_name
    }
    count_of = [counts.get(fk.source_table) for fk in registry]
    for slot, entry in zip(targets, packed):
        at = cursor[slot]
        entries[at] = entry
        cursor[slot] = at + 1
        count_of[entry & CODE_MASK][slot] += 1
    return Referrers(offsets, entries, {n: c for n, c in counts.items() if any(c)})


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
        # The reverse-reference index (target -> the references to it)
        # and the indegrees, in three layers.  While this database has
        # never been forked or read in reverse, an insert only appends
        # ``target slot, packed entry`` to its target table's load log.
        # The first reverse read or fork lays every log out as the
        # table's frozen :class:`Referrers` base (``None`` here from
        # then on); :meth:`restore` and :meth:`check_integrity` lay the
        # base straight from the rows.
        self._log: Optional[Dict[str, array]] = {}
        # target table -> its frozen base; forks share it, nothing
        # mutates it, DDL rebinds a new dict.
        self._base: Dict[str, Referrers] = {}
        # After the base exists, a write gives each target it touches a
        # whole entry array and ``{source table: count}`` dict in these
        # overlays, which hide that target's base.  Partitioned by the
        # target's slot bits, copied per partition after a fork.
        self._reverse_refs = PartitionedMap(by_slot)
        self._indeg = PartitionedMap(by_slot)
        # Targets whose overlay array and dict this version made since
        # its last fork, so owns privately and mutates in place.  Any
        # other target's may be shared with a fork: a change copies
        # both first and adds the target here.
        self._owned_refs: Set[RID] = set()
        # The foreign-key registry: a packed entry's code indexes it.
        # Appended to at DDL, never reordered, so codes stay valid;
        # DDL rebinds both, so forks share them.
        self._fks: List[ForeignKey] = []
        self._codes: Dict[ForeignKey, int] = {}
        # table name -> prepared FK resolution steps (see :meth:`_fk_plan`).
        # Derived purely from the schema, so forks share it; DDL rebinds
        # a fresh dict rather than clearing in place.
        self._fk_plans: Dict[str, List[FkStep]] = {}

    # -- copy-on-write forking ------------------------------------------------

    def fork(self) -> "Database":
        """A copy-on-write fork: same schema, shared row storage.

        Tables fork at chunk and partition granularity (see
        :meth:`Table.fork`).  The reverse-reference base is laid first
        if it is not yet, then shared as it is: nothing writes it.  The
        overlays are partitioned (:class:`~repro.cow.PartitionedMap`):
        a write copies the partitions it lands in, and a target's
        overlay array and indegree dict are copied before their first
        change.  The fork and the original each see a fully consistent
        database; whichever side mutates first pays for exactly what it
        touches.  The snapshot store only ever mutates the newest fork.

        Cost: the table map, each table's chunk list and one list of
        partition references per map; the owned-target sets restart
        empty on both sides, so no set of keys is built.
        """
        self._lay()
        child = Database.__new__(Database)
        child.name = self.name
        child.schema = self.schema  # DDL is fixed while serving
        child._deferred = self._deferred
        child._tables = {name: table.fork() for name, table in self._tables.items()}
        child._log = None
        child._base = self._base
        child._reverse_refs = self._reverse_refs.fork()
        child._indeg = self._indeg.fork()
        child._owned_refs = set()
        self._owned_refs = set()
        child._fks = self._fks
        child._codes = self._codes
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
        strictly, and the reverse-reference base laid from the rows
        (:meth:`_index_references`).  Reverse-reference lists come back
        in table-major, RID order rather than write order.

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
        self._register(table_schema)
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
            self._register(table_schema)

    def _register(self, table_schema: TableSchema) -> None:
        """Give each new foreign key of ``table_schema`` its code."""
        fks, codes = list(self._fks), dict(self._codes)
        for fk in table_schema.foreign_keys:
            if fk not in codes:
                codes[fk] = len(fks)
                fks.append(fk)
        if len(fks) > CODE_MASK + 1:
            raise SchemaError(f"more than {CODE_MASK + 1} foreign keys")
        self._fks, self._codes = fks, codes
        self._fk_plans = {}

    def drop_table(self, table_name: str) -> None:
        self.schema.drop_table(table_name)
        table = self._tables[table_name]
        # Forget while the table still resolves its own references.
        for row in table.scan():
            self._forget_references(table_name, row.rid, row.values)
        self._lay()
        del self._tables[table_name]
        self._base = {
            name: base for name, base in self._base.items() if name != table_name
        }
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
        referrers = self._entries(rid)
        changed = {
            column for column in changes if changes[column] != old_row[column]
        }
        if referrers and changed:
            if changed.intersection(schema.primary_key):
                raise IntegrityError(
                    f"cannot change primary key of {rid}: referenced by "
                    f"{len(referrers)} tuple(s)"
                )
            for entry in referrers:
                fk = self._fks[entry & CODE_MASK]
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
        referrers = self._entries(rid)
        if referrers:
            fk = self._fks[referrers[0] & CODE_MASK]
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
        found = self._resolve(self._fk_plan(table_name), values)
        log = self._log
        if log is not None:
            for step, target_slot in found:
                entries = log.get(step[1])
                if entries is None:
                    entries = log[step[1]] = array("q")
                entries.append(target_slot)
                entries.append(slot << CODE_BITS | step[4])
            return
        for step, target_slot in found:
            entries, counts = self._own_target((step[1], target_slot))
            entries.append(slot << CODE_BITS | step[4])
            counts[table_name] = counts.get(table_name, 0) + 1

    def _forget_references(
        self, table_name: str, slot: int, values: Sequence[Any]
    ) -> None:
        """Drop the entries of the row at ``slot`` holding ``values``
        from the reverse index.

        Each foreign key's target is resolved exactly as
        :meth:`_record_references` resolved it, and only that target's
        entries and counts are rewritten; a NULL or deferred-missing
        target recorded nothing, so there is nothing to forget.  (A
        recorded target keeps its key: it can be neither deleted nor
        re-keyed while referenced, see :meth:`update`.)
        """
        for step, target_slot in self._resolve(self._fk_plan(table_name), values):
            target = (step[1], target_slot)
            entry = slot << CODE_BITS | step[4]
            if entry not in self._entries(target):
                continue
            # A row references a target once per foreign key: one entry.
            entries, counts = self._own_target(target)
            entries.remove(entry)
            counts[table_name] -= 1
            if not counts[table_name]:
                del counts[table_name]
            if not entries and not self._base_entries(target):
                # Nothing left to hide: the target leaves the overlay.
                del self._reverse_refs[target]
                del self._indeg[target]
                self._owned_refs.discard(target)

    def _own_target(self, target: RID) -> Tuple[array, Dict[str, int]]:
        """``target``'s overlay entries and counts, private to this
        version: copied from the overlay or the base first unless this
        version made them since its last fork."""
        refs, indeg = self._reverse_refs, self._indeg
        i = target[1] & MASK
        if target in self._owned_refs:
            return refs.parts[i][target], indeg.parts[i][target]
        shared = refs.parts[i].get(target)
        if shared is not None:
            entries, counts = array("q", shared), dict(indeg.parts[i][target])
        else:
            entries = self._base_entries(target)
            base, slot = self._base.get(target[0]), target[1]
            counts = {
                source: column[slot]
                for source, column in (base.counts.items() if base else ())
                if slot < len(column) and column[slot]
            }
        refs.own(i)[target] = entries
        indeg.own(i)[target] = counts
        self._owned_refs.add(target)
        return entries, counts

    def _lay(self) -> None:
        """Lay the load log out as the frozen base (see ``__init__``).
        Readers may race here: each lays the same base from the same
        log, and the log goes only once the base is in place."""
        log = self._log
        if log is not None:
            tables, fks = self._tables, self._fks
            self._base = {
                name: _lay_referrers(name, tables[name]._slots, entries, fks)
                for name, entries in log.items()
            }
            self._log = None

    def _base_entries(self, target: RID) -> array:
        """A copy of ``target``'s entries in the base (empty past its
        end)."""
        self._lay()
        base = self._base.get(target[0])
        slot = target[1]
        if base is None or slot + 1 >= len(base.offsets):
            return array("q")
        offsets = base.offsets
        return base.entries[offsets[slot] : offsets[slot + 1]]

    def _entries(self, target: RID) -> array:
        """``target``'s packed reverse references, in order."""
        entries = self._reverse_refs.parts[target[1] & MASK].get(target)
        if entries is None:
            return self._base_entries(target)
        return entries

    # -- reference queries ------------------------------------------------------

    def _fk_plan(self, table_name: str) -> List[FkStep]:
        """Prepared FK resolution steps for ``table_name``:
        ``(fk, target table, source positions, target positions, code)``
        with ``target positions = None`` meaning a PK hash probe and
        ``code`` the foreign key's registry code.  Purely
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
                    (
                        fk,
                        fk.target_table,
                        source_positions,
                        target_positions,
                        self._codes[fk],
                    )
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
        return [
            (step[0], (step[1], target_slot))
            for step, target_slot in self._resolve(
                plan, self._tables[table_name].values_at(slot)
            )
        ]

    def _resolve(
        self, plan: List[FkStep], values: Sequence[Any]
    ) -> List[Tuple[FkStep, int]]:
        """``(plan step, target slot)`` for each foreign key of a row
        holding ``values``, following its table's :meth:`_fk_plan` — the
        one resolution that recording, forgetting and
        :meth:`references_of` share.  NULL keys reference nothing; a
        missing target raises :class:`IntegrityError`, or is skipped in
        a deferred database."""
        out: List[Tuple[FkStep, int]] = []
        tables = self._tables
        for step in plan:
            _fk, target_name, source_positions, target_positions, _code = step
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
            else:
                # Non-PK inclusion dependency: the key's first live row.
                parts = tables[target_name].key_index(target_positions).parts
            target_slot = parts[hash(key) & MASK].get(key)
            if target_slot is None:
                if self._deferred:
                    continue
                raise IntegrityError(
                    f"foreign key violation: {step[0].name} has no target "
                    f"for {key!r}"
                )
            out.append((step, target_slot))
        return out

    def reference_steps(
        self, table_name: str
    ) -> List[Tuple[ForeignKey, Tuple[int, ...], List[Dict[Any, int]]]]:
        """``(fk, source positions, parts)`` per foreign key of
        ``table_name``: a row's key ``k`` (its source values) targets
        slot ``parts[hash(k) & MASK].get(k)`` — a probe of the PK index,
        or of :meth:`Table.key_index` for a non-PK target, as
        :meth:`_resolve` finds it.  For walks over every row."""
        steps = []
        for fk, target_name, source_positions, target_positions, _code in (
            self._fk_plan(table_name)
        ):
            target = self._tables[target_name]
            if target_positions is None:
                parts = target._pk_index.parts
            else:
                parts = target.key_index(target_positions).parts
            steps.append((fk, source_positions, parts))
        return steps

    def referencing(self, rid: RID) -> List[Tuple[ForeignKey, RID]]:
        """Incoming references: tuples that point to ``rid``."""
        fks = self._fks
        out = []
        for entry in self._entries(rid):
            fk = fks[entry & CODE_MASK]
            out.append((fk, (fk.source_table, entry >> CODE_BITS)))
        return out

    def referrer_nodes(self, rid: RID) -> List[RID]:
        """The tuples that point to ``rid``, without the FK detail —
        :meth:`referencing` minus the per-entry pair, for the Eq. 1
        re-weigh sweep that only needs the neighbour identities.  A
        tuple referencing ``rid`` through several FKs appears once per
        reference; callers that need distinct nodes deduplicate.
        """
        fks = self._fks
        return [
            (fks[entry & CODE_MASK].source_table, entry >> CODE_BITS)
            for entry in self._entries(rid)
        ]

    def indegree(self, rid: RID) -> int:
        """Total number of tuples referencing ``rid`` — node prestige."""
        entries = self._reverse_refs.parts[rid[1] & MASK].get(rid)
        if entries is not None:
            return len(entries)
        if self._log is not None:
            self._lay()
        base = self._base.get(rid[0])
        slot = rid[1]
        if base is None or slot + 1 >= len(base.offsets):
            return 0
        return base.offsets[slot + 1] - base.offsets[slot]

    def indegree_from(self, rid: RID, source_table: str) -> int:
        """Indegree of ``rid`` contributed by tuples of ``source_table``
        (the ``IN_{R}(v)`` quantity of the paper's Eq. 1).

        O(1): read from the per-relation counters rather than scanning
        the reverse references — on hub tuples of a bulk-ingested graph
        they number thousands and Eq. 1 re-weighing reads this once per
        affected edge.
        """
        counts = self._indeg.parts[rid[1] & MASK].get(rid)
        if counts is not None:
            return counts.get(source_table, 0)
        if self._log is not None:
            self._lay()
        base = self._base.get(rid[0])
        if base is None:
            return 0
        column = base.counts.get(source_table)
        slot = rid[1]
        if column is None or slot >= len(column):
            return 0
        return column[slot]

    def check_integrity(self) -> None:
        """Re-validate every foreign key (for deferred-check loading).

        After a successful check the reverse-reference base is laid
        again from the rows, so deferred databases become fully
        queryable; a failed one leaves the database deferred and its
        index as it was.
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
        """Lay the reverse-reference base from every live row in one
        pass — each row's references logged as :meth:`_record_references`
        logs an insert's — and empty the overlays.  The index is
        replaced only when every reference resolved, so a failure
        leaves the database untouched."""
        kept, self._log = self._log, {}
        try:
            for table_name, table in self._tables.items():
                if not self._fk_plan(table_name):
                    continue
                for slot, values in enumerate(chain.from_iterable(table._heap)):
                    if values is not None:
                        self._record_references(table_name, slot, values)
        except IntegrityError:
            self._log = kept
            raise
        self._lay()
        self._reverse_refs = PartitionedMap(by_slot)
        self._indeg = PartitionedMap(by_slot)
        self._owned_refs = set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{name}({len(table)})" for name, table in self._tables.items()
        )
        return f"Database({self.name}: {parts})"
