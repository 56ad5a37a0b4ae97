"""Incremental maintenance of the data graph and keyword index.

BANKS assumes "the graph fits in memory" and the paper reports a ~2
minute initial load for the 100K-node DBLP graph — affordable once, but
not per update.  A deployed system (the paper's target is live Web
publishing of organisational data) needs inserts, deletes and updates
to flow into the graph without a rebuild.  This module provides that:
:class:`IncrementalBANKS` wraps the standard facade with mutation
methods that apply *deltas*:

* **insert** — add the node, its reference edges, and re-weigh the
  back edges of every sibling referrer (the new reference changes
  ``IN_R(v)`` for its targets, which is exactly the Eq. 1 backward
  weight), plus the targets' prestige;
* **delete** — remove the node and its incident edges, then re-weigh
  the former targets' remaining back edges and prestige;
* **update** — combine both for the changed references, and re-index
  the changed text.

The delta arithmetic itself lives in :mod:`repro.store.delta` — one
derivation shared with the serving layer's write path and
the shard router's delta routing.  Two capabilities build on that:

* **delta capture** — between :meth:`begin_delta_capture` and
  :meth:`end_delta_capture` every mutation also *records* its
  :class:`~repro.store.delta.Delta`; the serving layer publishes those
  records as one :class:`~repro.store.log.Epoch` per snapshot, appended
  to the WAL, so downstream consumers (shard routers, replicas) can
  follow along;
* **copy-on-write forking** — :meth:`fork` returns a facade sharing
  all storage structurally (the frozen graph arrays and overlay rows,
  postings lists, table heaps); mutating the fork copies only what it
  touches.  This is what makes publishing a snapshot O(delta) adjacency
  work instead of O(data), and it is the only way the serving layer
  captures a writable snapshot;
* **replication and recovery** — :meth:`apply_delta` /
  :meth:`apply_epochs` absorb *externally derived* deltas (a replica
  following a primary's epochs), and :meth:`recover` rebuilds the
  exact pre-crash facade from a base snapshot plus a durable WAL
  (:mod:`repro.store.wal`).

Equivalence to a full rebuild — identical node set, edge set, weights,
prestige and scoring normalisers — is asserted by a hypothesis property
test over random mutation sequences (``tests/core/test_incremental.py``),
which also drives the same sequence through the serving layer's
snapshot store.

The facade's graph is always frozen: a
:class:`~repro.graph.csr.CSROverlayGraph`, the one mutable graph
representation.  ``BANKS(database, freeze=False)`` is the oracle (see
:mod:`repro.core.oracle`); this class takes no ``freeze`` option, so
passing one is a ``TypeError``.

Limitations: prestige mode ``"pagerank"`` is global by nature and not
maintained incrementally (construction refuses it); scoring
normalisers are refreshed lazily on the first search after a mutation,
from aggregates the overlay maintains as it is written.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.core.banks import BANKS
from repro.core.model import stats_of
from repro.core.scoring import Scorer
from repro.core.weights import WeightPolicy
from repro.errors import GraphError, StoreError
from repro.relational.database import Database, RID
from repro.store.delta import (
    Delta,
    apply_graph_delta,
    derive_delete,
    derive_insert,
    derive_insert_dict,
    derive_update,
    replay_delta,
)


class IncrementalBANKS(BANKS):
    """A BANKS facade whose graph and index follow data mutations.

    Use the :meth:`insert`, :meth:`delete` and :meth:`update` methods
    instead of mutating the database directly; each applies the
    corresponding graph/index delta.  All search functionality is
    inherited unchanged.
    """

    def __init__(self, database: Database, **banks_options):
        policy = banks_options.get("weight_policy") or WeightPolicy()
        if policy.prestige == "pagerank":
            raise GraphError(
                "IncrementalBANKS does not maintain PageRank prestige "
                "incrementally; use prestige='indegree' or 'none'"
            )
        super().__init__(database, freeze=True, **banks_options)
        self._stats_dirty = False
        self._captured: Optional[List[Delta]] = None
        #: Newest WAL epoch this facade has absorbed (0 = base
        #: snapshot).  Only replicas and recovered facades advance it.
        self.applied_epoch = 0

    # -- stats refresh ---------------------------------------------------------

    def _refresh_stats(self) -> None:
        if not self._stats_dirty:
            return
        self.stats = stats_of(self.graph)
        self.scorer = Scorer(self.stats, self.scoring)
        self._stats_dirty = False

    def search(self, *args, **kwargs):
        self._refresh_stats()
        return super().search(*args, **kwargs)

    def search_iter(self, *args, **kwargs):
        self._refresh_stats()
        return super().search_iter(*args, **kwargs)

    # -- copy-on-write forking -------------------------------------------------

    def fork(self) -> "IncrementalBANKS":
        """A facade sharing all storage structurally with this one.

        The fork sees exactly this facade's data; mutating it copies
        only the touched overlay rows, postings lists and heap chunks,
        and the map partitions holding them (see :mod:`repro.cow`).  The graph fork references the frozen
        base, not this facade's graph, so a chain of published forks
        does not keep its ancestors alive.  By the snapshot contract the
        parent must not be mutated once forked — the serving layer
        always mutates the newest fork and publishes it.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.database = self.database.fork()
        clone.index = self.index.fork(clone.database)
        clone.graph = self.graph.fork()
        clone._captured = None
        return clone

    # -- delta capture ---------------------------------------------------------

    def begin_delta_capture(self) -> None:
        """Record every subsequent mutation's delta until
        :meth:`end_delta_capture`."""
        if self._captured is not None:
            raise StoreError("delta capture already in progress")
        self._captured = []

    def end_delta_capture(self) -> List[Delta]:
        """Stop capturing; return the recorded deltas in order."""
        if self._captured is None:
            raise StoreError("no delta capture in progress")
        captured, self._captured = self._captured, None
        return captured

    # -- mutations ----------------------------------------------------------------

    def insert(self, table_name: str, values: Sequence[Any]) -> RID:
        """Insert a tuple; graph and index follow."""
        delta = derive_insert(
            self.database,
            (self.index,),
            self.graph,
            self.weight_policy,
            table_name,
            values,
        )
        self._absorb(delta)
        return delta.node

    def insert_dict(self, table_name: str, mapping: Mapping[str, Any]) -> RID:
        delta = derive_insert_dict(
            self.database,
            (self.index,),
            self.graph,
            self.weight_policy,
            table_name,
            mapping,
        )
        self._absorb(delta)
        return delta.node

    def delete(self, rid: RID) -> None:
        """Delete a tuple; graph and index follow.

        Raises :class:`repro.errors.IntegrityError` (before any graph
        change) if other tuples still reference ``rid``.
        """
        delta = derive_delete(
            self.database, (self.index,), self.graph, self.weight_policy, rid
        )
        self._absorb(delta)

    def update(self, rid: RID, changes: Mapping[str, Any]) -> None:
        """Update a tuple in place; graph and index follow."""
        delta = derive_update(
            self.database,
            (self.index,),
            self.graph,
            self.weight_policy,
            rid,
            changes,
        )
        self._absorb(delta)

    # -- replication / recovery ------------------------------------------------

    def apply_delta(self, delta: Delta) -> None:
        """Absorb one *externally derived* delta, as a replica.

        Replays the relational + index part
        (:func:`~repro.store.delta.replay_delta` verifies insert RIDs,
        so divergence from the primary fails loudly) and applies the
        graph part.  Mirrors what the native mutation methods do with
        a locally derived delta — one arithmetic, two directions.
        """
        replay_delta(self.database, (self.index,), delta)
        self._absorb(delta)

    def apply_epoch(self, epoch) -> int:
        """Absorb one published :class:`~repro.store.log.Epoch`;
        returns the deltas applied.

        Raises :class:`~repro.errors.StoreError` unless the epoch is
        exactly the next one (``applied_epoch + 1``) — a replica fed a
        gapped history (e.g. from a WAL pruned past its position) must
        rebuild, not silently skip.
        """
        if epoch.number != self.applied_epoch + 1:
            raise StoreError(
                f"replica at epoch {self.applied_epoch} cannot apply "
                f"epoch {epoch.number}; rebuild from a current snapshot"
            )
        for delta in epoch.deltas:
            self.apply_delta(delta)
        self.applied_epoch = epoch.number
        return len(epoch.deltas)

    def apply_epochs(self, epochs) -> int:
        """Absorb a sequence of epochs in order; returns the total
        deltas applied.  This is the replica surface a
        :class:`~repro.store.wal.ReplicaFollower` tails into."""
        applied = 0
        for epoch in epochs:
            applied += self.apply_epoch(epoch)
        return applied

    @classmethod
    def recover(
        cls, db_factory, wal_path, checkpoints=None, **banks_options
    ) -> "IncrementalBANKS":
        """Rebuild the exact pre-crash facade: newest checkpoint (when
        one exists) or base snapshot, plus the WAL tail.

        Args:
            db_factory: a callable returning the *base* database (the
                state before WAL epoch 1 — e.g. the deterministic demo
                generator, or ``base.fork``), or a Database to adopt.
            wal_path: the WAL directory.
            checkpoints: a :class:`~repro.ops.checkpoint.CheckpointManager`;
                recovery starts from its newest *valid* checkpoint and
                replays only the epochs after it — O(tail) instead of
                O(history).  A torn or corrupt checkpoint is skipped;
                with none usable (or ``None`` here), recovery falls
                back to the base snapshot and full replay.

        Replays every needed complete epoch in order; a torn tail from
        the crash is ignored by the reader (no partial epoch is ever
        applied), and the returned facade's :attr:`applied_epoch` says
        how far history reached.  Raises
        :class:`~repro.errors.StoreError` when the WAL was pruned past
        the chosen starting point — from a base snapshot that means
        ``first_epoch > 1``; from a checkpoint at epoch E it means
        ``first_epoch > E + 1``, which the writer's checkpoint prune
        floor exists to prevent.
        """
        from repro.store.wal import WalReader

        reader = WalReader(str(wal_path))
        first = reader.first_epoch()
        if checkpoints is not None:
            loaded = checkpoints.newest_valid()
            if loaded is not None:
                epoch, database = loaded
                if first and epoch + 1 < first:
                    raise StoreError(
                        f"WAL starts at epoch {first} but the newest "
                        f"valid checkpoint covers epoch {epoch}: the "
                        f"replay tail {epoch + 1}..{first - 1} was "
                        "pruned, so the checkpoint cannot be caught up"
                    )
                facade = cls(database, **banks_options)
                facade.applied_epoch = epoch
                facade.apply_epochs(reader.entries_since(epoch))
                return facade
        if first > 1:
            raise StoreError(
                f"WAL starts at epoch {first}: epochs 1..{first - 1} were "
                "pruned, so recovery from a base snapshot cannot replay "
                "the full history"
            )
        database = db_factory() if callable(db_factory) else db_factory
        facade = cls(database, **banks_options)
        facade.apply_epochs(reader.read_all())
        return facade

    # -- delta machinery ------------------------------------------------------------

    def _absorb(self, delta: Delta) -> None:
        """Apply the graph part of a derived delta and record it when a
        capture is running (the relational + index part was applied
        during derivation)."""
        apply_graph_delta(self.graph, delta)
        self._stats_dirty = True
        if self._captured is not None:
            self._captured.append(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalBANKS({self.database.name}: "
            f"{self.graph.num_nodes} nodes, {self.graph.num_edges} edges)"
        )
