"""Tests for the durable epoch log: segments, torn tails, recovery,
and cross-process replicas."""

from __future__ import annotations

import multiprocessing
import os
import shutil

import pytest

from repro.cluster import ClusterSpec
from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same, signature
from repro.errors import ClusterError, ServeError, StoreError, WalError
from repro.relational import Database, load_sql
from repro.serve.engine import EngineConfig, QueryEngine
from repro.serve.snapshot import SnapshotStore
from repro.shard.process import fork_available
from repro.shard.router import ShardRouter
from repro.store.delta import Delta
from repro.store.log import Epoch
from repro.store.wal import ReplicaFollower, WalReader, WalWriter

SCHEMA = """
CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
CREATE TABLE writes (
    aid TEXT NOT NULL REFERENCES author(aid),
    pid TEXT NOT NULL REFERENCES paper(pid)
);
INSERT INTO author VALUES ('a1', 'grace hopper');
INSERT INTO author VALUES ('a2', 'barbara liskov');
INSERT INTO paper VALUES ('p1', 'compiling arithmetic expressions');
INSERT INTO paper VALUES ('p2', 'abstraction mechanisms');
INSERT INTO writes VALUES ('a1', 'p1');
INSERT INTO writes VALUES ('a2', 'p2');
"""

QUERIES = ("dataflow", "grace", "optimizing", "abstraction barbara")


def make_db(name: str = "waltest") -> Database:
    return load_sql(SCHEMA, name)


def delta(n: int) -> Delta:
    return Delta(kind="insert", node=("paper", n), row_values=(f"p{n}", "t"))


def epoch(n: int) -> Epoch:
    return Epoch(n, (delta(n),))


def top5(facade):
    """Each query's top five answers, as ``(root, relevance)`` pairs."""
    return [signature(facade.search(q, max_results=5)) for q in QUERIES]


def mutate_battery(store: SnapshotStore, rounds: int = 6) -> None:
    """Mixed insert/update/delete epochs through a snapshot store."""
    for i in range(rounds):
        store.mutate(
            lambda f, i=i: f.insert("paper", [f"px{i}", f"dataflow study {i}"])
        )
        store.mutate(lambda f, i=i: f.insert("writes", ["a1", f"px{i}"]))
    store.mutate(lambda f: f.update(("paper", 0), {"title": "optimizing compilers"}))
    store.mutate(lambda f: f.delete(("writes", 2)))


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        wal = str(tmp_path / "wal")
        with WalWriter(wal, fsync="never") as writer:
            for n in range(1, 6):
                writer.append(epoch(n))
        reader = WalReader(wal)
        replayed = reader.read_all()
        assert [e.number for e in replayed] == [1, 2, 3, 4, 5]
        assert replayed[2].deltas[0].node == ("paper", 3)
        assert reader.first_epoch() == 1
        assert reader.last_epoch() == 5
        assert reader.size_bytes() == writer.bytes_written > 0

    def test_a_regular_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "wal"
        path.write_text("")
        with pytest.raises(WalError) as caught:
            WalWriter(str(path))
        assert f"WAL directory {str(path)!r} cannot be created" in str(caught.value)

    def test_reader_refuses_a_missing_directory(self, tmp_path):
        path = str(tmp_path / "wal")
        with pytest.raises(StoreError) as caught:
            WalReader(path)
        assert str(caught.value) == f"WAL directory {path!r} does not exist"

    def test_reader_refuses_a_regular_file_as_not_a_directory(self, tmp_path):
        path = tmp_path / "wal"
        path.write_text("")
        with pytest.raises(StoreError) as caught:
            WalReader(str(path))
        message = f"WAL directory {str(path)!r} is not a directory"
        assert str(caught.value) == message

    def test_entries_since(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            for n in range(1, 8):
                writer.append(epoch(n))
        reader = WalReader(str(tmp_path))
        assert [e.number for e in reader.entries_since(4)] == [5, 6, 7]
        assert reader.entries_since(7) == []

    def test_appends_must_be_sequential(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            writer.append(epoch(1))
            with pytest.raises(WalError):
                writer.append(epoch(3))  # gap
            with pytest.raises(WalError):
                writer.append(epoch(1))  # duplicate

    def test_resume_continues_numbering(self, tmp_path):
        wal = str(tmp_path)
        first = WalWriter(wal, fsync="never")
        first.append(epoch(1))
        first.append(epoch(2))
        first.close()
        with WalWriter(wal, fsync="never") as second:
            assert second.last_epoch == 2
            second.append(epoch(3))
        assert [e.number for e in WalReader(wal).read_all()] == [1, 2, 3]

    def test_append_after_close_reopens(self, tmp_path):
        writer = WalWriter(str(tmp_path), fsync="never")
        writer.append(epoch(1))
        writer.close()
        writer.append(epoch(2))
        writer.close()
        assert WalReader(str(tmp_path)).last_epoch() == 2

    def test_bad_configuration(self, tmp_path):
        with pytest.raises(StoreError):
            WalWriter(str(tmp_path), fsync="sometimes")
        with pytest.raises(StoreError):
            WalWriter(str(tmp_path), segment_bytes=0)
        with pytest.raises(StoreError):
            WalWriter(str(tmp_path), retain=0)
        with pytest.raises(StoreError):
            WalReader(str(tmp_path / "missing"))

    def test_fsync_policies_accepted(self, tmp_path):
        for policy in ("always", "rotate", "never"):
            wal = str(tmp_path / policy)
            writer = WalWriter(wal, fsync=policy)
            writer.append(epoch(1))
            writer.close()
            assert WalReader(wal).last_epoch() == 1


class TestRotationAndRetention:
    def test_segments_rotate_by_size(self, tmp_path):
        wal = str(tmp_path)
        with WalWriter(wal, segment_bytes=1, fsync="never") as writer:
            for n in range(1, 5):
                writer.append(epoch(n))
        segments = sorted(os.listdir(wal))
        # segment_bytes=1: every append overflows, one epoch per file.
        assert len(segments) == 4
        assert writer.rotations == 3
        assert [e.number for e in WalReader(wal).read_all()] == [1, 2, 3, 4]

    def test_retention_prunes_whole_segments(self, tmp_path):
        wal = str(tmp_path)
        with WalWriter(wal, segment_bytes=1, fsync="never", retain=2) as writer:
            for n in range(1, 9):
                writer.append(epoch(n))
        reader = WalReader(wal)
        assert writer.pruned_segments > 0
        # The window is segment-granular: at least `retain` epochs stay.
        assert reader.first_epoch() <= writer.last_epoch - writer.retain + 1
        assert reader.last_epoch() == 8
        assert writer.bytes_written == reader.size_bytes()

    def test_catchup_past_pruned_window_fails_loudly(self, tmp_path):
        wal = str(tmp_path)
        with WalWriter(wal, segment_bytes=1, fsync="never", retain=2) as writer:
            for n in range(1, 9):
                writer.append(epoch(n))
        reader = WalReader(wal)
        with pytest.raises(StoreError):
            reader.entries_since(0)
        # Inside the retained window the tail still reads fine.
        tail = reader.entries_since(reader.first_epoch())
        assert tail[-1].number == 8


def _crash_copies(wal: str, scratch: str):
    """Every crash image of a WAL: for each byte offset into the
    concatenated segment stream, the on-disk state a crash at that
    offset leaves behind (earlier segments intact, the hit segment
    truncated, later segments never written)."""
    segments = sorted(os.listdir(wal))
    for position, name in enumerate(segments):
        size = os.path.getsize(os.path.join(wal, name))
        # cut == size is the crash landing exactly on a record (and
        # segment) boundary: the segment is complete, later ones absent.
        for cut in range(size + 1):
            image = os.path.join(scratch, f"crash-{position}-{cut}")
            os.makedirs(image)
            for keep in segments[:position]:
                shutil.copy(os.path.join(wal, keep), image)
            with open(os.path.join(wal, name), "rb") as handle:
                prefix = handle.read(cut)
            if cut:
                with open(os.path.join(image, name), "wb") as handle:
                    handle.write(prefix)
            yield image
            shutil.rmtree(image)


class TestTornTails:
    def test_truncation_at_any_byte_recovers_last_complete_epoch(
        self, tmp_path
    ):
        """The crash-point property test: whatever byte the log dies
        at, readers recover exactly the epochs whose records are
        complete — never a partial epoch, never an error."""
        wal = str(tmp_path / "wal")
        writer = WalWriter(wal, segment_bytes=220, fsync="never")
        for n in range(1, 7):
            writer.append(epoch(n))
        writer.close()
        assert writer.rotations > 0  # the property must span segments

        scratch = str(tmp_path / "scratch")
        os.makedirs(scratch)
        boundaries = set()
        for image in _crash_copies(wal, scratch):
            recovered = WalReader(image).read_all()
            numbers = [e.number for e in recovered]
            # Complete prefix, in order, no partial replay.
            assert numbers == list(range(1, len(numbers) + 1))
            boundaries.add(len(numbers))
            # The writer adopts the same prefix and appends cleanly.
            resumed = WalWriter(image, fsync="never")
            assert resumed.last_epoch == len(numbers)
            resumed.append(epoch(len(numbers) + 1))
            resumed.close()
            assert WalReader(image).last_epoch() == len(numbers) + 1
        # Every prefix length is reachable as some crash outcome.
        assert boundaries == set(range(0, 7))

    def test_mid_log_corruption_is_loud(self, tmp_path):
        wal = str(tmp_path)
        writer = WalWriter(wal, segment_bytes=220, fsync="never")
        for n in range(1, 7):
            writer.append(epoch(n))
        writer.close()
        first_segment = sorted(os.listdir(wal))[0]
        path = os.path.join(wal, first_segment)
        with open(path, "rb+") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalError):
            WalReader(wal).read_all()
        with pytest.raises(WalError):
            WalWriter(wal, fsync="never")


class TestDeltaLogIntegration:
    """The store's publish is the WAL's append: numbering, payload and
    resume all come from the one write path."""

    def test_publish_appends_durably(self, tmp_path):
        writer = WalWriter(str(tmp_path), fsync="never")
        store = SnapshotStore(IncrementalBANKS(make_db()), wal=writer)
        store.mutate(lambda f: f.insert("paper", ["p8", "one"]))
        store.mutate_batch(
            [
                lambda f: f.insert("paper", ["p9", "two"]),
                lambda f: f.insert("writes", ["a1", "p9"]),
            ]
        )
        replayed = WalReader(str(tmp_path)).read_all()
        assert [e.number for e in replayed] == [1, 2]
        assert len(replayed[1].deltas) == 2
        assert replayed[1] == store.published
        store.close()

    def test_epoch_numbering_resumes_from_wal(self, tmp_path):
        wal = str(tmp_path)
        store = SnapshotStore.open(make_db, wal)
        for _ in range(3):
            store.republish()
        store.close()
        resumed = SnapshotStore.open(make_db, wal)
        assert resumed.epoch == 3
        resumed.republish()
        resumed.close()
        assert resumed.published.number == 4
        assert WalReader(wal).last_epoch() == 4

    def test_facade_behind_the_wal_is_refused(self, tmp_path):
        """A fresh facade over a log that holds epochs would number its
        epochs after the log's while deriving them from the base — the
        WAL would then no longer recover.  The store refuses it."""
        wal = str(tmp_path)
        store = SnapshotStore.open(make_db, wal)
        store.mutate(lambda f: f.insert("paper", ["p8", "one"]))
        refused = "epoch 1 but the facade is at epoch 0"
        with WalWriter(wal) as writer, pytest.raises(ServeError, match=refused):
            SnapshotStore(IncrementalBANKS(make_db()), wal=writer)
        store.wal.close()
        assert WalReader(wal).last_epoch() == 1
        assert IncrementalBANKS.recover(make_db, wal).applied_epoch == 1


class TestFormatCompatibility:
    """``fixtures/wal_university`` holds four epochs written by an
    earlier release over ``generate_university()``: one insert pair, one
    update, a three-insert batch and one delete.  Every record pickles
    ``repro.store.log.Epoch`` by path, so that path must keep resolving."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "wal_university")

    @staticmethod
    def expected():
        from repro.datasets import generate_university

        facade = IncrementalBANKS(generate_university()[0])

        def rid(table, *key):
            return (table, facade.database.table(table).lookup_pk(key).rid)

        facade.insert("student", ["SCAROL", "Carol Walreplay", "BIGDEPT"])
        facade.insert("registration", ["SCAROL", "C0000"])
        facade.update(rid("course", "C0001"), {"title": "Durable Logging Seminar"})
        facade.insert("course", ["CWAL", "Write Ahead Workshop", "BIGDEPT"])
        facade.insert("registration", ["SCAROL", "CWAL"])
        facade.insert("registration", ["SALICE", "CWAL"])
        facade.delete(rid("registration", "SCAROL", "C0000"))
        return facade

    def test_recover_replays_an_existing_wal(self):
        from repro.datasets import generate_university
        from repro.shard.stitch import graphs_equal

        recovered = IncrementalBANKS.recover(
            lambda: generate_university()[0], self.FIXTURE
        )
        assert recovered.applied_epoch == 4
        expected = self.expected()
        assert graphs_equal(recovered.graph, expected.graph)
        for query in ("carol workshop", "durable alice", "write ahead"):
            answers = expected.search(query, max_results=5)
            assert answers
            assert same(recovered.search(query, max_results=5), answers)


class TestSnapshotStoreIntegration:
    def test_store_accepts_path_and_publishes(self, tmp_path):
        wal = str(tmp_path / "wal")
        store = SnapshotStore.open(make_db, wal)
        mutate_battery(store, rounds=2)
        reader = WalReader(wal)
        assert reader.last_epoch() == store.epoch == 6
        assert store.wal_epochs_written == 6
        assert store.wal_bytes == reader.size_bytes() > 0
        store.close()

    def test_wal_requires_delta_mode(self, tmp_path):
        """A WAL needs deltas to write, so a facade that cannot fork
        and capture them is refused at construction."""
        from repro.core.banks import BANKS

        with pytest.raises(ServeError, match="read-only"):
            SnapshotStore(BANKS(make_db()), wal=WalWriter(str(tmp_path)))
        assert not os.listdir(tmp_path)

    def test_republish_logs_an_empty_epoch(self, tmp_path):
        wal = str(tmp_path)
        store = SnapshotStore.open(make_db, wal)
        store.republish()
        store.close()
        replayed = WalReader(wal).read_all()
        assert [e.number for e in replayed] == [1]
        assert replayed[0].deltas == ()


class TestWriteAheadOrdering:
    def test_failed_wal_append_aborts_the_publish(self, tmp_path):
        """Write-ahead means write-ahead: if the durable append fails,
        the mutation must not become visible — live state and log
        stay in lockstep."""
        wal = str(tmp_path / "wal")
        store = SnapshotStore.open(make_db, wal)
        store.mutate(lambda f: f.insert("paper", ["p8", "first epoch"]))

        def broken_append(epoch):
            raise WalError("disk full")

        store.wal.append = broken_append
        before = store.current()
        with pytest.raises(WalError):
            store.mutate(lambda f: f.insert("paper", ["p9", "lost"]))
        # Nothing published: same version, same facade, same epoch.
        assert store.current() is before
        assert store.epoch == 1
        assert WalReader(wal).last_epoch() == 1
        assert not store.current().facade.database.table("paper").lookup_pk(
            ("p9",)
        )
        store.close()

    def test_persistent_prune_race_fails_loudly(self, tmp_path):
        """A reader whose segments vanish between every listing and
        read (a pathologically fast pruner) gets StoreError, not a
        raw FileNotFoundError that would kill a follower thread."""
        wal = str(tmp_path)
        with WalWriter(wal, fsync="never") as writer:
            writer.append(epoch(1))
        reader = WalReader(wal)

        def gone(filepath):
            raise FileNotFoundError(filepath)

        reader._segment_range = gone
        with pytest.raises(StoreError):
            reader.last_epoch()


class TestRecovery:
    def test_recover_reproduces_the_live_facade(self, tmp_path):
        wal = str(tmp_path / "wal")
        base = make_db()
        store = SnapshotStore.open(base.fork, wal)
        mutate_battery(store)
        store.close()
        live = store.current().facade

        recovered = IncrementalBANKS.recover(base.fork, wal)
        assert recovered.applied_epoch == store.epoch
        assert all(map(same, top5(recovered), top5(live)))

    def test_recover_stops_at_torn_tail(self, tmp_path):
        wal = str(tmp_path / "wal")
        base = make_db()
        store = SnapshotStore.open(base.fork, wal)
        mutate_battery(store, rounds=2)
        store.close()
        # Crash mid-append: chop bytes off the newest segment.
        segments = sorted(os.listdir(wal))
        last = os.path.join(wal, segments[-1])
        with open(last, "rb+") as handle:
            handle.truncate(os.path.getsize(last) - 5)
        recovered = IncrementalBANKS.recover(base.fork, wal)
        assert recovered.applied_epoch == store.epoch - 1

    def test_recover_refuses_pruned_history(self, tmp_path):
        wal = str(tmp_path)
        with WalWriter(wal, segment_bytes=1, fsync="never", retain=1) as writer:
            for n in range(1, 6):
                writer.append(epoch(n))
        with pytest.raises(StoreError):
            IncrementalBANKS.recover(make_db, wal)

    def test_replica_rejects_epoch_gap(self):
        facade = IncrementalBANKS(make_db())
        with pytest.raises(StoreError):
            facade.apply_epoch(Epoch(5, ()))
        facade.apply_epoch(Epoch(1, ()))
        assert facade.applied_epoch == 1


class TestReplicaFollower:
    @pytest.fixture
    def primary(self, tmp_path):
        wal = str(tmp_path / "wal")
        base = make_db()
        store = SnapshotStore.open(base.fork, wal)
        mutate_battery(store)
        yield wal, base, store
        store.close()

    def test_facade_target_catches_up(self, primary):
        wal, base, store = primary
        replica = IncrementalBANKS(base.fork())
        follower = ReplicaFollower(wal, replica)
        assert follower.poll() == store.epoch
        assert follower.lag_epochs() == 0
        assert follower.poll() == 0  # idempotent when caught up
        assert all(map(same, top5(replica), top5(store.current().facade)))

    def test_incremental_tailing(self, tmp_path):
        wal = str(tmp_path / "wal")
        base = make_db()
        store = SnapshotStore.open(base.fork, wal)
        replica = IncrementalBANKS(base.fork())
        follower = ReplicaFollower(wal, replica)
        for i in range(3):
            store.mutate(
                lambda f, i=i: f.insert("paper", [f"pz{i}", f"study {i}"])
            )
            assert follower.poll() == 1
            assert follower.applied_epoch == store.epoch
        store.close()
        assert all(map(same, top5(replica), top5(store.current().facade)))

    def test_engine_target_publishes_versions(self, primary):
        wal, base, store = primary
        engine = QueryEngine(
            IncrementalBANKS(base.fork()), EngineConfig(workers=1)
        )
        try:
            registry = engine.metrics
            follower = ReplicaFollower(wal, engine, metrics=registry)
            applied = follower.poll()
            assert applied == store.epoch
            # One poll batch = one atomically published version.
            assert engine.snapshots.version == 1
            assert registry.snapshot()["replica_lag_epochs"] == 0
            assert all(map(same, top5(engine.facade), top5(store.current().facade)))
        finally:
            engine.stop()

    def test_router_target_routes_epochs(self, primary):
        wal, base, store = primary
        with ShardRouter(base.fork(), shards=2, backend="thread") as router:
            follower = ReplicaFollower(wal, router)
            follower.poll()
            assert follower.lag_epochs() == 0
            live = store.current().facade
            for query in QUERIES:
                got = router.search(query, max_results=5)
                assert same(got, live.search(query, max_results=5)), query

    def test_background_thread_tails(self, primary):
        wal, base, store = primary
        replica = IncrementalBANKS(base.fork())
        follower = ReplicaFollower(wal, replica).start(interval=0.01)
        try:
            assert follower.catch_up(store.epoch, timeout=10.0) == 0
        finally:
            follower.stop()
        assert follower.lag_epochs() == 0

    def test_lag_counts_unapplied_epochs(self, primary):
        wal, base, store = primary
        replica = IncrementalBANKS(base.fork())
        follower = ReplicaFollower(wal, replica)
        assert follower.lag_epochs() == store.epoch
        follower.poll()
        assert follower.lag_epochs() == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_second_process_replica_matches(self, primary):
        wal, base, store = primary
        live = store.current().facade
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()

        def probe():
            replica = IncrementalBANKS(base.fork())
            follower = ReplicaFollower(wal, replica)
            follower.catch_up(store.epoch, timeout=30.0)
            child_end.send((follower.lag_epochs(), top5(replica)))
            child_end.close()

        process = context.Process(target=probe, daemon=True)
        process.start()
        child_end.close()
        lag, replica_answers = parent_end.recv()
        process.join(timeout=10.0)
        assert lag == 0
        assert all(map(same, replica_answers, top5(live)))


class TestEngineWalSurface:
    def test_engine_gauges_and_recovery_cycle(self, tmp_path):
        wal = str(tmp_path / "wal")
        base = make_db()
        engine = QueryEngine(
            SnapshotStore.open(base.fork, wal, fsync="rotate"),
            EngineConfig(workers=1),
        )
        try:
            engine.mutate(lambda f: f.insert("paper", ["p9", "dataflow"]))
            snapshot = engine.metrics.snapshot()
            assert snapshot["wal_epochs_written"] == 1
            assert snapshot["wal_bytes"] > 0
            text = engine.metrics.render_text()
            assert "banks_engine_wal_epochs_written 1" in text
        finally:
            engine.stop()
            engine.snapshots.close()
        # A second engine over the same WAL resumes epoch numbering.
        resumed = QueryEngine(
            SnapshotStore.open(base.fork, wal), EngineConfig(workers=1)
        )
        try:
            assert resumed.snapshots.epoch == 1
            resumed.mutate(lambda f: f.insert("paper", ["p10", "streams"]))
            assert resumed.snapshots.epoch == 2
            assert WalReader(wal).last_epoch() == 2
        finally:
            resumed.stop()
            resumed.snapshots.close()

    def test_engine_without_wal_reports_zero(self):
        engine = QueryEngine(
            IncrementalBANKS(make_db()), EngineConfig(workers=1)
        )
        try:
            snapshot = engine.metrics.snapshot()
            assert snapshot["wal_epochs_written"] == 0
            assert snapshot["wal_bytes"] == 0
        finally:
            engine.stop()

    def test_bad_wal_fsync_rejected(self, tmp_path):
        """The policy is a spec field and an opener argument; the
        engine config has none.  Neither creates the log."""
        wal = str(tmp_path / "wal")
        with pytest.raises(ClusterError, match="unknown wal fsync"):
            ClusterSpec(live=True, wal_path=wal, wal_fsync="mostly")
        with pytest.raises(StoreError, match="unknown fsync policy"):
            SnapshotStore.open(make_db, wal, fsync="mostly")
        assert not os.path.exists(wal)
