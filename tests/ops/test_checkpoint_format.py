"""Checkpoint format 2: a JSON image of the rows, validated on load.

Three things are pinned here:

* **Round trips.**  A checkpoint of a real database — tombstones
  included — loads back to equal heaps, PK indexes and indegrees, the
  same reverse references (as multisets: the bulk rebuild lists them in
  table-major, RID order), and the same answers, before and after a
  further WAL tail.  A table of edge values (NaN, ±inf, -0.0, big
  integers, non-BMP and lone-surrogate text, booleans, NULLs) comes
  back value for value.
* **Hostile bytes never raise.**  Arbitrary bytes, framed or not, fed
  to the reader are skipped with a reason.
* **Crafted files are skipped, and the skip is reported.**  A file
  with a valid CRC but a payload that breaks the format, the schema or
  the rows is passed over for the next older checkpoint, listed in
  ``CheckpointManager.skipped``, and recovery still answers exactly as
  the live store did.  A format-1 (pickled) file is never unpickled.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import struct
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import load_database
from repro.core.incremental import IncrementalBANKS
from repro.core.oracle import same
from repro.cow import CHUNK
from repro.errors import IntegrityError, TypeMismatchError
from repro.ops.checkpoint import CheckpointManager, _encode, _read_checkpoint
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import BOOLEAN, INTEGER, REAL, TEXT
from repro.serve.snapshot import SnapshotStore

from tests.ops.test_checkpoint_crash import QUERIES, build_history, make_db
from tests.relational.reverse_index import reverse_state

REASONS = {"crc", "format", "schema", "integrity"}


def frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def heap(table):
    """The table's heap as one list: a value tuple or ``None`` per RID."""
    return [row for chunk in table._heap for row in chunk]


def state(database: Database):
    """Everything a checkpoint must bring back, reverse references as
    multisets."""
    tables = database.tables()
    return {
        "name": database.name,
        "heaps": {t.schema.name: heap(t) for t in tables},
        "live": {t.schema.name: len(t) for t in tables},
        "pk": {t.schema.name: t._pk_index for t in tables},
        "refs_and_indeg": reverse_state(database),
    }


# -- round trips ----------------------------------------------------------------

DATASETS = {
    "demo:university": ("alice seminar", "seminar", "database"),
    "demo:bibliography": ("soumen sunita", "mining", "transaction"),
    "demo:tpcd": ("steel bolt", "brass", "supplier"),
    "synth:200": ("mining discovery", "graph", "query"),
}


def leaves(database: Database, count: int):
    """``count`` live rows nothing references, last tables first — rows
    that may be deleted, and whose values may be inserted again."""
    found = []
    for table in reversed(database.tables()):
        for slot in table.rids():
            rid = (table.schema.name, slot)
            if not database.indegree(rid):
                found.append(rid)
                if len(found) == count:
                    return found
    return found


def delete_and_reinsert(store: SnapshotStore, deletes: int) -> None:
    """Tombstone ``deletes`` leaf rows, one epoch each, then insert the
    first one's values again (a new RID)."""
    database = store.current().facade.database
    victims = leaves(database, deletes)
    assert len(victims) == deletes
    saved = database.row(victims[0]).values
    for rid in victims:
        store.mutate(lambda facade, rid=rid: facade.delete(rid))
    store.mutate(lambda facade: facade.insert(victims[0][0], saved))


@pytest.mark.parametrize("spec", sorted(DATASETS))
def test_round_trip_then_wal_tail(tmp_path, spec):
    wal_dir = str(tmp_path / "wal")
    ckpt_dir = str(tmp_path / "checkpoints")
    store = SnapshotStore.open(
        load_database(spec), wal_dir, fsync="never", checkpoint_path=ckpt_dir
    )
    try:
        delete_and_reinsert(store, deletes=3)
        live = store.current().facade
        manager = store.checkpoints
        manager.checkpoint(live, store.epoch)

        epoch, restored = manager.newest_valid()
        assert epoch == store.epoch and manager.skipped == []
        assert state(restored) == state(live.database)
        assert any(heap(table).count(None) for table in restored.tables())

        def recovered_matches() -> None:
            recovered = IncrementalBANKS.recover(
                lambda: load_database(spec),
                wal_dir,
                checkpoints=CheckpointManager(ckpt_dir),
            )
            current = store.current().facade
            assert recovered.applied_epoch == store.epoch
            assert state(recovered.database) == state(current.database)
            answered = 0
            for query in DATASETS[spec]:
                expected = current.search(query, max_results=5)
                answered += len(expected)
                assert same(recovered.search(query, max_results=5), expected)
            assert answered

        recovered_matches()
        delete_and_reinsert(store, deletes=2)  # the tail past the checkpoint
        recovered_matches()
    finally:
        store.close()


EDGE_ROWS = [
    [1, float("nan"), "\U0001f600 non-BMP", True],
    [2, float("inf"), "\ud800 lone surrogate", False],
    [3, float("-inf"), None, None],
    [4, -0.0, "", True],
    [2**70, 0.1, 'quote " backslash \\ newline \n', None],
    [-(2**70), None, "tombstoned", False],
    [7, 1e308, "\x00 nul", None],
]


def edge_database() -> Database:
    database = Database("edges")
    database.create_table(
        TableSchema(
            "edge",
            [
                Column("id", INTEGER, nullable=False),
                Column("r", REAL),
                Column("t", TEXT),
                Column("b", BOOLEAN),
            ],
            primary_key=("id",),
        )
    )
    for values in EDGE_ROWS:
        database.insert("edge", values)
    database.delete(("edge", 5))
    return database


def exact(row):
    """A row's values compared exactly: NaN equals NaN, -0.0 is not 0.0."""
    if row is None:
        return None
    return [(type(value), repr(value)) for value in row]


def test_edge_values_round_trip_exactly(tmp_path):
    database = edge_database()
    manager = CheckpointManager(str(tmp_path))
    record = manager.checkpoint(SimpleNamespace(database=database), 1)
    with open(record.path, "rb") as handle:
        handle.read()[8:].decode("ascii")  # past the frame: plain ASCII
    epoch, restored = manager.newest_valid()
    assert epoch == 1
    rows = heap(restored.table("edge"))
    assert [exact(row) for row in rows] == [
        exact(row) for row in heap(database.table("edge"))
    ]
    assert rows[5] is None and len(restored.table("edge")) == 6
    assert math.copysign(1.0, rows[3][1]) == -1.0
    assert restored.table("edge").lookup_pk([2**70]).values[2].startswith("quote")


def test_payload_is_the_document_of_the_scanned_rows():
    """The payload, encoded chunk by chunk, is byte for byte one
    ``json.dumps`` of the heaps ``Table.scan()`` reads, and a restored
    database encodes to the same bytes."""
    database = load_database("demo:bibliography")
    victims = leaves(database, 600)[::15]
    for rid in victims:
        database.delete(rid)
    assert len({slot // CHUNK for _table, slot in victims}) > 1

    tables = database.tables()

    def scanned(table):
        rows = [None] * table.next_rid
        for row in table.scan():
            rows[row.rid] = row.values
        return rows

    expected = json.dumps(
        {
            "format": 2,
            "epoch": 7,
            "name": database.name,
            "schema": [table.to_document() for table in database.schema.tables()],
            "tables": {table.schema.name: scanned(table) for table in tables},
        },
        separators=(",", ":"),
    ).encode("ascii")
    assert _encode(database, 7) == expected
    record = json.loads(expected)
    schemas = [TableSchema.from_document(doc) for doc in record["schema"]]
    restored = Database.restore(record["name"], schemas, record["tables"])
    assert _encode(restored, 7) == expected


def test_checkpoints_encode_again_only_the_chunks_writes_copied(tmp_path):
    """A store's checkpoints reuse the text of every chunk no write
    copied since the last one, and still write the bytes of a fresh
    encode."""
    store = SnapshotStore.open(
        load_database("demo:bibliography"),
        str(tmp_path / "wal"),
        fsync="never",
        checkpoint_path=str(tmp_path / "checkpoints"),
    )
    try:
        manager = store.checkpoints
        delete_and_reinsert(store, deletes=1)
        manager.checkpoint(store.current().facade, store.epoch)
        first = dict(manager._chunk_texts)
        delete_and_reinsert(store, deletes=3)
        facade = store.current().facade
        record = manager.checkpoint(facade, store.epoch)
        with open(record.path, "rb") as handle:
            assert handle.read()[8:] == _encode(facade.database, store.epoch)
        chunks = sum(len(table._heap) for table in facade.database.tables())
        reused = [
            key
            for key, (_chunk, text) in manager._chunk_texts.items()
            if key in first and first[key][1] is text
        ]
        # Five writes copy at most two chunks each.
        assert len(first) >= chunks - 2 and len(reused) >= chunks - 10
    finally:
        store.close()


def test_a_database_written_in_place_is_encoded_afresh(tmp_path):
    """Chunks a table still owns may change in place: never reused."""
    database = load_database("demo:university")
    manager = CheckpointManager(str(tmp_path))
    holder = SimpleNamespace(database=database)
    manager.checkpoint(holder, 1)
    student = database.table("student")
    slot = next(student.rids())
    database.update(("student", slot), {"name": "renamed in place"})
    record = manager.checkpoint(holder, 2)
    with open(record.path, "rb") as handle:
        payload = handle.read()[8:]
    assert payload == _encode(database, 2) and b"renamed in place" in payload


# -- the bulk restore's checks --------------------------------------------------


def edge_schema():
    """The edge table's schema, through its plain document and back."""
    document = edge_database().table("edge").schema.to_document()
    return [TableSchema.from_document(document)]


@pytest.mark.parametrize(
    "row, error",
    [
        ([True, 1.0, "x", True], TypeMismatchError),  # a bool is not an INTEGER
        ([1, 1, "x", True], TypeMismatchError),  # an int is not a REAL
        ([1, 1.0, "x", 1], TypeMismatchError),  # an int is not a BOOLEAN
        ([None, 1.0, "x", True], TypeMismatchError),  # NOT NULL
        ([1, 1.0, "x"], IntegrityError),  # width
        ("1234", IntegrityError),  # not a row
    ],
)
def test_restore_rejects_bad_rows(row, error):
    with pytest.raises(error):
        Database.restore("edges", edge_schema(), {"edge": [row]})


def test_restore_rejects_duplicate_keys_and_unknown_tables():
    good = [1, 1.0, "x", True]
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        Database.restore("edges", edge_schema(), {"edge": [good, None, good]})
    with pytest.raises(IntegrityError):
        Database.restore("edges", edge_schema(), {"edge": [], "ghost": []})
    with pytest.raises(IntegrityError):
        Database.restore("edges", edge_schema(), {})
    with pytest.raises(IntegrityError):
        Database.restore("edges", edge_schema(), {"edge": 7})


def test_failed_integrity_check_leaves_the_index_alone():
    """``check_integrity`` shares the restore's bulk pass: a dangling
    key raises, keeps the database deferred, and leaves the index it
    had."""
    database = Database("d", deferred_fk_check=True)
    database.create_tables(
        [
            TableSchema("b", [Column("id", TEXT, nullable=False)], primary_key=("id",)),
            TableSchema(
                "a",
                [Column("id", TEXT, nullable=False), Column("b_id", TEXT)],
                primary_key=("id",),
                foreign_keys=[ForeignKey("a", ("b_id",), "b", ("id",))],
            ),
        ]
    )
    database.insert("b", ["b1"])
    database.insert("a", ["a1", "b1"])
    database.insert("a", ["a2", "missing"])
    before = state(database)
    assert before["refs_and_indeg"][1] == {("b", 0): {"a": 1}}
    with pytest.raises(IntegrityError):
        database.check_integrity()
    assert database._deferred is True
    assert state(database) == before


# -- hostile bytes --------------------------------------------------------------

_fuzz = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _skipped(tmp_path, data: bytes):
    path = tmp_path / "000000000001.ckpt"
    path.write_bytes(data)
    loaded, reason = _read_checkpoint(str(path))
    assert loaded is None and reason in REASONS
    return reason


@_fuzz
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_never_raise(tmp_path, data):
    _skipped(tmp_path, data)
    _skipped(tmp_path, frame(data))  # past the CRC, into the decoder


@_fuzz
@given(part=st.sampled_from(["schema", "tables", "name", "epoch"]), value=_json)
def test_fuzzed_documents_never_raise(tmp_path, part, value):
    """A valid CRC over a document with one part replaced by arbitrary
    JSON is skipped, never raised."""
    doc = json.loads(_encode(make_db(), 1))
    doc[part] = value
    path = tmp_path / "000000000001.ckpt"
    path.write_bytes(frame(json.dumps(doc).encode("ascii")))
    loaded, reason = _read_checkpoint(str(path))
    assert (loaded is None) == (reason is not None)
    assert reason is None or reason in REASONS


@_fuzz
@given(table=st.sampled_from(["author", "paper", "writes"]), row=_json)
def test_fuzzed_rows_never_raise(tmp_path, table, row):
    doc = json.loads(_encode(make_db(), 1))
    doc["tables"][table].append(row)
    path = tmp_path / "000000000001.ckpt"
    path.write_bytes(frame(json.dumps(doc).encode("ascii")))
    loaded, reason = _read_checkpoint(str(path))
    assert (loaded is None) == (reason is not None)
    assert reason is None or reason in REASONS


# -- crafted checkpoints: skipped, reported, recovered around ------------------


def _edit(change):
    def craft(database: Database, epoch: int) -> bytes:
        doc = json.loads(_encode(database, epoch))
        change(doc)
        return frame(json.dumps(doc).encode("ascii"))

    return craft


def _set(path, value):
    def change(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return change


def _pickled(database: Database, epoch: int) -> bytes:
    return frame(
        pickle.dumps({"format": 1, "epoch": epoch, "database": database})
    )


def _flipped(database: Database, epoch: int) -> bytes:
    data = bytearray(frame(_encode(database, epoch)))
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


CRAFTED = {
    "format_1_pickle": (_pickled, "format"),
    "flipped_byte": (_flipped, "crc"),
    "not_json": (lambda db, epoch: frame(b"\x80\x05not json"), "format"),
    "future_format": (_edit(_set(["format"], 3)), "format"),
    "epoch_as_text": (_edit(_set(["epoch"], "5")), "format"),
    "unknown_type": (_edit(_set(["schema", 0, "columns", 0, 1], "BLOB")), "schema"),
    "fk_to_unknown_table": (
        _edit(_set(["schema", 2, "foreign_keys", 0, 1], "ghost")),
        "schema",
    ),
    "row_width": (_edit(_set(["tables", "author", 0], ["a1"])), "integrity"),
    "value_type": (_edit(_set(["tables", "paper", 0, 1], 7)), "integrity"),
    "bool_in_text": (_edit(_set(["tables", "paper", 0, 1], True)), "integrity"),
    "not_null": (_edit(_set(["tables", "author", 0, 1], None)), "integrity"),
    "duplicate_pk": (
        _edit(lambda doc: doc["tables"]["author"].append(["a1", "again"])),
        "integrity",
    ),
    "dangling_fk": (
        _edit(lambda doc: doc["tables"]["writes"].append(["ghost", "p1"])),
        "integrity",
    ),
    "unknown_table": (_edit(_set(["tables", "ghost"], [])), "integrity"),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_checkpoint_is_skipped_and_recovery_falls_back(
    tmp_path, monkeypatch, case
):
    craft, reason = CRAFTED[case]
    wal_dir, ckpt_dir, store = build_history(tmp_path)  # checkpoint at 3 of 5
    try:
        live = store.current().facade
        crafted = os.path.join(ckpt_dir, f"{store.epoch:012d}.ckpt")
        with open(crafted, "wb") as handle:
            handle.write(craft(live.database, store.epoch))

        # Reading checkpoints unpickles nothing (the WAL's own records,
        # replayed below, are still pickled).
        unpickled = []
        monkeypatch.setattr(
            pickle, "loads", lambda *args, **kwargs: unpickled.append(args)
        )
        manager = CheckpointManager(ckpt_dir)
        assert manager.newest_valid()[0] == 3
        assert manager.skipped == [(crafted, reason)]
        assert unpickled == []
        monkeypatch.undo()

        recovered = IncrementalBANKS.recover(make_db, wal_dir, checkpoints=manager)
        assert manager.skipped == [(crafted, reason)]
        assert recovered.applied_epoch == store.epoch
        for query in QUERIES:
            assert same(
                recovered.search(query, max_results=5),
                live.search(query, max_results=5),
            )
    finally:
        store.close()


def test_every_skipped_file_is_listed_newest_first(tmp_path):
    wal_dir, ckpt_dir, store = build_history(tmp_path)
    try:
        older = os.path.join(ckpt_dir, f"{3:012d}.ckpt")
        newer = os.path.join(ckpt_dir, f"{store.epoch:012d}.ckpt")
        with open(newer, "wb") as handle:
            handle.write(_pickled(store.current().facade.database, store.epoch))
        with open(older, "rb+") as handle:
            handle.truncate(20)
        manager = CheckpointManager(ckpt_dir)
        assert manager.newest_valid() is None
        assert manager.skipped == [(newer, "format"), (older, "crc")]
    finally:
        store.close()
