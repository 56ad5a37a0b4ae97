"""Job registry: durable cursors, atomic writes, state discipline."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import IngestError
from repro.ingest import JOB_STATES, IngestJob, JobRegistry


def make_job(job_id="j1", **kwargs):
    defaults = dict(source="synth:10:7", database="synth:0", chunk_size=5)
    defaults.update(kwargs)
    return IngestJob(job_id, **defaults)


def test_create_save_load_roundtrip(tmp_path):
    registry = JobRegistry(str(tmp_path), clock=lambda: 123.5)
    job = registry.create(make_job())
    assert job.created_at == 123.5
    job.state = "running"
    job.chunks_committed = 3
    job.records_committed = 15
    registry.save(job)
    loaded = registry.load("j1")
    assert loaded == job
    assert loaded.updated_at == 123.5


def test_constructor_leaves_the_filesystem_untouched(tmp_path):
    """Listing a mistyped directory must not create it (``banks jobs``
    used to print "no jobs" over a directory it had just made)."""
    path = str(tmp_path / "typo" / "jobs")
    registry = JobRegistry(path)
    assert registry.try_load("ghost") is None
    with pytest.raises(IngestError, match="typo"):
        registry.jobs()
    assert os.listdir(str(tmp_path)) == []


def test_first_save_creates_the_directory_and_a_restart_finds_the_job(
    tmp_path,
):
    path = str(tmp_path / "wal" / "jobs")
    job = JobRegistry(path).create(make_job())
    assert os.listdir(path) == ["j1.json"]
    # The resumed process builds its own registry over the same path.
    restarted = JobRegistry(path)
    assert restarted.load("j1") == job
    assert [j.job_id for j in restarted.jobs()] == ["j1"]


def test_create_refuses_existing_id(tmp_path):
    registry = JobRegistry(str(tmp_path))
    registry.create(make_job())
    with pytest.raises(IngestError, match="already exists"):
        registry.create(make_job())


def test_load_unknown_job(tmp_path):
    with pytest.raises(IngestError, match="no job"):
        JobRegistry(str(tmp_path)).load("ghost")
    assert JobRegistry(str(tmp_path)).try_load("ghost") is None


def test_save_is_atomic_no_tmp_leftover(tmp_path):
    registry = JobRegistry(str(tmp_path))
    registry.create(make_job())
    assert os.listdir(str(tmp_path)) == ["j1.json"]


def test_jobs_listing_ignores_tmp_orphans(tmp_path):
    registry = JobRegistry(str(tmp_path))
    registry.create(make_job("b-job"))
    registry.create(make_job("a-job"))
    # A crash mid-save leaves a .tmp orphan; the listing must not care.
    with open(os.path.join(str(tmp_path), "torn.json.tmp"), "w") as fh:
        fh.write('{"half')
    ids = [job.job_id for job in registry.jobs()]
    assert ids == ["a-job", "b-job"]


def test_corrupt_job_file_is_reported(tmp_path):
    registry = JobRegistry(str(tmp_path))
    with open(registry.path_of("bad"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(IngestError, match="unreadable"):
        registry.load("bad")


def test_unknown_fields_rejected(tmp_path):
    registry = JobRegistry(str(tmp_path))
    with open(registry.path_of("future"), "w") as fh:
        json.dump({"job_id": "future", "surprise": 1}, fh)
    with pytest.raises(IngestError, match="unknown fields"):
        registry.load("future")


def test_job_validation():
    with pytest.raises(IngestError, match="filesystem-safe"):
        make_job("../escape")
    with pytest.raises(IngestError, match="chunk size"):
        make_job(chunk_size=0)
    with pytest.raises(IngestError, match="unknown job state"):
        make_job(state="zombie")
    assert set(JOB_STATES) == {
        "pending", "running", "paused", "failed", "done",
    }
