"""Tests for the command-line interface and the result cache."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import load_database, main
from repro.core.cache import CachedBanks, ResultCache
from repro.errors import QueryError, ReproError
from repro.relational import load_sql
from repro.relational.sqlite_adapter import dump_to_sqlite


def run_cli(*argv: str):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestLoadDatabase:
    def test_demo_datasets(self):
        for name in ("thesis", "tpcd", "university"):
            database = load_database(f"demo:{name}")
            assert database.total_rows() > 0

    def test_unknown_demo(self):
        with pytest.raises(ReproError):
            load_database("demo:ghost")

    def test_unknown_scheme(self):
        with pytest.raises(ReproError):
            load_database("oracle:prod")

    def test_sqlite_round_trip(self, tmp_path):
        database = load_sql(
            """
            CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT);
            INSERT INTO item VALUES (1, 'hammer');
            """,
            "t",
        )
        path = str(tmp_path / "t.db")
        dump_to_sqlite(database, path)
        loaded = load_database(f"sqlite:{path}")
        assert loaded.total_rows() == 1

    def test_missing_sqlite_file_fails_without_creating_it(self, tmp_path):
        path = tmp_path / "typo.db"
        status, _output = run_cli("search", f"sqlite:{path}", "alice")
        assert status == 1
        assert not path.exists()


class TestCommands:
    def test_stats(self):
        status, output = run_cli("stats", "demo:university")
        assert status == 0
        assert "graph nodes" in output
        assert "index terms" in output

    def test_search(self):
        status, output = run_cli(
            "search", "demo:university", "alice", "seminar", "-k", "3"
        )
        assert status == 0
        assert "relevance=" in output
        assert "answer(s) in" in output

    def test_search_no_answers(self):
        status, output = run_cli("search", "demo:university", "qqqzzz")
        assert status == 0
        assert "no answers" in output

    def test_serve_check(self):
        status, output = run_cli("serve", "demo:university", "--check")
        assert status == 0
        assert "200" in output
        # One keyword query from the served rows, both wire forms.
        assert "POST /v1/query 'school' -> 200, 1 answer(s)" in output
        assert "1 answer event(s), equal to the result" in output

    def test_serve_check_with_trace_knobs(self):
        status, output = run_cli(
            "serve",
            "demo:university",
            "--check",
            "--trace-sample",
            "0.5",
            "--slow-query-ms",
            "100",
            "--trace-buffer",
            "32",
        )
        assert status == 0
        assert "GET /trace -> 200" in output
        assert "GET /debug/slow -> 200" in output

    def test_serve_rejects_bad_trace_sample(self):
        status = main(
            ["serve", "demo:university", "--check", "--trace-sample", "bogus"],
            out=io.StringIO(),
        )
        assert status == 1

    def test_trace_prints_span_tree_and_profile(self):
        status, output = run_cli("trace", "demo:university", "alice", "-k", "3")
        assert status == 0
        assert "trace " in output
        assert "engine.execute" in output
        assert "search.kernel" in output
        assert "profile: heap_pops=" in output
        assert " lanes_started=" in output
        assert " us_per_pop=" in output
        assert "answer(s) via engine" in output

    def test_trace_sharded_topology(self):
        status, output = run_cli(
            "trace", "demo:university", "alice", "--shards", "2"
        )
        assert status == 0
        assert "router.search" in output
        assert "shard.search" in output

    def test_shards_with_replicas_are_refused(self, capsys):
        """A deployment is sharded or replicated, not both: ``trace``
        and ``serve`` refuse the pair through the spec's one error."""
        for command in (
            ("trace", "demo:university", "alice"),
            ("serve", "demo:university", "--check"),
        ):
            status, output = run_cli(*command, "--shards", "2", "--replicas", "2")
            assert status == 1 and output == ""
            assert "invalid cluster spec: replicas=2" in capsys.readouterr().err

    def test_serve_refuses_an_ill_typed_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"db": "demo:university", "live": "no"}')
        status, output = run_cli("serve", "--spec", str(path), "--check")
        assert status == 1 and output == ""
        err = capsys.readouterr().err
        assert "invalid cluster spec: live must be true or false" in err

    def test_search_into_a_closed_pipe_exits_quietly(self):
        # ``banks search ... | head -1``: ~120 KB of answers, about twice
        # what a pipe holds, so the writer is still printing when the
        # reader goes away after the first line.
        src = str(Path(repro.__file__).resolve().parents[1])
        argv = ["search", "-k", "1000", "demo:bibliography", "paper", "writes"]
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        ) as process:
            assert process.stdout.readline().startswith(b"#1 relevance=")
            process.stdout.close()
            stderr = process.stderr.read().decode()
        assert "Traceback" not in stderr, stderr
        assert process.returncode == 1

    def test_sweep_requires_bibliography(self):
        status = main(["sweep", "demo:university"], out=io.StringIO())
        assert status == 1

    def test_error_paths_return_one(self):
        status = main(["stats", "demo:ghost"], out=io.StringIO())
        assert status == 1

    def test_jobs_lists_without_creating_the_directory(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "typo"
        status, output = run_cli("jobs", "--jobs-dir", str(missing))
        assert status == 1 and output == ""
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()
        # ingest is what creates the registry; jobs then lists it.
        jobs_dir = str(tmp_path / "made" / "jobs")
        assert run_cli(
            "ingest", "synth:0", "synth:20", "--jobs-dir", jobs_dir
        )[0] == 0
        status, output = run_cli("jobs", "--jobs-dir", jobs_dir)
        assert status == 0
        assert "ingest" in output and "done" in output


class TestWalCommands:
    """The durable-log surface: serve --wal/--follow and recover."""

    def _write_epochs(self, wal: str) -> None:
        """Publish a few mutation epochs for demo:university into a
        WAL, the way banks serve --live --wal would."""
        from repro.serve.snapshot import SnapshotStore

        store = SnapshotStore.open(load_database("demo:university"), wal)
        store.mutate(
            lambda f: f.insert("student", ["S901", "Walter Logmann", "BIGDEPT"])
        )
        store.mutate(
            lambda f: f.update(("student", 0), {"name": "Alice Hubward-Logg"})
        )
        store.close()

    def test_serve_live_with_wal_check(self, tmp_path):
        wal = str(tmp_path / "wal")
        status, output = run_cli(
            "serve", "demo:university", "--check", "--live", "--wal", wal
        )
        assert status == 0
        assert "GET /metrics -> 200" in output

    def test_serve_live_recovers_existing_wal(self, tmp_path):
        wal = str(tmp_path / "wal")
        self._write_epochs(wal)
        status, output = run_cli(
            "serve", "demo:university", "--check", "--live", "--wal", wal
        )
        assert status == 0
        assert "recovered 2 epoch(s)" in output

    def test_serve_follow_check(self, tmp_path):
        wal = str(tmp_path / "wal")
        self._write_epochs(wal)
        status, output = run_cli(
            "serve", "demo:university", "--check", "--follow", "--wal", wal
        )
        assert status == 0
        assert "replica caught up: 2 epoch(s) applied, lag 0" in output

    def test_recover_replays_and_spot_checks(self, tmp_path):
        wal = str(tmp_path / "wal")
        self._write_epochs(wal)
        status, output = run_cli(
            "recover",
            "demo:university",
            "--wal",
            wal,
            "--query",
            "walter logmann",
        )
        assert status == 0
        assert "recovered to  : epoch 2" in output
        assert "Walter Logmann" in output

    def test_second_ingest_into_one_wal_is_refused(self, tmp_path):
        """A second job into the same WAL continues the recovered
        state, so re-ingesting the same rows fails on their keys before
        anything is appended — and the log still recovers."""
        wal = str(tmp_path / "wal")
        ingest = ["ingest", "synth:0", "synth:30", "--chunk", "50", "--wal", wal]
        status, first = run_cli(*ingest, "--job-id", "a")
        assert status == 0
        epoch = first.split("store epoch   : ")[1].split()[0]
        assert int(epoch) > 0
        status, _second = run_cli(*ingest, "--job-id", "b")
        assert status == 1
        status, output = run_cli("recover", "synth:0", "--wal", wal)
        assert status == 0
        assert f"recovered to  : epoch {epoch}\n" in output

    def test_recover_reports_a_skipped_checkpoint(self, tmp_path):
        """A corrupt checkpoint is passed over, named with its reason,
        and the log replays from the base instead."""
        wal = str(tmp_path / "wal")
        self._write_epochs(wal)
        status, output = run_cli("checkpoint", "demo:university", "--wal", wal)
        assert status == 0
        checkpoints = tmp_path / "wal" / "checkpoints"
        (path,) = checkpoints.glob("*.ckpt")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        status, output = run_cli(
            "recover", "demo:university", "--wal", wal,
            "--checkpoints", str(checkpoints), "--query", "walter logmann",
        )
        assert status == 0
        assert f"skipped       : {path} (crc)\n" in output
        assert "recovered to  : epoch 2" in output
        assert "Walter Logmann" in output

    def test_recover_refuses_a_missing_checkpoint_directory(
        self, tmp_path, capsys
    ):
        wal = str(tmp_path / "wal")
        self._write_epochs(wal)
        missing = tmp_path / "no-ckpt"
        status, _output = run_cli(
            "recover", "demo:university", "--wal", wal,
            "--checkpoints", str(missing),
        )
        assert status == 1
        assert f"no checkpoint directory at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    def test_wal_flag_combinations_are_validated(self, tmp_path):
        wal = str(tmp_path / "wal")
        # --follow without --wal
        assert run_cli("serve", "demo:university", "--check", "--follow")[0] == 1
        # --follow combined with another serving mode (it would be
        # silently ignored and serve stale base data forever)
        for conflict in ("--shards", "--live"):
            argv = [
                "serve", "demo:university", "--check",
                "--follow", "--wal", wal, conflict,
            ]
            if conflict == "--shards":
                argv.append("2")
            assert run_cli(*argv)[0] == 1
        # --wal without --live/--follow
        assert (
            run_cli("serve", "demo:university", "--check", "--wal", wal)[0]
            == 1
        )
        # recover from a missing WAL directory
        assert (
            run_cli("recover", "demo:university", "--wal", wal)[0] == 1
        )


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1

    def test_stats_counters(self):
        cache = ResultCache()
        cache.get("missing")
        cache.put("x", 1)
        cache.get("x")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(QueryError):
            ResultCache(capacity=0)


@pytest.fixture
def cached_banks():
    database = load_sql(
        """
        CREATE TABLE author (aid TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE paper (pid TEXT PRIMARY KEY, title TEXT NOT NULL);
        CREATE TABLE writes (
            aid TEXT NOT NULL REFERENCES author(aid),
            pid TEXT NOT NULL REFERENCES paper(pid)
        );
        INSERT INTO author VALUES ('a1', 'ada lovelace');
        INSERT INTO paper VALUES ('p1', 'analytical engines');
        INSERT INTO writes VALUES ('a1', 'p1');
        """,
        "c",
    )
    return CachedBanks(database, cache_capacity=8)


class TestCachedBanks:
    def test_second_search_hits_cache(self, cached_banks):
        first = cached_banks.search("ada engines")
        second = cached_banks.search("ada engines")
        assert cached_banks.cache.stats.hits == 1
        assert [a.tree for a in first] == [a.tree for a in second]

    def test_query_normalisation_shares_entries(self, cached_banks):
        cached_banks.search("ADA   Engines")
        cached_banks.search("ada engines")
        assert cached_banks.cache.stats.hits == 1

    def test_different_scoring_misses(self, cached_banks):
        from repro.core.scoring import ScoringConfig

        cached_banks.search("ada")
        cached_banks.search("ada", scoring=ScoringConfig(lambda_weight=0.8))
        assert cached_banks.cache.stats.hits == 0

    def test_config_overrides_bypass_cache(self, cached_banks):
        cached_banks.search("ada", output_heap_size=50)
        cached_banks.search("ada", output_heap_size=50)
        assert cached_banks.cache.stats.requests == 0

    def test_invalidate(self, cached_banks):
        cached_banks.search("ada")
        cached_banks.invalidate()
        cached_banks.search("ada")
        assert cached_banks.cache.stats.hits == 0
