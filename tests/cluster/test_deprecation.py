"""Removed serve flags: the parser rejects them outright."""

from __future__ import annotations

import io
import warnings

import pytest

from repro.cli import main


def run_cli(*argv: str):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestRemovedServeFlags:
    """The one-release shims (--replica, --no-engine), the inline mode
    that replaced --no-engine, the second server's --http and
    --copy-mode are gone: the parser rejects them outright instead of
    warning."""

    def test_replica_flag_is_rejected(self, tmp_path):
        wal = str(tmp_path / "wal")
        with pytest.raises(SystemExit) as caught:
            run_cli(
                "serve", "demo:university", "--check", "--replica",
                "--wal", wal,
            )
        assert caught.value.code == 2

    def test_no_engine_flag_is_rejected(self):
        """Neither the old --no-engine nor its --inline successor
        survives: every single deployment serves through the engine."""
        for flag in ("--no-engine", "--inline"):
            with pytest.raises(SystemExit) as caught:
                run_cli("serve", "demo:university", "--check", flag)
            assert caught.value.code == 2

    def test_http_flag_is_rejected(self):
        with pytest.raises(SystemExit) as caught:
            run_cli("serve", "demo:university", "--check", "--http")
        assert caught.value.code == 2

    def test_copy_mode_flag_is_rejected(self):
        """Every write forks; there is no capture mode left to pick."""
        with pytest.raises(SystemExit) as caught:
            run_cli("serve", "demo:university", "--check", "--copy-mode", "delta")
        assert caught.value.code == 2

    def test_replacement_flags_serve(self, tmp_path):
        from repro.serve.snapshot import SnapshotStore
        from repro.cli import load_database

        wal = str(tmp_path / "wal")
        store = SnapshotStore.open(load_database("demo:university"), wal)
        store.mutate(
            lambda f: f.insert("student", ["S901", "Old Flagg", "BIGDEPT"])
        )
        store.close()
        status, output = run_cli(
            "serve", "demo:university", "--check", "--follow", "--wal", wal
        )
        assert status == 0
        assert "replica caught up" in output

    def test_new_flags_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            status, _ = run_cli("serve", "demo:university", "--check")
            assert status == 0
