"""ClusterSpec: the centralised conflict matrix and the serve bridge."""

from __future__ import annotations

import argparse

import pytest

from repro.cluster import ClusterSpec, QueryRequest
from repro.errors import ClusterError

#: Every conflicting combination ``validate()`` must refuse — the old
#: hand-rolled ``banks serve`` checks plus the new topology matrix.
CONFLICTS = [
    # (kwargs, detail fragment)
    ({"topology": "mesh"}, "unknown topology"),
    (
        {"topology": "sharded_replicated", "shards": 2, "replicas": 2},
        "unknown topology",
    ),
    ({"wal_fsync": "sometimes"}, "unknown wal fsync"),
    ({"dispatch": "broadcast"}, "unknown dispatch policy"),
    ({"shard_backend": "fiber"}, "unknown shard backend"),
    ({"replica_backend": "fiber"}, "unknown replica backend"),
    ({"topology": "sharded"}, "needs shards >= 1"),
    ({"shards": 2}, "conflicts with topology 'single'"),
    ({"topology": "replicated"}, "needs replicas >= 1"),
    ({"replicas": 2}, "conflicts with topology 'single'"),
    ({"topology": "sharded", "shards": 2, "replicas": 2}, "conflicts with"),
    ({"workers": 0}, "workers must be >= 1"),
    ({"queue_bound": -1}, "queue_bound must be >= 0"),
    ({"deadline": 0.0}, "deadline must be positive"),
    ({"max_lag": -1}, "max_lag must be >= 0"),
    # The old --replica conflict matrix, spec-shaped.
    ({"follow": True}, "needs wal_path"),
    ({"follow": True, "wal_path": "/w", "live": True}, "conflicts with live"),
    (
        {"topology": "sharded", "shards": 2, "follow": True, "wal_path": "/w"},
        "its own serving mode",
    ),
    (
        {
            "topology": "replicated",
            "replicas": 2,
            "follow": True,
            "wal_path": "/w",
        },
        "its own serving mode",
    ),
    # WAL routing rules.
    ({"wal_path": "/w"}, "publish no mutation epochs"),
    (
        {"topology": "sharded", "shards": 2, "wal_path": "/w"},
        "not wired into the sharded topology; use topology='replicated'",
    ),
    # Ill-typed fields, as a spec file can carry them: refused by name,
    # never deployed (a truthy "no") nor crashed on (a raw TypeError).
    ({"live": "no"}, "live must be true or false"),
    ({"workers": "4"}, "workers must be an integer"),
    ({"workers": True}, "workers must be an integer"),
    ({"shards": 2.5}, "shards must be an integer"),
    ({"max_lag": None}, "max_lag must be an integer"),
    ({"deadline": "1"}, "deadline must be a number or null"),
    ({"db": 5}, "db must be a specifier string"),
    ({"remote_replicas": "http://a:1"}, "remote_replicas must be a list"),
]


class TestConflictMatrix:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        CONFLICTS,
        ids=[str(sorted(c[0].items())) for c in CONFLICTS],
    )
    def test_conflict_fails_through_one_error_path(self, kwargs, fragment):
        with pytest.raises(ClusterError) as caught:
            ClusterSpec(**kwargs)
        # One error type, one message format, whatever the conflict.
        assert str(caught.value).startswith("invalid cluster spec: ")
        assert fragment in str(caught.value)

    def test_valid_topologies_validate(self, tmp_path):
        wal = str(tmp_path / "wal")
        ClusterSpec()  # single
        ClusterSpec(live=True, wal_path=wal)
        ClusterSpec(follow=True, wal_path=wal)
        ClusterSpec(topology="sharded", shards=4, dispatch="route")
        ClusterSpec(topology="replicated", replicas=3, wal_path=wal)
        ClusterSpec(topology="replicated", replicas=3)  # ephemeral WAL

    def test_with_overrides_revalidates(self):
        spec = ClusterSpec(topology="sharded", shards=2)
        assert spec.with_overrides(shards=4).shards == 4
        with pytest.raises(ClusterError):
            spec.with_overrides(shards=0)

    def test_describe_covers_every_field_except_db(self):
        facts = ClusterSpec(topology="sharded", shards=2).describe()
        assert facts["topology"] == "sharded"
        assert facts["shards"] == 2
        assert "db" not in facts


class TestQueryRequest:
    def test_unknown_consistency_refused(self):
        with pytest.raises(ClusterError):
            QueryRequest("x", consistency="linearizable")

    def test_bad_k_refused(self):
        with pytest.raises(ClusterError):
            QueryRequest("x", k=0)


def _serve_args(**overrides) -> argparse.Namespace:
    """``banks serve demo:university`` parsed by the real parser, with
    ``overrides`` set on the namespace."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "demo:university"])
    vars(args).update(overrides)
    return args


class TestFromServeArgs:
    def test_flag_topology_derivation(self):
        assert ClusterSpec.from_serve_args(_serve_args()).topology == "single"
        assert (
            ClusterSpec.from_serve_args(_serve_args(shards=3)).topology
            == "sharded"
        )
        assert (
            ClusterSpec.from_serve_args(_serve_args(replicas=2)).topology
            == "replicated"
        )
        # Shards and replicas together are refused, not combined.
        with pytest.raises(ClusterError) as caught:
            ClusterSpec.from_serve_args(_serve_args(shards=2, replicas=2))
        assert str(caught.value).startswith(
            "invalid cluster spec: replicas=2 conflicts with topology 'sharded'"
        )

    def test_removed_aliases_are_ignored_not_mapped(self, tmp_path):
        """The shim flags no longer exist; a stale namespace carrying
        them (an old script building Namespace by hand) gets the plain
        non-follower spec — not silent alias behaviour."""
        spec = ClusterSpec.from_serve_args(
            _serve_args(replica=True, no_engine=True, inline=True)
        )
        assert spec == ClusterSpec(db="demo:university")

    def test_current_flags_map(self, tmp_path):
        wal = str(tmp_path / "wal")
        spec = ClusterSpec.from_serve_args(_serve_args(follow=True, wal=wal))
        assert spec.follow and spec.wal_path == wal

    def test_conflicts_fail_through_the_spec(self, tmp_path):
        wal = str(tmp_path / "wal")
        for namespace in (
            _serve_args(follow=True),  # --follow without --wal
            _serve_args(follow=True, wal=wal, live=True),
            _serve_args(follow=True, wal=wal, shards=2),
            _serve_args(follow=True, wal=wal, replicas=2),
            _serve_args(wal=wal),  # --wal without a publisher
        ):
            with pytest.raises(ClusterError) as caught:
                ClusterSpec.from_serve_args(namespace)
            assert str(caught.value).startswith("invalid cluster spec: ")

    @pytest.mark.parametrize(
        "flags, fields",
        [
            ([], {}),
            (["--shards", "2"], {"topology": "sharded", "shards": 2}),
            (["--replicas", "2"], {"topology": "replicated", "replicas": 2}),
            (["--live", "--wal", "P"], {"live": True, "wal_path": "P"}),
        ],
        ids=["single", "shards", "replicas", "live-wal"],
    )
    def test_real_argv_equals_the_direct_spec(self, flags, fields):
        """The parser adds no defaults of its own: ``banks serve`` argv
        and the same fields passed to ``ClusterSpec`` deploy alike."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "X", *flags])
        assert ClusterSpec.from_serve_args(args) == ClusterSpec(
            db="X", **fields
        )

    def test_explicit_zero_slow_query_ms_is_validated(self):
        """``--slow-query-ms 0`` is a value, not an unset flag: it
        reaches validation instead of becoming the 500 ms default."""
        spec = ClusterSpec.from_serve_args(_serve_args())
        assert spec.slow_query_ms == 500.0
        with pytest.raises(ClusterError, match="slow_query_ms"):
            ClusterSpec.from_serve_args(_serve_args(slow_query_ms=0))

    def test_explicit_zero_trace_buffer_is_validated(self):
        spec = ClusterSpec.from_serve_args(_serve_args())
        assert spec.trace_buffer == 256
        with pytest.raises(ClusterError, match="trace_buffer"):
            ClusterSpec.from_serve_args(_serve_args(trace_buffer=0))

    def test_remote_replicas_share_the_one_field_list(self, tmp_path):
        """The networked replica set reads the same flags as every
        other topology, conflicting ones included."""
        url = "http://127.0.0.1:8001"
        spec = ClusterSpec.from_serve_args(
            _serve_args(remote_replicas=[url], workers=2)
        )
        assert spec.topology == "replicated"
        assert spec.remote_replicas == (url,) and spec.workers == 2
        with pytest.raises(ClusterError, match="conflicts with replicas"):
            ClusterSpec.from_serve_args(
                _serve_args(remote_replicas=[url], replicas=2)
            )


class TestSpecJson:
    """to_json / from_json: the --spec FILE surface round-trips."""

    def test_round_trip_preserves_every_field(self):
        spec = ClusterSpec(
            db="demo:bibliography",
            topology="replicated",
            replicas=2,
            workers=3,
            queue_bound=32,
            deadline=1.5,
            max_lag=3,
            replica_backend="thread",
            trace_sample="slow",
        )
        assert ClusterSpec.from_json(spec.to_json()) == spec

    def test_remote_replica_tuples_round_trip(self):
        spec = ClusterSpec(
            db="demo:university",
            topology="replicated",
            remote_replicas=(
                "http://127.0.0.1:8001",
                "http://127.0.0.1:8002",
            ),
            remote_token="t",
        )
        clone = ClusterSpec.from_json(spec.to_json())
        assert clone == spec
        assert isinstance(clone.remote_replicas, tuple)

    def test_from_json_validates_on_load(self):
        import json

        payload = json.loads(ClusterSpec(db="demo:university").to_json())
        payload["topology"] = "replicated"  # replicas stay 0: invalid
        with pytest.raises(ClusterError) as caught:
            ClusterSpec.from_json(json.dumps(payload))
        assert "replicas >= 1" in str(caught.value)

    def test_unknown_keys_are_refused(self):
        with pytest.raises(ClusterError) as caught:
            ClusterSpec.from_json('{"db": "demo:university", "shardz": 2}')
        assert "shardz" in str(caught.value)

    def test_copy_mode_is_an_unknown_field(self):
        """Removed fields fail loudly: ``copy_mode`` (every write
        forks), ``engine`` (every single deployment serves through
        the engine), ``dedup`` (primary engines always dedup),
        ``shard_strategy`` (shards are hash-placed) and ``balance``
        (one balancing rule)."""
        for removed in (
            "copy_mode", "engine", "dedup", "shard_strategy", "balance"
        ):
            with pytest.raises(TypeError):
                ClusterSpec(**{removed: False})
        with pytest.raises(ClusterError, match="unknown spec field"):
            ClusterSpec.from_json('{"copy_mode": "delta"}')
        with pytest.raises(ClusterError, match="unknown spec field"):
            ClusterSpec.from_json('{"db": "demo:university", "engine": false}')

    def test_non_object_payload_is_refused(self):
        with pytest.raises(ClusterError):
            ClusterSpec.from_json("[1, 2]")
        with pytest.raises(ClusterError):
            ClusterSpec.from_json("{not json")

    def test_loaded_database_object_is_not_serialisable(self):
        from repro.relational import Database

        spec = ClusterSpec(db=Database("inmem"))
        with pytest.raises(ClusterError) as caught:
            spec.to_json()
        assert "db" in str(caught.value)

    def test_from_json_file(self, tmp_path):
        spec = ClusterSpec(db="demo:university", workers=2)
        path = tmp_path / "cluster.json"
        path.write_text(spec.to_json())
        assert ClusterSpec.from_json_file(str(path)) == spec
