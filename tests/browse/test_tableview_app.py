"""Tests for table/tuple pages, the schema browser, and the browse app."""

import pytest

from repro.browse.app import BrowseApp
from repro.cluster import Cluster, ClusterSpec
from repro.browse.hyperlink import BrowseState
from repro.browse.schema_browser import render_schema
from repro.browse.tableview import build_relation, render_row_page, render_table_page
from repro.relational import load_sql


@pytest.fixture
def app(figure1_db):
    with Cluster(ClusterSpec(), database=figure1_db) as cluster:
        yield BrowseApp(cluster)


@pytest.fixture
def live_app(figure1_db):
    spec = ClusterSpec(live=True, workers=1)
    with Cluster(spec, database=figure1_db) as cluster:
        yield BrowseApp(cluster)


def _published(app) -> int:
    return app.cluster.backend.snapshots.version


class TestBuildRelation:
    def test_plain_table(self, figure1_db):
        relation = build_relation(figure1_db, BrowseState("author"))
        assert len(relation) == 3

    def test_join_selection_drop_sort(self, figure1_db):
        state = (
            BrowseState("writes")
            .with_join(0, "f")  # writes -> author
            .with_selection("author.name", "=", "Byron Dom")
            .with_drop("writes.paper_id")
            .with_sort("author.name")
        )
        relation = build_relation(figure1_db, state)
        assert len(relation) == 1
        assert "writes.paper_id" not in relation.columns

    def test_reverse_join(self, figure1_db):
        state = BrowseState("author").with_join(0, "r")
        # author has no FKs: join index out of range.
        from repro.errors import BrowseError

        with pytest.raises(BrowseError):
            build_relation(figure1_db, state)

    def test_integer_selection_coerced_from_url(self):
        database = load_sql(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER);"
            "INSERT INTO t VALUES (1, 10); INSERT INTO t VALUES (2, 20);",
            "n",
        )
        state = BrowseState("t").with_selection("t.v", ">", "15")
        relation = build_relation(database, state)
        assert len(relation) == 1


class TestPages:
    def test_table_page_has_controls_and_links(self, figure1_db):
        html = render_table_page(figure1_db, BrowseState("writes"))
        assert "[drop]" in html
        assert "[sort]" in html
        assert "[group]" in html
        assert "/row/writes/0" in html
        assert "[join referenced]" in html

    def test_grouped_page(self, figure1_db):
        state = (
            BrowseState("writes")
            .with_group_by("writes.paper_id")
            .with_expand("ChakrabartiSD98")
        )
        html = render_table_page(figure1_db, state)
        assert "(3 rows)" in html
        assert "[ungroup]" in html

    def test_row_page_shows_references_both_ways(self, figure1_db):
        html = render_row_page(figure1_db, ("author", 0))
        assert "Referenced by" in html
        assert "/row/writes/0" in html
        writes_html = render_row_page(figure1_db, ("writes", 0))
        assert "References" in writes_html
        assert "/row/author/0" in writes_html

    def test_schema_page(self, figure1_db):
        html = render_schema(figure1_db)
        assert "FK -&gt; author" in html or "FK -> author" in html
        assert "writes" in html and "PK" in html

    def test_hostile_values_escaped(self):
        database = load_sql(
            "CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT);",
            "x",
        )
        database.insert("t", ["<script>alert(1)</script>", "<img onerror=x>"])
        html = render_table_page(database, BrowseState("t"))
        assert "<script>alert" not in html
        assert "<img onerror" not in html


class TestApp:
    def test_home_lists_tables(self, app):
        status, html = app.handle("/", "")
        assert status == "200 OK"
        for table in ("author", "paper", "writes", "cites"):
            assert table in html

    def test_search_route(self, app):
        status, html = app.handle("/search", "q=soumen+sunita")
        assert status == "200 OK"
        assert "relevance" in html
        assert "Soumen Chakrabarti" in html

    def test_search_empty_query(self, app):
        status, html = app.handle("/search", "q=")
        assert "Empty query" in html

    def test_unknown_routes_404(self, app):
        assert app.handle("/nope", "")[0] == "404 Not Found"
        assert app.handle("/table/ghost", "")[0] == "404 Not Found"
        assert app.handle("/row/author/999", "")[0] == "404 Not Found"
        assert app.handle("/row/author/NaN", "")[0] == "404 Not Found"


class TestMutateEndpoint:
    def test_read_only_deployment_reports_itself(self, app):
        status, html = app.handle("/mutate", "op=insert&table=paper&v=x&v=y")
        assert status == "200 OK"
        assert "read-only" in html

    def test_read_only_flag_refuses_writes_over_mutable_facade(
        self, figure1_db, tmp_path
    ):
        """A WAL follower serves a mutable IncrementalBANKS, but its
        state is owned by the primary's log: /mutate must refuse even
        though the facade could write."""
        wal = str(tmp_path / "wal")
        primary = ClusterSpec(live=True, wal_path=wal)
        with Cluster(primary, database=figure1_db.fork()):
            pass
        follower = ClusterSpec(follow=True, wal_path=wal)
        with Cluster(follower, database=figure1_db) as cluster:
            app = BrowseApp(cluster)
            status, html = app.handle(
                "/mutate", "op=insert&table=paper&v=x&v=y"
            )
            assert status == "200 OK"
            assert "read-only" in html
            assert _published(app) == 0  # nothing published

    def test_insert_through_engine_bumps_epoch(self, live_app):
        app = live_app
        status, html = app.handle(
            "/mutate",
            "op=insert&table=paper&v=NewP99&v=Epoch+Based+Reclamation",
        )
        assert status == "200 OK"
        assert "inserted paper:" in html
        assert "epoch: 1" in html
        assert _published(app) == 1
        # The published version is what /search now reads.
        status, html = app.handle("/search", "q=reclamation")
        assert "Epoch Based Reclamation" in html

    def test_update_and_delete_round_trip(self, live_app):
        app = live_app
        _status, html = app.handle(
            "/mutate", "op=insert&table=paper&v=TmpP&v=Doomed+Title"
        )
        rid = html.split("inserted paper:")[1].split("<")[0].strip()
        _status, html = app.handle(
            "/mutate",
            f"op=update&table=paper&rid={rid}&set=title%3DRenamed+Title",
        )
        assert f"updated paper:{rid}" in html
        _status, html = app.handle(
            "/mutate", f"op=delete&table=paper&rid={rid}"
        )
        assert f"deleted paper:{rid}" in html
        assert _published(app) == 3

    def test_malformed_requests_render_errors(self, live_app):
        app = live_app
        for query_string in (
            "",
            "op=explode",
            "op=insert&table=paper",
            "op=update&table=paper&rid=0",
            "op=delete&table=ghost&rid=0",
        ):
            status, html = app.handle("/mutate", query_string)
            assert status == "200 OK"
            assert "Error" in html or "needs" in html
        assert _published(app) == 0

    def test_shard_router_mutations_via_endpoint(self, figure1_db):
        spec = ClusterSpec(topology="sharded", shards=2, shard_backend="thread")
        with Cluster(spec, database=figure1_db) as cluster:
            app = BrowseApp(cluster)
            status, html = app.handle(
                "/mutate",
                "op=insert&table=paper&v=ShardP&v=Routed+Mutation+Study",
            )
            assert status == "200 OK"
            assert "inserted paper:" in html
            assert "epoch: 1" in html
            status, html = app.handle("/shards", "")
            assert "epoch: 1" in html
            assert "1 routed mutation(s)" in html
            status, html = app.handle("/search", "q=routed+mutation")
            assert "Routed Mutation Study" in html
