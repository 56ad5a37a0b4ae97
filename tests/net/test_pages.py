"""The one server: browse pages beside the JSON API, over real sockets.

Every GET outside ``/v1/`` and ``/metrics`` is a
:class:`~repro.browse.app.BrowseApp` page behind the same auth and
rate limit as the API; a request the server cannot parse still gets a
JSON error before the connection closes.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.browse.app import BrowseApp
from repro.cluster import Cluster, ClusterSpec
from repro.datasets import generate_university
from repro.net import BanksClient, HttpServer, NetConfig

TOKEN = "pages-token"

TOPOLOGIES = {
    "single": {},
    "live": {"live": True},
    "sharded": {"topology": "sharded", "shards": 2, "shard_backend": "thread"},
    "replicated": {
        "topology": "replicated",
        "replicas": 2,
        "replica_backend": "thread",
    },
}

PAGES = (
    "/",
    "/search?q=alice+seminar",
    "/table/student",
    "/table/registration?sort=registration.course_id",
    "/row/student/0",
    "/row/course/1",
)


@pytest.fixture(scope="module")
def university():
    return generate_university()[0]


def _fetch(server, path, token=None):
    """``(status, content_type, body)`` of one GET over a socket."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    try:
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        body = response.read().decode("utf-8")
        return response.status, response.getheader("Content-Type"), body
    finally:
        connection.close()


def _raw(server, payload: bytes) -> bytes:
    """Send raw bytes, read the reply to EOF."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def served(request, university):
    spec = ClusterSpec(**TOPOLOGIES[request.param])
    with Cluster(spec, database=university.fork()) as cluster:
        server = HttpServer(cluster).start_background()
        try:
            yield cluster, server
        finally:
            server.stop()


@pytest.fixture(scope="module")
def open_server(university):
    with Cluster(ClusterSpec(), database=university.fork()) as cluster:
        server = HttpServer(cluster).start_background()
        try:
            yield server
        finally:
            server.stop()


class TestPagesOverTheWire:
    @pytest.mark.parametrize("path", PAGES)
    def test_page_matches_the_app(self, served, path):
        cluster, server = served
        route, _, query = path.partition("?")
        status, body, content_type = BrowseApp(cluster).handle_full(route, query)
        assert _fetch(server, path) == (
            int(status.split()[0]),
            content_type,
            body,
        )
        assert status == "200 OK"

    def test_page_mutation_is_visible_to_the_api(self, university):
        spec = ClusterSpec(live=True)
        with Cluster(spec, database=university.fork()) as cluster:
            server = HttpServer(cluster).start_background()
            try:
                client = BanksClient(server.url)
                page = client.get(
                    "/mutate?op=insert&table=student&v=S990"
                    "&v=Zebulon+Quixote&v=BIGDEPT"
                )
                table, _, rid = (
                    page.split("inserted ")[1].split("<")[0].partition(":")
                )
                document = client.query("zebulon quixote", k=3)
            finally:
                server.stop()
        assert document["epoch"] == 1
        roots = [tuple(answer["root"]) for answer in document["answers"]]
        assert (table, int(rid)) in roots


class TestAdmission:
    def test_pages_need_the_token(self, university):
        spec = ClusterSpec(live=True)
        with Cluster(spec, database=university.fork()) as cluster:
            config = NetConfig(tokens=(TOKEN,))
            server = HttpServer(cluster, config).start_background()
            try:
                for path in ("/", "/mutate"):
                    assert _fetch(server, path)[0] == 401
                    assert _fetch(server, path, token="wrong")[0] == 401
                    assert _fetch(server, path, token=TOKEN)[0] == 200
                # The refused /mutate wrote nothing.
                assert cluster.epoch == 0
                assert _fetch(server, "/v1/health")[0] == 200
            finally:
                server.stop()


class TestRouting:
    def test_unknown_api_route_is_a_json_404(self, open_server):
        status, content_type, body = _fetch(open_server, "/v1/nothing")
        assert status == 404
        assert content_type == "application/json"
        assert json.loads(body)["status"] == 404

    def test_unknown_page_is_an_html_404(self, open_server):
        status, content_type, body = _fetch(open_server, "/nothing")
        assert status == 404
        assert content_type.startswith("text/html")
        assert "No route" in body

    def test_pages_are_get_only(self, open_server):
        reply = _raw(open_server, b"POST / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 405 ")


def _error_reply(reply: bytes):
    """``(status, headers, document)`` of one JSON error response."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


class TestUnparseableRequests:
    """Each used to read back ``b''``: the parse error escaped the
    connection handler and the socket closed with no response."""

    def _assert_refused(self, reply: bytes, status: int, fragment: str):
        code, headers, document = _error_reply(reply)
        assert code == status
        assert headers["Connection"] == "close"
        assert document["status"] == status
        assert fragment in document["error"]

    def test_oversized_body_is_413(self, open_server):
        reply = _raw(
            open_server,
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        )
        self._assert_refused(reply, 413, "body too large")

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, open_server, length):
        reply = _raw(
            open_server,
            b"POST /v1/query HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        self._assert_refused(reply, 400, "Content-Length")

    def test_garbage_request_line_is_400(self, open_server):
        reply = _raw(open_server, b"GARBAGE\r\n\r\n")
        self._assert_refused(reply, 400, "malformed request line")

    def test_oversized_head_is_413(self, open_server):
        filler = b"X-Filler: " + b"a" * 70_000 + b"\r\n"
        reply = _raw(open_server, b"GET / HTTP/1.1\r\n" + filler + b"\r\n")
        self._assert_refused(reply, 413, "head too large")
