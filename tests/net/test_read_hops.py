"""A read is one hop: no thread per request, and a stream that outlives
its server drops its events instead of failing the search."""

from __future__ import annotations

import json
import logging
import socket
import threading

import pytest

from repro.cluster import Cluster, ClusterSpec, QueryRequest
from repro.net import BanksClient, HttpServer

QUERIES = ("alice seminar", "bob", "seminar", "alice")


@pytest.fixture(scope="module")
def university():
    from repro.datasets import generate_university

    return generate_university()[0]


def _stream_events(client, query):
    return [name for name, _data in client.query_stream(query, k=3)]


def test_reads_start_no_thread(university, monkeypatch):
    with Cluster(ClusterSpec(), database=university.fork()) as cluster:
        server = HttpServer(cluster).start_background()
        try:
            client = BanksClient(server.url)
            # Warm-up: every pool and connection path exists once.
            list(cluster.query_stream(QUERIES[0]))
            client.query(QUERIES[0], k=3)
            _stream_events(client, QUERIES[0])
            started = []
            start = threading.Thread.start

            def counting_start(thread):
                started.append(thread.name)
                return start(thread)

            monkeypatch.setattr(threading.Thread, "start", counting_start)
            for index in range(20):
                query = QUERIES[index % len(QUERIES)]
                events = list(cluster.query_stream(query, k=3))
                assert events[-1][0] == "result"
                assert client.query(query, k=3)["answers"]
                assert _stream_events(client, query)[-1] == "result"
            monkeypatch.undo()
            assert started == []
        finally:
            server.stop()


def _open_stream(port: int, query: str, k: int) -> socket.socket:
    """POST ``/v1/query/stream`` and read up to the end of the response
    headers."""
    body = json.dumps({"query": query, "k": k}).encode("utf-8")
    head = (
        "POST /v1/query/stream HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    connection = socket.create_connection(("127.0.0.1", port), timeout=30)
    connection.sendall(head.encode("latin-1") + body)
    received = b""
    while b"\r\n\r\n" not in received:
        chunk = connection.recv(4096)
        assert chunk, "server closed before the response headers"
        received += chunk
    assert received.startswith(b"HTTP/1.1 200")
    return connection


def test_stopping_the_server_mid_stream(university, monkeypatch, caplog):
    """The search outlives the stopped loop: its answers are dropped,
    nothing raises on a thread or in a future callback, and the cluster
    serves on."""
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    caplog.set_level(logging.ERROR, logger="concurrent.futures")
    spec = ClusterSpec(workers=1)
    with Cluster(spec, database=university.fork()) as cluster:
        gate, entered = threading.Event(), threading.Event()
        search = cluster.banks.search

        def gated(*args, **kwargs):
            entered.set()
            assert gate.wait(30)
            return search(*args, **kwargs)

        cluster.banks.search = gated
        server = HttpServer(cluster).start_background()
        connection = _open_stream(server.port, "alice seminar", 50)
        try:
            assert entered.wait(30)
            server.stop()
            gate.set()
            # One worker: the next read runs after the orphaned stream.
            result = cluster.query(QueryRequest("alice seminar", k=3))
            assert result.answers
        finally:
            gate.set()
            connection.close()
        metrics = cluster.metrics.snapshot()
        assert metrics["errors_total"] == 0
        assert metrics["completed_total"] == 2
    assert hooked == []
    assert [r for r in caplog.records if r.name == "concurrent.futures"] == []
