"""End-to-end tests of the HTTP tier over real loopback sockets.

One bibliography cluster behind one server serves the whole module;
the rate-limit test brings up its own tightly-budgeted server so the
429s never bleed into other tests' budgets.
"""

from __future__ import annotations

import json
import http.client

import pytest

from repro.cluster import Cluster, ClusterSpec, QueryRequest
from repro.core.oracle import same
from repro.datasets import DEMO_QUERY_SETS
from repro.errors import NetError
from repro.net import BanksClient, HttpServer, NetConfig

TOKEN = "test-token-1"
DEMO_QUERIES = DEMO_QUERY_SETS["bibliography"]


@pytest.fixture(scope="module")
def cluster():
    with Cluster(ClusterSpec(db="demo:bibliography")) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def server(cluster):
    server = HttpServer(
        cluster, NetConfig(tokens=(TOKEN,))
    ).start_background()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(server):
    return BanksClient(server.url, token=TOKEN)


def _wire_answers(document):
    """Decoded ``(root, relevance)`` pairs; JSON turns root tuples into lists."""
    return [(tuple(a["root"]), a["relevance"]) for a in document["answers"]]


class TestAuth:
    def test_missing_token_is_401(self, server):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url).query("sudarshan")
        assert caught.value.status == 401

    def test_wrong_token_is_401(self, server):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url, token="wrong").query("sudarshan")
        assert caught.value.status == 401

    def test_health_needs_no_token(self, server):
        health = BanksClient(server.url).health()
        assert health["status"] == "ok"
        assert health["auth"] == "token"
        assert health["version"] == "v1"

    def test_metrics_needs_token(self, server, client):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url).get("/metrics")
        assert caught.value.status == 401
        assert "banks_engine_requests_total" in client.get("/metrics")


class TestRateLimit:
    def test_burst_exhaustion_is_429(self, cluster):
        server = HttpServer(
            cluster, NetConfig(rate=0.001, burst=2)
        ).start_background()
        try:
            limited = BanksClient(server.url)
            limited.query("sudarshan", k=1)
            limited.query("sudarshan", k=1)
            with pytest.raises(NetError) as caught:
                limited.query("sudarshan", k=1)
            assert caught.value.status == 429
            assert "rate limit" in str(caught.value)
            # Health stays reachable for load balancers mid-shed.
            assert limited.health()["status"] == "ok"
        finally:
            server.stop()


class TestQueryParity:
    def test_http_matches_in_process_on_all_demo_queries(
        self, cluster, client
    ):
        """The acceptance gate: /v1/query returns parity-identical
        roots and scores to Cluster.query for every demo query."""
        for query in DEMO_QUERIES:
            local = cluster.query(QueryRequest(query, k=5)).answers
            wire = _wire_answers(client.query(query, k=5))
            assert same(wire, local), query

    def test_pagination_slices_the_same_ranking(self, client):
        query = DEMO_QUERIES[0]
        full = client.query(query, k=10)
        page = client.query(query, k=2, offset=1)
        assert page["offset"] == 1 and page["k"] == 2
        assert same(_wire_answers(page), _wire_answers(full)[1:3])
        ranks = [a["rank"] for a in page["answers"]]
        assert ranks == list(range(1, 1 + len(ranks)))

    def test_get_form_matches_post(self, server, client):
        query = DEMO_QUERIES[0].replace(" ", "+")
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        posted = client.query(DEMO_QUERIES[0], k=3)
        connection.request(
            "GET",
            f"/v1/query?q={query}&k=3",
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 200
        assert same(_wire_answers(document), _wire_answers(posted))


class TestStreaming:
    def test_sse_delivers_answers_before_completion(self, client):
        events = list(client.query_stream(DEMO_QUERIES[0], k=5))
        kinds = [name for name, _ in events]
        assert kinds[-1] == "result"
        answer_count = kinds.count("answer")
        assert answer_count >= 1
        # Every answer frame precedes the result frame.
        assert kinds[:answer_count] == ["answer"] * answer_count

    def test_streamed_answers_match_the_result_document(self, client):
        events = list(client.query_stream(DEMO_QUERIES[1], k=5))
        answers = [data for name, data in events if name == "answer"]
        result = [data for name, data in events if name == "result"][0]
        assert [a["root"] for a in answers] == [
            a["root"] for a in result["answers"]
        ]
        assert [a["rank"] for a in answers] == list(range(len(answers)))

    def test_stream_matches_non_streamed_query(self, client):
        query = DEMO_QUERIES[2]
        events = list(client.query_stream(query, k=5))
        result = [data for name, data in events if name == "result"][0]
        assert same(_wire_answers(result), _wire_answers(client.query(query, k=5)))

    def test_stream_rejects_bad_consistency_before_streaming(self, client):
        # Validation fails before SSE headers go out, so the refusal
        # is an ordinary 400 response, not an in-stream error event.
        with pytest.raises(NetError) as caught:
            list(
                client.query_stream("sudarshan", consistency="linearizable")
            )
        assert caught.value.status == 400
        assert "linearizable" in str(caught.value)


class TestTracePropagation:
    def test_trace_header_lands_in_the_store(self, cluster, client):
        trace_id = "net-e2e-trace-0001"
        document = client.query(
            DEMO_QUERIES[0], k=3, trace_id=trace_id
        )
        assert document["trace_id"] == trace_id
        record = cluster.obs.store.get(trace_id)
        assert record is not None
        assert record.trace_id == trace_id

    def test_stream_carries_the_trace_id(self, cluster, client):
        trace_id = "net-e2e-trace-0002"
        events = list(
            client.query_stream(DEMO_QUERIES[1], k=3, trace_id=trace_id)
        )
        result = [data for name, data in events if name == "result"][0]
        assert result["trace_id"] == trace_id
        assert cluster.obs.store.get(trace_id) is not None


class TestErrors:
    def test_unknown_route_is_404(self, server):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url, token=TOKEN)._request(
                "GET", "/v1/nothing"
            )
        assert caught.value.status == 404

    def test_wrong_method_is_405(self, server):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url, token=TOKEN)._request(
                "POST", "/v1/health", {"x": 1}
            )
        assert caught.value.status == 405

    def test_unknown_field_is_400(self, server):
        with pytest.raises(NetError) as caught:
            BanksClient(server.url, token=TOKEN)._request(
                "POST", "/v1/query", {"query": "x", "nope": 1}
            )
        assert caught.value.status == 400
        assert "nope" in str(caught.value)

    def test_bad_consistency_is_400(self, client):
        with pytest.raises(NetError) as caught:
            client.query("x", consistency="linearizable")
        assert caught.value.status == 400

    def test_malformed_json_body_is_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.request(
            "POST",
            "/v1/query",
            body=b"{not json",
            headers={
                "Authorization": f"Bearer {TOKEN}",
                "Content-Type": "application/json",
            },
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "JSON" in document["error"]
