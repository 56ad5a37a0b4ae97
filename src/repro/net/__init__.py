"""repro.net — the cluster over HTTP, answers streamed as found.

The serving tier (paper Sec. 6 envisions BANKS behind a web front
end): a zero-dependency asyncio HTTP server over
:class:`repro.cluster.Cluster`, a blocking client, and the
:class:`RemoteReplica` adapter that lets a local
:class:`~repro.cluster.replicaset.ReplicaSet` balance over serving
processes on other machines.

* :class:`HttpServer` / :class:`NetConfig` — the one server behind
  ``banks serve``: ``/v1/query`` (JSON, paginated),
  ``/v1/query/stream`` (SSE, each answer tree flushed the moment the
  backward expansion emits it), ``/v1/health``, ``/metrics``, and the
  browse pages (:class:`~repro.browse.app.BrowseApp`) on every other
  GET; bearer-token auth and per-client rate limiting on every route
  but ``/v1/health``, in front of the engine's own admission control.
* :class:`BanksClient` — blocking stdlib client; ``query_stream``
  yields ``(event, data)`` pairs as the remote kernel produces them,
  ``get`` fetches ``/metrics`` or any page as text.
* :class:`RemoteReplica` — the worker-interface adapter behind
  ``ClusterSpec(remote_replicas=...)``.
"""

from repro.net.auth import RateLimiter, TokenAuth
from repro.net.client import BanksClient, RemoteReplica
from repro.net.schema import (
    WIRE_VERSION,
    WireQuery,
    decode_request,
    encode_answer,
    encode_result,
    sse_event,
    tree_from_wire,
    tree_to_wire,
)
from repro.net.server import HttpServer, NetConfig, serve_http

__all__ = [
    "BanksClient",
    "HttpServer",
    "NetConfig",
    "RateLimiter",
    "RemoteReplica",
    "TokenAuth",
    "WIRE_VERSION",
    "WireQuery",
    "decode_request",
    "encode_answer",
    "encode_result",
    "serve_http",
    "sse_event",
    "tree_from_wire",
    "tree_to_wire",
]
