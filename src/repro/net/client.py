"""HTTP clients for the serving tier.

:class:`BanksClient` is the user-facing client: blocking, stdlib
``http.client`` underneath, one connection per request (the server
keeps connections alive, but a search client's request rate never
justifies pool complexity — correctness under replica restarts does).
``query_stream`` exposes the SSE endpoint as a generator of
``(event, data)`` pairs, answers arriving as the remote kernel finds
them.

:class:`RemoteReplica` adapts that client to the worker interface
:class:`~repro.cluster.replicaset.ReplicaSet` dispatches to — the
piece that turns N ``banks serve`` processes into one
replicated front end.  Replication inverts versus local workers: the
front end does **not** push WAL epochs (the remote process tails its
own log); ``applied_epoch`` is read back from ``/v1/health`` (briefly
cached — balancing reads it on every dispatch), and ``catch_up``
polls it.  Transport failures surface as
:class:`~repro.errors.ClusterError`, which is exactly what the
replica set's failover path catches.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ClusterError, NetError
from repro.net.schema import WIRE_VERSION, parse_sse, tree_from_wire

_HEALTH_TTL_SECONDS = 0.25


def _query_text(query: Any) -> str:
    """The wire form of a query: strings pass through; parsed queries
    reassemble from their raw terms."""
    if isinstance(query, str):
        return query
    terms = getattr(query, "terms", None)
    if terms is not None:
        return " ".join(term.raw for term in terms)
    return str(query)


class BanksClient:
    """Talk to one ``banks serve`` process.

    Args:
        url: base URL, e.g. ``http://127.0.0.1:8754``.
        token: bearer token (omit against an open server).
        timeout: socket timeout in seconds for each request.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 30.0,
    ):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise NetError(f"malformed server URL {url!r}")
        if parts.scheme == "https":
            raise NetError(
                "https is not terminated by the serving tier; put a "
                "TLS proxy in front and point the client at it over http"
            )
        self.url = url.rstrip("/")
        self.netloc = parts.netloc
        self.token = token
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _headers(self, trace_id: Optional[str] = None) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if trace_id:
            headers["X-Trace-Id"] = trace_id
        return headers

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.netloc, timeout=self.timeout)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        connection = self._connect()
        try:
            headers = self._headers(trace_id)
            body = None
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                raise NetError(f"cannot reach {self.url}: {error}")
            try:
                document = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                document = {}
            if response.status >= 400:
                message = (
                    document.get("error")
                    if isinstance(document, dict)
                    else None
                )
                raise NetError(
                    message or f"HTTP {response.status} from {self.url}{path}",
                    status=response.status,
                )
            return document
        finally:
            connection.close()

    # -- endpoints -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def get(self, path: str) -> str:
        """GET ``path`` and return the body as text: ``/metrics``, a
        browse page, any route.  Anything but a 200 raises
        :class:`~repro.errors.NetError` carrying the status."""
        connection = self._connect()
        try:
            try:
                connection.request("GET", path, headers=self._headers())
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                raise NetError(f"cannot reach {self.url}: {error}")
            if response.status != 200:
                raise NetError(
                    f"HTTP {response.status} from {self.url}{path}",
                    status=response.status,
                )
            return raw.decode("utf-8")
        finally:
            connection.close()

    def query(
        self,
        query: Any,
        k: int = 10,
        offset: int = 0,
        consistency: str = "eventual",
        staleness_bound: Optional[int] = None,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """POST ``/v1/query``; returns the decoded result document."""
        payload: Dict[str, Any] = {
            "query": _query_text(query),
            "k": k,
            "offset": offset,
            "consistency": consistency,
        }
        if staleness_bound is not None:
            payload["staleness_bound"] = staleness_bound
        if deadline is not None:
            payload["deadline"] = deadline
        if trace_id is not None:
            payload["trace_id"] = trace_id
        return self._request("POST", "/v1/query", payload, trace_id)

    def query_stream(
        self,
        query: Any,
        k: int = 10,
        offset: int = 0,
        consistency: str = "eventual",
        staleness_bound: Optional[int] = None,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """POST ``/v1/query/stream``; yields ``(event, data)`` pairs —
        ``answer`` events as the remote kernel emits them, then one
        ``result`` (or ``error``) event, then the stream ends."""
        payload: Dict[str, Any] = {
            "query": _query_text(query),
            "k": k,
            "offset": offset,
            "consistency": consistency,
        }
        if staleness_bound is not None:
            payload["staleness_bound"] = staleness_bound
        if deadline is not None:
            payload["deadline"] = deadline
        if trace_id is not None:
            payload["trace_id"] = trace_id
        connection = self._connect()
        try:
            headers = self._headers(trace_id)
            headers["Content-Type"] = "application/json"
            headers["Accept"] = "text/event-stream"
            try:
                connection.request(
                    "POST",
                    "/v1/query/stream",
                    body=json.dumps(payload).encode("utf-8"),
                    headers=headers,
                )
                response = connection.getresponse()
            except (OSError, http.client.HTTPException) as error:
                raise NetError(f"cannot reach {self.url}: {error}")
            if response.status >= 400:
                raw = response.read()
                try:
                    document = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    document = {}
                raise NetError(
                    document.get("error")
                    or f"HTTP {response.status} from {self.url}/v1/query/stream",
                    status=response.status,
                )
            lines = (raw.decode("utf-8") for raw in iter(response.readline, b""))
            for name, data in parse_sse(lines):
                yield name, data
                if name in ("result", "error"):
                    return
        finally:
            connection.close()


class RemoteReplica:
    """One remote serving process, worn as a replica-set worker.

    The interface mirrors the in-process workers
    (:meth:`search_scored` returning ``(tree, relevance)`` pairs,
    ``applied_epoch`` / ``alive`` / ``catch_up`` / ``kill`` /
    ``stop``), so :class:`~repro.cluster.replicaset.ReplicaSet`
    balances, bounds staleness and fails over without knowing the
    worker is on the far side of a socket.
    """

    def __init__(
        self,
        url: str,
        index: int = 0,
        token: Optional[str] = None,
        timeout: float = 30.0,
    ):
        self.client = BanksClient(url, token=token, timeout=timeout)
        self.url = self.client.url
        self.index = index
        self.backend = "remote"
        self._dead = False
        self._health_stamp = 0.0
        self._health: Dict[str, Any] = {}

    # -- health / staleness ----------------------------------------------------

    def _poll_health(self, force: bool = False) -> Dict[str, Any]:
        now = time.monotonic()
        if force or now - self._health_stamp >= _HEALTH_TTL_SECONDS:
            self._health = self.client.health()
            self._health_stamp = now
        return self._health

    @property
    def applied_epoch(self) -> int:
        if self._dead:
            return 0
        try:
            return int(self._poll_health().get("epoch", 0))
        except NetError:
            return 0

    @property
    def alive(self) -> bool:
        if self._dead:
            return False
        try:
            self._poll_health()
            return True
        except NetError:
            return False

    def catch_up(self, epoch: int, timeout: float = 2.0) -> int:
        """Poll the remote's applied epoch until it reaches ``epoch``
        (the remote tails its own WAL — the front end only waits)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                current = int(self._poll_health(force=True).get("epoch", 0))
            except NetError:
                current = 0
            if current >= epoch or time.monotonic() >= deadline:
                return current
            time.sleep(0.05)

    def apply_epochs(self, epochs) -> int:
        """The front end never pushes WAL history to a remote replica;
        its serving process replays the log itself."""
        return self.applied_epoch

    # -- queries ---------------------------------------------------------------

    def search_scored(
        self,
        query: Any,
        timeout: Optional[float] = None,
        max_results: int = 10,
        trace=None,
        trace_parent=None,
        profile=None,
        **kwargs,
    ) -> List[Tuple[Any, float]]:
        if self._dead:
            raise ClusterError(f"remote replica {self.url} was killed")
        span = (
            trace.begin(
                "replica.remote", parent_id=trace_parent, url=self.url
            )
            if trace is not None
            else None
        )
        try:
            document = self.client.query(
                query,
                k=max_results,
                deadline=timeout,
                trace_id=trace.trace_id if trace is not None else None,
            )
        except NetError as error:
            if span is not None:
                span.attrs["error"] = type(error).__name__
                trace.end(span)
            # Transport failures and server-side refusals become the
            # error class the replica set's failover path catches.
            raise ClusterError(
                f"remote replica {self.url} failed: {error}"
            ) from error
        scored = [
            (tree_from_wire(answer["tree"]), answer["relevance"])
            for answer in document.get("answers", ())
        ]
        if span is not None:
            span.attrs["answers"] = len(scored)
            trace.end(span)
        return scored

    # -- lifecycle -------------------------------------------------------------

    def kill(self) -> None:
        """Fault injection: stop talking to this remote (the remote
        process itself keeps running)."""
        self._dead = True

    def stop(self) -> None:
        self._dead = True


__all__ = ["BanksClient", "RemoteReplica", "WIRE_VERSION"]
