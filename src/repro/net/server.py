"""The asyncio HTTP server: ``repro.cluster`` over the wire.

One event loop, one reader/writer pair per connection, and *no* query
work on the loop itself, so a slow backward expansion never stalls
accepts or other clients' streams.  A keyword read is one hop:
``/v1/query`` awaits :meth:`repro.cluster.Cluster.submit`'s future
(``asyncio.wrap_future``), resolved by the engine worker that ran the
search.  ``/v1/query/stream`` submits with an ``on_answer`` hook that
hands each answer to the loop via ``call_soon_threadsafe`` while the
coroutine drains them into SSE frames — each answer tree is flushed
the moment the kernel emits it, so the client's time-to-first-answer
is the kernel's, not the full top-k latency.  Deployments that cannot
stream inline replay the result's answers as frames instead.  The
browse pages, which block, run on the loop's executor.

Routes (the ``/v1/`` ones JSON, carrying ``"version": "v1"``):

========================  =====================================================
``GET /v1/health``        liveness + topology + applied epoch (no auth — load
                          balancers and :class:`~repro.net.client.RemoteReplica`
                          lag probes poll it)
``GET /metrics``          the cluster's text-format metrics
``POST /v1/query``        one request document in, one result document out
``POST /v1/query/stream`` same request, ``text/event-stream`` out: ``answer``
                          events as found, one final ``result`` event
``GET`` anything else     the browse + search pages
                          (:class:`~repro.browse.app.BrowseApp`): ``/``,
                          ``/search``, ``/table/…``, ``/row/…``, ``/mutate``,
                          ``/trace``, ``/shards``, ``/replicas``, …
========================  =====================================================

``/v1/query`` and ``/v1/query/stream`` also accept GET with URL query
parameters (``?q=...&k=...``) for curl-friendliness; POST bodies are
the canonical form.  Every route but ``/v1/health`` — the pages
included — passes the same token auth and per-client rate limit.

Failure mapping is explicit: 401 unauthenticated, 429 client rate
limit *or* engine admission (:class:`~repro.errors.EngineOverloadedError`
— the body's ``error`` field says which), 504 deadline, 503 stopped
engine, 400 malformed request, 413 oversized request, 404 unknown
``/v1/`` route, 500 anything else.  Every error body is
``{"version", "error", "status", "trace_id"}``; a request that cannot
be parsed gets its error with ``Connection: close``.  An unknown page
is the browse app's own HTML 404.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.browse.app import BrowseApp
from repro.cluster import Cluster, QueryRequest
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    EngineOverloadedError,
    EngineStoppedError,
    NetError,
    QueryError,
)
from repro.net.auth import RateLimiter, TokenAuth
from repro.net.schema import (
    WIRE_VERSION,
    WireQuery,
    decode_request,
    encode_answer,
    encode_result,
    sse_event,
)

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class NetConfig:
    """How :class:`HttpServer` listens and admits.

    Attributes:
        host: bind address (default loopback — exposing a keyword
            search engine to a network is an explicit choice).
        port: TCP port; ``0`` picks a free one (tests, benchmarks) —
            read the bound port back from :attr:`HttpServer.port`.
        tokens: accepted bearer tokens; empty means an open server.
        rate: per-client sustained requests/second (``0`` disables).
        burst: per-client burst depth (default: ``max(rate, 1)``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    tokens: Tuple[str, ...] = field(default_factory=tuple)
    rate: float = 0.0
    burst: Optional[float] = None


def _error_status(error: BaseException) -> int:
    if isinstance(error, NetError) and error.status is not None:
        return int(error.status)
    if isinstance(error, EngineOverloadedError):
        return 429
    if isinstance(error, DeadlineExceededError):
        return 504
    if isinstance(error, EngineStoppedError):
        return 503
    if isinstance(error, (ClusterError, QueryError)):
        return 400
    return 500


class HttpServer:
    """Serve one :class:`~repro.cluster.Cluster` over HTTP.

    Three ways to run it::

        HttpServer(cluster, NetConfig()).serve_forever()   # CLI
        server = HttpServer(cluster, NetConfig())
        server.start_background()                          # tests
        ...
        server.stop()

    or ``async with``-free embedding via :meth:`run` inside an
    existing event loop.  The server does not own the cluster — the
    caller closes it.
    """

    def __init__(self, cluster: Cluster, config: Optional[NetConfig] = None):
        self.cluster = cluster
        self.config = config or NetConfig()
        self.auth = TokenAuth(self.config.tokens)
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        #: The browse + search pages, served for every GET outside
        #: ``/v1/`` and ``/metrics``.
        self.browse = BrowseApp(cluster)
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------------

    async def run(self) -> None:
        """Bind, serve until :meth:`stop`, then close the listener."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            family=socket.AF_INET,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._ready.clear()

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread (the CLI path)."""
        try:
            asyncio.run(self.run())
        except KeyboardInterrupt:
            pass

    def start_background(self, timeout: float = 10.0) -> "HttpServer":
        """Serve from a daemon thread; returns once the port is bound."""

        def main() -> None:
            try:
                asyncio.run(self.run())
            except BaseException as error:  # surfaced to the waiter
                self._startup_error = error
                self._ready.set()

        self._thread = threading.Thread(
            target=main, name="banks-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout) and self._startup_error is None:
            raise NetError(f"HTTP server failed to bind within {timeout}s")
        if self._startup_error is not None:
            raise NetError(
                f"HTTP server failed to start: {self._startup_error}"
            )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the listener and join the background thread (if any)."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer = writer.get_extra_info("peername") or ("?",)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except NetError as error:
                    # An unparseable request still gets its answer; the
                    # connection's framing is lost, so it ends here.
                    self._send_error(writer, error, None, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer, str(peer[0]))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            # Cancellation is server shutdown with the connection idle
            # in a keep-alive read — treat it as a peer hangup.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, Any]]:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise NetError("request head too large", status=413)
        if len(head) > _MAX_HEADER_BYTES:
            raise NetError("request head too large", status=413)
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise NetError(f"malformed request line {request_line!r}", status=400)
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line or ":" not in line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        length = int(length_text) if length_text.isdecimal() else -1
        if length < 0:
            raise NetError(f"bad Content-Length {length_text!r}", status=400)
        if length > _MAX_BODY_BYTES:
            raise NetError("request body too large", status=413)
        if length:
            body = await reader.readexactly(length)
        return {
            "method": method.upper(),
            "target": target,
            "headers": headers,
            "body": body,
        }

    async def _dispatch(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        peer: str,
    ) -> bool:
        method = request["method"]
        url = urlsplit(request["target"])
        path = url.path.rstrip("/") or "/"
        headers = request["headers"]
        keep_alive = headers.get("connection", "").lower() != "close"
        trace_id = headers.get("x-trace-id") or None
        try:
            if path == "/v1/health":
                self._require_method(method, ("GET",))
                self._send_json(writer, 200, self._health(), keep_alive)
                return keep_alive
            principal = self.auth.authenticate(headers.get("authorization"))
            self.limiter.admit(principal, peer)
            if path == "/metrics":
                self._require_method(method, ("GET",))
                self._send_text(writer, 200, self._metrics_text(), keep_alive)
                return keep_alive
            if path == "/v1/query":
                wire = self._wire_query(method, url, request["body"], trace_id)
                payload = await self._run_query(wire)
                self._send_json(
                    writer, 200, payload, keep_alive,
                    extra={"X-Trace-Id": payload.get("trace_id") or ""},
                )
                return keep_alive
            if path == "/v1/query/stream":
                wire = self._wire_query(method, url, request["body"], trace_id)
                await self._stream_query(writer, wire)
                return False  # SSE responses end the connection
            if path == "/v1" or path.startswith("/v1/"):
                raise NetError(f"no route for {path}", status=404)
            self._require_method(method, ("GET",))
            loop = asyncio.get_running_loop()
            status, page, content_type = await loop.run_in_executor(
                None, self.browse.handle_full, url.path, url.query
            )
            self._send(
                writer,
                int(status.split()[0]),
                content_type,
                page.encode("utf-8"),
                keep_alive,
            )
            return keep_alive
        except BaseException as error:  # every failure is a JSON response
            if isinstance(error, (ConnectionError, asyncio.CancelledError)):
                raise
            status = self._send_error(writer, error, trace_id, keep_alive)
            return keep_alive and status < 500

    # -- response writing ------------------------------------------------------

    @staticmethod
    def _send(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            if value:
                lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)

    def _send_error(
        self,
        writer: asyncio.StreamWriter,
        error: BaseException,
        trace_id: Optional[str],
        keep_alive: bool,
    ) -> int:
        """Write the JSON error body for ``error``; returns its status."""
        status = _error_status(error)
        body = {
            "version": WIRE_VERSION,
            "error": str(error) or type(error).__name__,
            "status": status,
            "trace_id": trace_id,
        }
        self._send_json(writer, status, body, keep_alive)
        return status

    def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(
            writer, status, "application/json", body, keep_alive, extra
        )

    def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        keep_alive: bool,
    ) -> None:
        self._send(
            writer,
            status,
            "text/plain; charset=utf-8",
            text.encode("utf-8"),
            keep_alive,
        )

    @staticmethod
    def _require_method(method: str, allowed: Tuple[str, ...]) -> None:
        if method not in allowed:
            raise NetError(
                f"method {method} not allowed (use {', '.join(allowed)})",
                status=405,
            )

    # -- routes ----------------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        spec = self.cluster.spec
        return {
            "version": WIRE_VERSION,
            "status": "ok",
            "topology": spec.topology,
            "epoch": self.cluster.epoch,
            "auth": "token" if not self.auth.open else "open",
        }

    def _metrics_text(self) -> str:
        registry = self.cluster.metrics
        if registry is None:
            return "# no engine-backed metrics on this topology\n"
        return registry.render_text()

    def _wire_query(
        self,
        method: str,
        url,
        body: bytes,
        trace_id: Optional[str],
    ) -> WireQuery:
        self._require_method(method, ("GET", "POST"))
        if method == "POST":
            if not body:
                raise NetError("POST needs a JSON request body", status=400)
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise NetError(f"request body is not JSON: {error}", status=400)
        else:
            params = dict(parse_qsl(url.query))
            if "q" in params:
                params["query"] = params.pop("q")
            payload = {k: v for k, v in params.items() if v != ""}
        if trace_id and not payload.get("trace_id"):
            payload = dict(payload)
            payload["trace_id"] = trace_id
        return decode_request(payload)

    def _request_for(self, wire: WireQuery) -> QueryRequest:
        # The backend ranks offset + k answers so the page slice is
        # exact; pagination itself happens in encode_result.
        return QueryRequest(
            keywords=wire.query,
            k=wire.offset + wire.k,
            deadline=wire.deadline,
            consistency=wire.consistency,
            staleness_bound=wire.staleness_bound,
            trace_id=wire.trace_id,
        )

    async def _run_query(self, wire: WireQuery) -> Dict[str, Any]:
        future = self.cluster.submit(self._request_for(wire))
        return encode_result(await asyncio.wrap_future(future), wire)

    async def _stream_query(
        self, writer: asyncio.StreamWriter, wire: WireQuery
    ) -> None:
        """SSE: submit the read with an ``on_answer`` hook feeding the
        loop, and flush each answer frame the moment the kernel
        surfaces it."""
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue" = asyncio.Queue()

        def put(item) -> None:
            # Runs on the serving thread.  Once the server has stopped
            # the loop is closed and nobody reads this stream: drop the
            # event rather than fail the search.
            try:
                loop.call_soon_threadsafe(events.put_nowait, item)
            except RuntimeError:
                pass

        future = self.cluster.submit(self._request_for(wire), on_answer=put)
        future.add_done_callback(put)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        rank = 0
        while (answer := await events.get()) is not future:
            rank = await self._send_answer(writer, wire, answer, rank)
        try:
            result = future.result()
        except Exception as error:
            writer.write(
                sse_event(
                    "error",
                    {
                        "version": WIRE_VERSION,
                        "error": str(error) or type(error).__name__,
                        "status": _error_status(error),
                    },
                )
            )
            await writer.drain()
            return
        if not self.cluster.streams_inline():
            for answer in result.answers:
                rank = await self._send_answer(writer, wire, answer, rank)
        writer.write(sse_event("result", encode_result(result, wire)))
        await writer.drain()

    @staticmethod
    async def _send_answer(
        writer: asyncio.StreamWriter, wire: WireQuery, answer, rank: int
    ) -> int:
        """Flush one answer frame if ``rank`` is on the requested page;
        returns the next rank."""
        if wire.offset <= rank < wire.offset + wire.k:
            writer.write(sse_event("answer", encode_answer(answer, rank)))
            await writer.drain()
        return rank + 1


def serve_http(cluster: Cluster, config: Optional[NetConfig] = None) -> None:
    """Convenience for the CLI: build, bind, serve until interrupted."""
    HttpServer(cluster, config).serve_forever()
