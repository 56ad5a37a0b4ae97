"""The versioned JSON wire schema of the HTTP serving tier.

One schema, two transports: ``/v1/query`` answers with one
:func:`encode_result` document; ``/v1/query/stream`` flushes the same
answers one :func:`encode_answer` at a time as server-sent events
(:func:`sse_event`), closing with the full result document so the
stream's final state is byte-equivalent to the non-streamed response.

Answer trees cross the wire whole — :func:`tree_to_wire` /
:func:`tree_from_wire` round-trip an
:class:`~repro.core.answer.AnswerTree` through plain JSON (nodes are
the relational ``(table, row)`` pairs), which is what lets a
:class:`~repro.net.client.RemoteReplica` hand results to a local
:class:`~repro.cluster.replicaset.ReplicaSet` front end as if they
came off a fork pipe.

Versioning: every response carries ``"version": "v1"``; requests with
unknown fields are refused (a typo must not silently change semantics
on a versioned surface).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.answer import AnswerTree
from repro.errors import NetError

#: The wire-schema version every v1 endpoint speaks.
WIRE_VERSION = "v1"

#: Request fields ``/v1/query`` and ``/v1/query/stream`` accept.
_REQUEST_FIELDS = (
    "query",
    "k",
    "offset",
    "consistency",
    "staleness_bound",
    "deadline",
    "trace_id",
)


@dataclass(frozen=True)
class WireQuery:
    """One decoded ``/v1/query`` request (transport-agnostic: the JSON
    body and the URL query string both decode to this)."""

    query: str
    k: int = 10
    offset: int = 0
    consistency: str = "eventual"
    staleness_bound: Optional[int] = None
    deadline: Optional[float] = None
    trace_id: Optional[str] = None


def decode_request(payload: Dict[str, Any]) -> WireQuery:
    """Validate and decode one request document.

    Raises :class:`~repro.errors.NetError` on a malformed payload —
    the server maps it to a 400.  Consistency-level validation is
    deliberately left to :class:`~repro.cluster.api.QueryRequest` (one
    validation path, one message).
    """
    if not isinstance(payload, dict):
        raise NetError("request body must be a JSON object", status=400)
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    if unknown:
        raise NetError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(the {WIRE_VERSION} schema accepts "
            f"{', '.join(_REQUEST_FIELDS)})",
            status=400,
        )
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise NetError(
            "request needs a non-empty string 'query' field", status=400
        )
    try:
        k = int(payload.get("k", 10))
        offset = int(payload.get("offset", 0))
    except (TypeError, ValueError):
        raise NetError("'k' and 'offset' must be integers", status=400)
    if k < 1:
        raise NetError(f"'k' must be >= 1 (got {k})", status=400)
    if offset < 0:
        raise NetError(f"'offset' must be >= 0 (got {offset})", status=400)
    staleness = payload.get("staleness_bound")
    if staleness is not None:
        try:
            staleness = int(staleness)
        except (TypeError, ValueError):
            raise NetError("'staleness_bound' must be an integer", status=400)
    deadline = payload.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise NetError("'deadline' must be a number", status=400)
    trace_id = payload.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise NetError("'trace_id' must be a string", status=400)
    return WireQuery(
        query=query,
        k=k,
        offset=offset,
        consistency=payload.get("consistency") or "eventual",
        staleness_bound=staleness,
        deadline=deadline,
        trace_id=trace_id,
    )


# -- answer trees over the wire -----------------------------------------------


def _encode_node(node: Any) -> List[Any]:
    if isinstance(node, tuple) and len(node) == 2:
        return [node[0], node[1]]
    raise NetError(
        f"node {node!r} is not a relational (table, row) pair; the "
        "wire schema serves relational deployments"
    )


def _decode_node(value: Any) -> Tuple[Any, Any]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise NetError(f"malformed wire node {value!r}")
    return (value[0], value[1])


def tree_to_wire(tree: AnswerTree) -> Dict[str, Any]:
    """An :class:`~repro.core.answer.AnswerTree` as plain JSON data."""
    edges = []
    for child, parent in tree.parent.items():
        weight = tree._edge_weights.get((parent, child), 0.0)
        edges.append([_encode_node(parent), _encode_node(child), weight])
    return {
        "root": _encode_node(tree.root),
        "edges": edges,
        "keyword_nodes": [
            None if node is None else _encode_node(node)
            for node in tree.keyword_nodes
        ],
    }


def tree_from_wire(payload: Dict[str, Any]) -> AnswerTree:
    """The inverse of :func:`tree_to_wire`."""
    if not isinstance(payload, dict) or "root" not in payload:
        raise NetError(f"malformed wire tree {payload!r}")
    parent: Dict[Any, Any] = {}
    edge_weights: Dict[Tuple[Any, Any], float] = {}
    for entry in payload.get("edges", ()):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise NetError(f"malformed wire edge {entry!r}")
        source = _decode_node(entry[0])
        target = _decode_node(entry[1])
        parent[target] = source
        edge_weights[(source, target)] = float(entry[2])
    return AnswerTree(
        _decode_node(payload["root"]),
        parent,
        tuple(
            None if node is None else _decode_node(node)
            for node in payload.get("keyword_nodes", ())
        ),
        edge_weights,
    )


# -- results over the wire ----------------------------------------------------


def encode_answer(
    answer: Any,
    rank: int,
    label: Optional[Callable[[Any], str]] = None,
) -> Dict[str, Any]:
    """One ranked answer as wire data.

    Accepts every answer shape the backends produce —
    :class:`~repro.core.banks.Answer`, ``ReplicaAnswer``,
    ``ShardAnswer`` and the kernel's raw ``ScoredAnswer`` — they all
    carry ``tree`` and ``relevance``.
    """
    tree = answer.tree
    payload: Dict[str, Any] = {
        "rank": rank,
        "root": _encode_node(tree.root),
        "relevance": answer.relevance,
        "tree": tree_to_wire(tree),
    }
    if label is not None:
        try:
            payload["label"] = label(tree.root)
        except Exception:
            pass
    shards = getattr(answer, "shards", None)
    if shards:
        payload["shards"] = sorted(shards() if callable(shards) else shards)
    return payload


def encode_result(
    result: Any,
    wire: WireQuery,
    label: Optional[Callable[[Any], str]] = None,
) -> Dict[str, Any]:
    """One :class:`~repro.cluster.api.QueryResult` as the ``/v1/query``
    response document.  Pagination happens here: the server queried
    ``offset + k`` answers; the page is the slice, ``total`` the full
    count the backend produced."""
    answers = result.answers
    page = answers[wire.offset : wire.offset + wire.k]
    return {
        "version": WIRE_VERSION,
        "query": wire.query,
        "k": wire.k,
        "offset": wire.offset,
        "total": len(answers),
        "answers": [
            encode_answer(answer, wire.offset + position, label)
            for position, answer in enumerate(page)
        ],
        "topology": result.topology,
        "served_by": result.served_by,
        "replica": result.replica,
        "shards": list(result.shards),
        "epoch": result.epoch,
        "consistency": result.consistency,
        "latency_ms": round(result.latency * 1000.0, 3),
        "trace_id": (
            result.trace.trace_id if result.trace is not None else None
        ),
    }


# -- server-sent events -------------------------------------------------------


def sse_event(event: str, data: Dict[str, Any]) -> bytes:
    """One ``text/event-stream`` frame (named event + one JSON data
    line, blank-line terminated)."""
    return (
        f"event: {event}\ndata: {json.dumps(data, sort_keys=True)}\n\n"
    ).encode("utf-8")


def parse_sse(lines: Iterable[str]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Parse text lines into ``(event, data)`` pairs — the client-side
    inverse of :func:`sse_event`.

    Lazy: each event is yielded at the blank line that ends it, so a
    reader of a live stream sees it as it arrives.  An event the input
    ends inside (no blank line yet) is not dispatched, as the SSE spec
    says."""
    name, data_lines = None, []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            if name is not None or data_lines:
                data = "\n".join(data_lines)
                yield name or "message", json.loads(data) if data else {}
            name, data_lines = None, []
        elif line.startswith("event:"):
            name = line[len("event:") :].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:") :].strip())
