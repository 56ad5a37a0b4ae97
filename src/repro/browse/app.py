"""The browse + search pages over one :class:`~repro.cluster.api.Cluster`.

This is the reproduction of the paper's servlet front end: point it at
any :class:`~repro.relational.database.Database` (e.g. one loaded from
sqlite) and every relation becomes browsable and keyword-searchable with
zero programming — the paper's "near zero-effort Web publishing of
relational data".

The app is framework-free: :meth:`BrowseApp.handle_full` maps
``(path, query_string)`` to ``(status, body, content_type)`` as a pure
function (unit tested directly).  :class:`repro.net.HttpServer` serves
it: every GET outside ``/v1/`` and ``/metrics`` lands here, behind the
same token auth and rate limit as the JSON API.

Searches run through :meth:`Cluster.query <repro.cluster.api.Cluster.query>`
— the engine's worker pool, admission control and single-flight dedup,
and the same trace root as ``/v1/query``.  ``/mutate`` is the write
surface (the paper's live "Web publishing of organisational data"): it
applies an insert, delete or update through the cluster's write path
and reports the resulting epoch.  Parameters::

    /mutate?op=insert&table=paper&v=p9&v=Some+Title
    /mutate?op=delete&table=paper&rid=3
    /mutate?op=update&table=paper&rid=3&set=title%3DNew+Title
"""

from __future__ import annotations

import json
from typing import Tuple
from urllib.parse import parse_qs, unquote

from repro.browse.html import el, link, page
from repro.browse.hyperlink import BrowseState, row_url, table_url
from repro.browse.schema_browser import render_schema
from repro.browse.tableview import render_row_page, render_table_page
from repro.browse.templates import TEMPLATE_TABLE, TemplateRegistry
from repro.core.banks import BANKS
from repro.errors import ReproError


class BrowseApp:
    """Search + browse pages over one :class:`~repro.cluster.api.Cluster`.

    Args:
        cluster: the deployment to serve.  Searches run through
            :meth:`~repro.cluster.api.Cluster.query`, the read path and
            trace root ``/v1/query`` uses; ``/mutate`` writes through the
            cluster's insert/delete/update; the pages read the current
            snapshot's facade.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.templates = TemplateRegistry(cluster.banks.database)

    @property
    def banks(self) -> BANKS:
        """The facade to read from: the backend's *current* snapshot
        when it publishes one, so browse pages and row links reflect
        every published mutation, matching what searches see."""
        facade = getattr(self.cluster.backend, "facade", None)
        return facade if facade is not None else self.cluster.banks

    @property
    def database(self):
        return self.banks.database

    # -- pages -------------------------------------------------------------

    def home_page(self) -> str:
        table_items = [
            el(
                "li",
                None,
                link(table_url(name), name),
                f" ({len(self.database.table(name))} rows)",
            )
            for name in self.database.table_names
            if name != TEMPLATE_TABLE
        ]
        template_items = [
            el("li", None, link(f"/template/{name}", name))
            for name in self.templates.names()
        ]
        form = el(
            "form",
            {"action": "/search", "method": "get"},
            el("input", {"name": "q", "size": "40"}),
            el("input", {"type": "submit", "value": "Search"}),
        )
        body = [
            el("p", None, link("/schema", "browse the schema")),
            form,
            el("h2", None, "Relations"),
            el("ul", None, *table_items),
        ]
        if template_items:
            body.append(el("h2", None, "Templates"))
            body.append(el("ul", None, *template_items))
        return page(f"BANKS: {self.database.name}", *body)

    def search_page(self, query: str, max_results: int = 10) -> str:
        if not query.strip():
            return page("Search", el("p", None, "Empty query."))
        try:
            answers = self.cluster.query(query, k=max_results).answers
        except ReproError as error:
            return page("Search", el("p", None, f"Error: {error}"))
        blocks = []
        for answer in answers:
            lines = []
            matched = {
                node for node in answer.tree.keyword_nodes if node is not None
            }
            # Label nodes against the facade that produced the answer
            # (the snapshot the read pinned), so labels stay
            # consistent with the result even if a newer version has
            # been published since this search was admitted.
            labeler = getattr(answer, "_banks", self.banks).node_label

            def walk(node, depth: int) -> None:
                label = labeler(node)
                attrs = {"class": "kw"} if node in matched else None
                lines.append(
                    el(
                        "div",
                        {"style": f"margin-left:{depth * 1.5}em"},
                        el("span", attrs, link(row_url(node), label)),
                    )
                )
                for child in sorted(answer.tree.children(node), key=repr):
                    walk(child, depth + 1)

            walk(answer.tree.root, 0)
            blocks.append(
                el(
                    "div",
                    None,
                    el(
                        "h3",
                        None,
                        f"#{answer.rank + 1} "
                        f"(relevance {answer.relevance:.3f})",
                    ),
                    *lines,
                )
            )
        if not blocks:
            blocks.append(el("p", None, "No answers."))
        return page(f"Results for {query!r}", *blocks)

    def shards_page(self) -> str:
        """Partition layout and per-shard counters of a shard router."""
        router = self.cluster.backend
        info = router.describe()
        snapshot = router.metrics.snapshot()
        facts = el(
            "ul",
            None,
            el("li", None, f"shards: {info['shards']}"),
            el("li", None, f"backend: {info['backend']}"),
            el(
                "li",
                None,
                f"epoch: {info.get('epoch', 0)} "
                f"({int(snapshot.get('mutations_total', 0))} routed "
                "mutation(s))",
            ),
            el(
                "li",
                None,
                f"cut edges: {info['cut_edges']} "
                f"({info['cut_fraction']:.1%} of directed edges)",
            ),
            el("li", None, f"balance: {info['balance']:.3f}"),
        )
        rows = [
            el(
                "tr",
                None,
                el("th", None, "shard"),
                el("th", None, "nodes"),
                el("th", None, "sub-searches"),
                el("th", None, "engine epoch"),
            )
        ]
        for shard_id, nodes in enumerate(info["shard_nodes"]):
            searches = snapshot.get(f"shard{shard_id}_searches_total", 0)
            engine_epoch = router.engines[shard_id].snapshots.version
            rows.append(
                el(
                    "tr",
                    None,
                    el("td", None, str(shard_id)),
                    el("td", None, str(nodes)),
                    el("td", None, str(int(searches))),
                    el("td", None, str(engine_epoch)),
                )
            )
        return page(
            f"Shards: {self.database.name}",
            facts,
            el("table", {"border": "1"}, *rows),
        )

    def replicas_page(self) -> str:
        """Replica-set layout: balancing, per-replica state and lag."""
        replica_set = self.cluster.backend
        info = replica_set.describe()
        snapshot = replica_set.metrics.snapshot()
        facts = el(
            "ul",
            None,
            el("li", None, f"replicas: {info['replicas']}"),
            el("li", None, f"backend: {info['backend']}"),
            el("li", None, f"staleness bound: {info['max_lag']} epoch(s)"),
            el(
                "li",
                None,
                f"primary epoch: {info['epoch']} "
                f"({int(snapshot.get('mutations_total', 0))} write(s), "
                f"{int(snapshot.get('primary_reads_total', 0))} primary "
                "read(s))",
            ),
            el(
                "li",
                None,
                f"failovers: {int(snapshot.get('replica_failovers_total', 0))}, "
                f"deaths: {int(snapshot.get('replica_deaths_total', 0))}, "
                "re-admissions: "
                f"{int(snapshot.get('replica_readmitted_total', 0))}",
            ),
        )
        rows = [
            el(
                "tr",
                None,
                el("th", None, "replica"),
                el("th", None, "state"),
                el("th", None, "applied epoch"),
                el("th", None, "lag"),
                el("th", None, "served"),
            )
        ]
        for status in info["replica_status"]:
            rows.append(
                el(
                    "tr",
                    None,
                    el("td", None, str(status["replica"])),
                    el("td", None, status["state"]),
                    el("td", None, str(status["applied_epoch"])),
                    el("td", None, str(status["lag_epochs"])),
                    el("td", None, str(status["served"])),
                )
            )
        return page(
            f"Replicas: {self.database.name}",
            facts,
            el("table", {"border": "1"}, *rows),
        )

    # -- tracing pages --------------------------------------------------------

    def trace_page(self) -> str:
        """Recent sampled traces, newest first, with store stats."""
        obs = self.cluster.obs
        stats = obs.store.stats()
        facts = el(
            "ul",
            None,
            el("li", None, f"sampling: {stats['sample']}"),
            el(
                "li",
                None,
                "slow-query threshold: "
                + (
                    f"{stats['slow_query_ms']:g} ms"
                    if stats["slow_query_ms"] is not None
                    else "off"
                ),
            ),
            el(
                "li",
                None,
                f"kept {stats['kept']} of {stats['offered']} offered "
                f"({stats['stored']} buffered, {stats['slow_stored']} slow, "
                f"capacity {stats['capacity']})",
            ),
        )
        rows = [
            el(
                "tr",
                None,
                el("th", None, "trace"),
                el("th", None, "query"),
                el("th", None, "topology"),
                el("th", None, "ms"),
                el("th", None, "spans"),
                el("th", None, "slow"),
            )
        ]
        for record in obs.store.recent(50):
            rows.append(
                el(
                    "tr",
                    None,
                    el(
                        "td",
                        None,
                        link(f"/trace/{record.trace_id}", record.trace_id),
                    ),
                    el("td", None, record.query),
                    el("td", None, record.topology),
                    el("td", None, f"{record.duration_ms:.2f}"),
                    el("td", None, str(len(record.spans))),
                    el("td", None, "SLOW" if record.slow else ""),
                )
            )
        return page(
            f"Traces: {self.database.name}",
            facts,
            el("table", {"border": "1"}, *rows),
            el("p", None, link("/", "home")),
        )

    def trace_detail_page(self, trace_id: str) -> str:
        """One trace, rendered as the ASCII span tree."""
        record = self.cluster.obs.store.get(trace_id)
        if record is None:
            return page(
                "Trace",
                el(
                    "p",
                    None,
                    f"No trace {trace_id!r} in the buffer (sampled away "
                    "or evicted).",
                ),
                el("p", None, link("/trace", "all traces")),
            )
        return page(
            f"Trace {trace_id}",
            el("pre", None, record.render()),
            el("p", None, link("/trace", "all traces")),
        )

    def debug_slow_json(self) -> str:
        """``GET /debug/slow`` — the slow-query ring as JSON."""
        obs = self.cluster.obs
        return json.dumps(
            {
                "stats": obs.store.stats(),
                "slow": [record.to_dict() for record in obs.store.slow(50)],
            },
            indent=2,
            sort_keys=True,
        )

    # -- the write surface ----------------------------------------------------

    def mutate_page(self, query_string: str) -> str:
        """Apply one mutation through the cluster and report the
        published epoch.  A deployment without a write path (an
        immutable facade, a WAL follower) refuses with the cluster's
        own message."""
        params = parse_qs(query_string)
        op = params.get("op", [""])[0]
        table = params.get("table", [""])[0]
        try:
            outcome = self._apply_mutation(op, table, params)
        except ReproError as error:
            return page("Mutate", el("p", None, f"Error: {error}"))
        return page(
            "Mutate",
            el("p", None, outcome),
            el("p", None, f"epoch: {self.cluster.epoch}"),
            el("p", None, link("/", "home")),
        )

    def _apply_mutation(self, op: str, table: str, params) -> str:
        values = params.get("v", [])
        rid_param = params.get("rid", [None])[0]
        sets = {}
        for pair in params.get("set", []):
            column, _, value = pair.partition("=")
            if not column:
                raise ReproError(f"malformed set parameter {pair!r}")
            sets[column] = value
        if op == "insert":
            if not table or not values:
                raise ReproError("insert needs table= and one v= per column")
            rid = self.cluster.insert(table, values)
            return f"inserted {rid[0]}:{rid[1]}"
        if op == "delete":
            if not table or rid_param is None:
                raise ReproError("delete needs table= and rid=")
            self.cluster.delete((table, int(rid_param)))
            return f"deleted {table}:{rid_param}"
        if op == "update":
            if not table or rid_param is None or not sets:
                raise ReproError(
                    "update needs table=, rid= and one set=column=value "
                    "per change"
                )
            self.cluster.update((table, int(rid_param)), sets)
            return f"updated {table}:{rid_param} ({', '.join(sorted(sets))})"
        raise ReproError(
            f"unknown mutation op {op!r} (use insert, delete or update)"
        )

    # -- routing ------------------------------------------------------------

    #: Content types emitted by the router.
    _HTML = "text/html; charset=utf-8"
    _JSON = "application/json; charset=utf-8"

    def handle(self, path: str, query_string: str = "") -> Tuple[str, str]:
        """Route one request; returns ``(status, body)``."""
        status, body, _content_type = self.handle_full(path, query_string)
        return status, body

    def handle_full(
        self, path: str, query_string: str = ""
    ) -> Tuple[str, str, str]:
        """Route one request; returns ``(status, body, content_type)``.

        The single place routing is decided — ``handle`` and the HTTP
        server both delegate here, so the body and its content type
        cannot desync.
        """
        backend = self.cluster.backend
        try:
            parts = [unquote(p) for p in path.strip("/").split("/") if p]
            if not parts:
                return "200 OK", self.home_page(), self._HTML
            if parts[0] == "schema":
                return "200 OK", render_schema(self.database), self._HTML
            if parts[0] == "search":
                params = parse_qs(query_string)
                query = params.get("q", [""])[0]
                return "200 OK", self.search_page(query), self._HTML
            if parts == ["mutate"]:
                return "200 OK", self.mutate_page(query_string), self._HTML
            if parts == ["trace"]:
                return "200 OK", self.trace_page(), self._HTML
            if parts[0] == "trace" and len(parts) == 2:
                return "200 OK", self.trace_detail_page(parts[1]), self._HTML
            if parts == ["debug", "slow"]:
                return "200 OK", self.debug_slow_json(), self._JSON
            if parts == ["shards"] and hasattr(backend, "partition"):
                return "200 OK", self.shards_page(), self._HTML
            if parts == ["replicas"] and hasattr(backend, "replica_status"):
                return "200 OK", self.replicas_page(), self._HTML
            if parts[0] == "table" and len(parts) == 2:
                state = BrowseState.from_query(parts[1], query_string)
                return (
                    "200 OK",
                    render_table_page(self.database, state),
                    self._HTML,
                )
            if parts[0] == "row" and len(parts) == 3:
                node = (parts[1], int(parts[2]))
                return (
                    "200 OK",
                    render_row_page(self.database, node),
                    self._HTML,
                )
            if parts[0] == "template" and len(parts) == 2:
                params = parse_qs(query_string)
                drill_path = params.get("path", [])
                return (
                    "200 OK",
                    self.templates.render(parts[1], drill_path),
                    self._HTML,
                )
        except (ReproError, ValueError) as error:
            return (
                "404 Not Found",
                page("Not found", el("p", None, f"{error}")),
                self._HTML,
            )
        return (
            "404 Not Found",
            page("Not found", el("p", None, f"No route for {path!r}")),
            self._HTML,
        )
