"""Display templates (paper Sec. 4).

"BANKS templates provide several predefined ways of displaying any
data.  Template instances are customized, stored in the database, and
given a hyperlink name, which is used to access the template."  The
four kinds the paper lists are all implemented:

* **crosstab** — OLAP-style count matrix over two columns;
* **group by** — hierarchical drill-down over a column sequence
  (departments -> programs -> students in the paper's example);
* **folder** — the same hierarchy rendered as an expanded folder tree;
* **chart** — bar / line / pie over an aggregated column, with
  hyperlinked data (via :mod:`repro.browse.charts`).

Templates compose: a template's ``link_to`` field routes its drill-down
hyperlinks to another template instead of to raw tuples — "the action
associated with a hyperlink may be scripted to take the user to another
template".

Instances are stored *in the database itself* in a ``_banks_templates``
table (name, kind, JSON spec), exactly as the paper describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.browse import charts
from repro.browse.html import Element, el, link, page, raw
from repro.browse.hyperlink import BrowseState, template_url
from repro.errors import BrowseError
from repro.relational.algebra import Relation, from_table, group_by, select
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import TEXT

TEMPLATE_TABLE = "_banks_templates"

_KINDS = ("crosstab", "groupby", "folder", "chart")


@dataclass(frozen=True)
class TemplateInstance:
    """A stored template: its hyperlink name, kind and specification."""

    name: str
    kind: str
    spec: Dict[str, Any]


class TemplateRegistry:
    """Stores and renders template instances for one database.

    The ``_banks_templates`` table is created by the first :meth:`save`:
    opening a registry over a served database changes nothing in it.
    """

    def __init__(self, database: Database):
        self.database = database

    def _table(self):
        """The template table, or ``None`` before the first save."""
        if not self.database.schema.has_table(TEMPLATE_TABLE):
            return None
        return self.database.table(TEMPLATE_TABLE)

    # -- storage -----------------------------------------------------------

    def save(self, name: str, kind: str, spec: Dict[str, Any]) -> None:
        if kind not in _KINDS:
            raise BrowseError(f"unknown template kind {kind!r}")
        table = self._table()
        if table is None:
            table = self.database.create_table(
                TableSchema(
                    TEMPLATE_TABLE,
                    [
                        Column("name", TEXT, nullable=False),
                        Column("kind", TEXT, nullable=False),
                        Column("spec", TEXT, nullable=False),
                    ],
                    primary_key=("name",),
                )
            )
        existing = table.lookup_pk([name])
        if existing is not None:
            table.delete(existing.rid)
        self.database.insert(
            TEMPLATE_TABLE, [name, kind, json.dumps(spec, sort_keys=True)]
        )

    def load(self, name: str) -> TemplateInstance:
        table = self._table()
        row = None if table is None else table.lookup_pk([name])
        if row is None:
            raise BrowseError(f"no template named {name!r}")
        return TemplateInstance(name, row["kind"], json.loads(row["spec"]))

    def names(self) -> List[str]:
        table = self._table()
        if table is None:
            return []
        return sorted(row["name"] for row in table.scan())

    # -- rendering -----------------------------------------------------------

    def render(self, name: str, path: Sequence[str] = ()) -> str:
        """Render a stored template; ``path`` is the drill-down trail."""
        instance = self.load(name)
        if instance.kind == "crosstab":
            body = self._render_crosstab(instance)
        elif instance.kind == "groupby":
            body = self._render_hierarchy(instance, list(path), folder=False)
        elif instance.kind == "folder":
            body = self._render_hierarchy(instance, list(path), folder=True)
        else:
            body = self._render_chart(instance)
        return page(f"Template {name}", body)

    # -- crosstab ------------------------------------------------------------

    def _render_crosstab(self, instance: TemplateInstance) -> Element:
        spec = instance.spec
        relation = from_table(self.database.table(spec["table"]))
        row_position = relation.column_position(spec["row"])
        column_position = relation.column_position(spec["column"])
        counts: Dict[Tuple[Any, Any], int] = {}
        row_values: List[Any] = []
        column_values: List[Any] = []
        for row in relation.rows:
            r, c = row[row_position], row[column_position]
            if r not in row_values:
                row_values.append(r)
            if c not in column_values:
                column_values.append(c)
            counts[(r, c)] = counts.get((r, c), 0) + 1
        header = el(
            "tr",
            None,
            el("th", None, f"{spec['row']} \\ {spec['column']}"),
            *[el("th", None, str(c)) for c in column_values],
            el("th", None, "total"),
        )
        body_rows = [header]
        for r in row_values:
            cells = [el("th", None, str(r))]
            for c in column_values:
                cells.append(el("td", None, str(counts.get((r, c), 0))))
            cells.append(
                el(
                    "td",
                    None,
                    str(sum(counts.get((r, c), 0) for c in column_values)),
                )
            )
            body_rows.append(el("tr", None, *cells))
        return el("table", None, *body_rows)

    # -- hierarchical group-by / folder ---------------------------------------

    def _hierarchy_relation(
        self, instance: TemplateInstance, path: List[str]
    ) -> Tuple[Relation, List[str]]:
        spec = instance.spec
        group_columns: List[str] = list(spec["group_columns"])
        relation = from_table(self.database.table(spec["table"]))
        for column, value in zip(group_columns, path):
            relation = select(relation, column, "=", value)
        return relation, group_columns

    def _render_hierarchy(
        self, instance: TemplateInstance, path: List[str], folder: bool
    ) -> Element:
        relation, group_columns = self._hierarchy_relation(instance, path)
        depth = len(path)
        crumbs: List[Element] = [
            link(template_url(instance.name), "[top]")
        ]
        for position, value in enumerate(path):
            crumbs.append(
                link(
                    template_url(instance.name, path[: position + 1]),
                    f" / {value}",
                )
            )
        if depth >= len(group_columns):
            # Leaf level: show the matching tuples.
            header = el(
                "tr",
                None,
                *[el("th", None, c.split(".")[-1]) for c in relation.columns],
            )
            rows = [header]
            for row in relation.rows:
                rows.append(
                    el(
                        "tr",
                        None,
                        *[el("td", None, "" if v is None else str(v)) for v in row],
                    )
                )
            return el("div", None, el("p", None, *crumbs), el("table", None, *rows))

        column = group_columns[depth]
        grouping = group_by(relation, column)
        link_to: Optional[str] = instance.spec.get("link_to")
        items: List[Element] = []
        for value in grouping.distinct_values():
            text = "(null)" if value is None else str(value)
            if link_to:
                # Template composition: route to another template.
                target = template_url(link_to, [text])
            else:
                target = template_url(instance.name, path + [text])
            label = f"{text} ({grouping.count(value)})"
            if folder:
                items.append(el("li", None, "📁 ", link(target, label)))
            else:
                items.append(el("li", None, link(target, label)))
        return el("div", None, el("p", None, *crumbs), el("ul", None, *items))

    # -- charts ---------------------------------------------------------------

    def _render_chart(self, instance: TemplateInstance) -> Element:
        spec = instance.spec
        relation = from_table(self.database.table(spec["table"]))
        label_column = spec["label_column"]
        grouping = group_by(relation, label_column)
        data: List[charts.Datum] = []
        link_to: Optional[str] = spec.get("link_to")
        for value in grouping.distinct_values():
            text = "(null)" if value is None else str(value)
            if link_to:
                url: Optional[str] = template_url(link_to, [text])
            else:
                url = (
                    BrowseState(spec["table"])
                    .with_selection(label_column, "=", text)
                    .url()
                )
            data.append((text, float(grouping.count(value)), url))
        chart_kind = spec.get("chart", "bar")
        if chart_kind == "bar":
            svg = charts.bar_chart(data)
        elif chart_kind == "line":
            svg = charts.line_chart(data)
        elif chart_kind == "pie":
            svg = charts.pie_chart(data)
        else:
            raise BrowseError(f"unknown chart kind {chart_kind!r}")
        return el("div", None, raw(svg))
