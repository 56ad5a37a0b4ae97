"""The browsing subsystem (paper Sec. 4).

"The BANKS system provides a rich interface to browse data stored in a
relational database.  The browsing system automatically generates
browsable views of database relations and query results; no content
programming or user intervention is required."

Everything here is headless and pure: functions from database +
browse-state to HTML strings, so the whole subsystem is unit-testable
without a web server.  :class:`repro.net.HttpServer` serves the pages
(``banks serve``; ``examples/publish_sqlite.py`` for the paper's "near
zero-effort Web publishing" workflow).

* :mod:`repro.browse.hyperlink` — URL scheme and browse-state encoding;
* :mod:`repro.browse.html` — minimal escaped-HTML builder;
* :mod:`repro.browse.tableview` — table pages with the paper's controls
  (project, select, join through FKs in both directions, group-by,
  sort, paginate) and automatic hyperlinks on key columns;
* :mod:`repro.browse.schema_browser` — schema overview;
* :mod:`repro.browse.charts` — SVG bar/line/pie with drill-down links;
* :mod:`repro.browse.templates` — crosstab / group-by hierarchy /
  folder / chart templates, stored in the database and composable;
* :mod:`repro.browse.app` — :class:`BrowseApp`, the routes tying it
  together over one :class:`~repro.cluster.api.Cluster`.
"""

from repro.browse.app import BrowseApp
from repro.browse.hyperlink import BrowseState, row_url, table_url
from repro.browse.schema_browser import render_schema
from repro.browse.tableview import render_row_page, render_table_page
from repro.browse.templates import TemplateRegistry

__all__ = [
    "BrowseApp",
    "BrowseState",
    "TemplateRegistry",
    "render_row_page",
    "render_schema",
    "render_table_page",
    "row_url",
    "table_url",
]
