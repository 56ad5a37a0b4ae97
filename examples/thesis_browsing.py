#!/usr/bin/env python
"""Browsing the thesis database (paper Sec. 4 / Fig. 4, headless).

Replays the paper's sample browsing session on the synthetic IITB
thesis database — joins through foreign keys, projections, group-by,
templates — and writes each page to ``/tmp/banks_browse/*.html`` so you
can open them in a browser.

Run::

    python examples/thesis_browsing.py
"""

import os

from repro.browse import BrowseApp, BrowseState
from repro.cluster import Cluster, ClusterSpec
from repro.datasets import generate_thesis_db

OUT_DIR = "/tmp/banks_browse"


def save(name: str, html: str) -> None:
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"  wrote {path} ({len(html)} bytes)")


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    database, _anecdotes = generate_thesis_db()
    with Cluster(ClusterSpec(), database=database) as cluster:
        session(BrowseApp(cluster))


def session(app: BrowseApp) -> None:
    """The browsing session, page by page."""
    print("Fig. 4 style session: student JOIN thesis, drop columns")
    # student is foreign-keyed from thesis; join in the reverse
    # direction from student (roll number -> thesis) like the paper.
    state = (
        BrowseState("thesis")
        .with_join(0, "f")          # thesis -> student
        .with_drop("thesis.thesis_id")
        .with_sort("student.name")
    )
    _status, html = app.handle(f"/table/{state.table}", state.to_query())
    save("join_thesis_student.html", html)

    print("group students by department, expand CSE")
    state = (
        BrowseState("student")
        .with_group_by("student.dept_id")
        .with_expand("CSE")
    )
    _status, html = app.handle("/table/student", state.to_query())
    save("students_by_department.html", html)

    print("schema browser and a tuple page with back-references")
    _status, html = app.handle("/schema", "")
    save("schema.html", html)
    _status, html = app.handle("/row/department/0", "")
    save("department_row.html", html)

    print("templates: hierarchy, crosstab, chart (composed)")
    app.templates.save(
        "students-by-dept-prog",
        "groupby",
        {
            "table": "student",
            "group_columns": ["student.dept_id", "student.prog_id"],
        },
    )
    app.templates.save(
        "dept-crosstab",
        "crosstab",
        {"table": "student", "row": "student.dept_id",
         "column": "student.prog_id"},
    )
    app.templates.save(
        "dept-pie",
        "chart",
        {
            "table": "student",
            "label_column": "student.dept_id",
            "chart": "pie",
            # Template composition: clicking a slice opens the
            # hierarchical template at that department.
            "link_to": "students-by-dept-prog",
        },
    )
    for name in ("students-by-dept-prog", "dept-crosstab", "dept-pie"):
        _status, html = app.handle(f"/template/{name}", "")
        save(f"template_{name}.html", html)
    _status, html = app.handle(
        "/template/students-by-dept-prog", "path=CSE"
    )
    save("template_drilldown_cse.html", html)

    print("keyword search from the browser: 'computer engineering'")
    _status, html = app.handle("/search", "q=computer+engineering")
    save("search_computer_engineering.html", html)


if __name__ == "__main__":
    main()
