#!/usr/bin/env python
"""Cross-database keyword search through external links (Sec. 7).

The paper plans "support for external links, such as HTML HREFs ...
particularly useful when integrating information from multiple
databases".  This example federates two independently generated
databases — the DBLP-like bibliography and the IITB-thesis-like
database — by declaring one external link: thesis advisors and
bibliography authors with the same name are the same person.

Keyword queries then return connection trees *spanning both databases*:
a thesis in one database connects to papers in the other through the
person-identity link.

Run:
    python examples/federated_search.py
"""

from __future__ import annotations

from repro.datasets import generate_bibliography, generate_thesis_db
from repro.federate import ExternalLink, FederatedBanks, Federation


def main() -> None:
    biblio, _ = generate_bibliography(papers=80, authors=50, seed=7)
    thesis, _ = generate_thesis_db()

    # The thesis database writes advisors as "Prof. X"; align a few
    # names so the identity link has something to match (in a real
    # deployment this is the data-cleaning step HREF publishing needs).
    for row in list(thesis.table("faculty").scan()):
        if row["name"] == "Prof. S. Sudarshan":
            thesis.update(("faculty", row.rid), {"name": "S. Sudarshan"})

    federation = Federation("campus")
    federation.register("dblp", biblio)
    federation.register("theses", thesis)
    federation.add_link(
        ExternalLink(
            name="advisor-is-author",
            source_db="theses",
            source_table="faculty",
            source_column="name",
            target_db="dblp",
            target_table="author",
            target_column="name",
        )
    )
    print(federation)

    banks = FederatedBanks(federation)
    print(banks)
    resolved = federation.resolve_links()
    print(f"resolved external links: {len(resolved)}")
    for source, target, weight in resolved[:5]:
        print(f"  {source} -> {target} (weight {weight})")

    for query in ("sudarshan temporal", "sudarshan thesis", "author aditya"):
        print(f"\n>>> {query!r}")
        answers = banks.search(query, max_results=3)
        if not answers:
            print("    (no answers)")
            continue
        for answer in answers:
            marker = "CROSS-DB" if answer.is_cross_database() else "single"
            print(f"  [{answer.relevance:.3f}] ({marker})")
            for line in answer.render().splitlines():
                print(f"    {line}")


if __name__ == "__main__":
    main()
