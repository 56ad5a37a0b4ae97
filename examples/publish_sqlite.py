#!/usr/bin/env python
"""Zero-effort Web publishing of a sqlite database (paper Sec. 1).

"The greatest value of BANKS lies in near zero-effort Web publishing of
relational data which would otherwise remain invisible to the Web."

This example builds a sqlite product-catalog database (standing in for
any database you already have), loads it with the sqlite adapter —
schema, keys and all, no programming — and serves a browsable,
keyword-searchable site over it: one ``Cluster`` and the one HTTP
server that serves both the pages and the JSON API.

Run::

    python examples/publish_sqlite.py            # smoke mode: render pages
    python examples/publish_sqlite.py --serve    # serve on localhost:8947
"""

import os
import sqlite3
import sys
import tempfile

from repro.browse import BrowseApp
from repro.cluster import Cluster, ClusterSpec
from repro.net import HttpServer, NetConfig
from repro.relational.sqlite_adapter import load_sqlite

CATALOG_SQL = """
CREATE TABLE category (
    cat_id TEXT PRIMARY KEY,
    name TEXT NOT NULL
);
CREATE TABLE product (
    prod_id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    cat_id TEXT NOT NULL REFERENCES category(cat_id)
);
CREATE TABLE store (
    store_id TEXT PRIMARY KEY,
    city TEXT NOT NULL
);
CREATE TABLE stock (
    store_id TEXT NOT NULL REFERENCES store(store_id),
    prod_id TEXT NOT NULL REFERENCES product(prod_id),
    quantity INTEGER NOT NULL,
    PRIMARY KEY (store_id, prod_id)
);

INSERT INTO category VALUES ('AUDIO', 'Audio Equipment');
INSERT INTO category VALUES ('PHOTO', 'Cameras and Photography');
INSERT INTO product VALUES ('P1', 'Walnut Bookshelf Speakers', 'AUDIO');
INSERT INTO product VALUES ('P2', 'Tube Amplifier Kit', 'AUDIO');
INSERT INTO product VALUES ('P3', 'Rangefinder Camera', 'PHOTO');
INSERT INTO product VALUES ('P4', 'Tripod With Fluid Head', 'PHOTO');
INSERT INTO store VALUES ('S1', 'Mumbai');
INSERT INTO store VALUES ('S2', 'Pune');
INSERT INTO stock VALUES ('S1', 'P1', 12);
INSERT INTO stock VALUES ('S1', 'P3', 3);
INSERT INTO stock VALUES ('S2', 'P2', 7);
INSERT INTO stock VALUES ('S2', 'P3', 5);
INSERT INTO stock VALUES ('S2', 'P4', 9);
"""


def build_catalog(directory: str) -> str:
    path = os.path.join(directory, "catalog.db")
    connection = sqlite3.connect(path)
    connection.executescript(CATALOG_SQL)
    connection.commit()
    connection.close()
    return path


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="banks_catalog_") as directory:
        sqlite_path = build_catalog(directory)
        print(f"created sqlite database at {sqlite_path}")

        # The whole "integration": one call.  It reads every row, so the
        # file can go once it returns.
        database = load_sqlite(sqlite_path, name="catalog")
    with Cluster(ClusterSpec(), database=database) as cluster:
        if "--serve" in sys.argv:
            print("serving http://127.0.0.1:8947/ (Ctrl-C to stop)")
            HttpServer(cluster, NetConfig(port=8947)).serve_forever()
            return

        # Smoke mode: render key pages and a search, print sizes.
        app = BrowseApp(cluster)
        for path, query_string in [
            ("/", ""),
            ("/schema", ""),
            ("/table/product", ""),
            ("/search", "q=camera+mumbai"),
        ]:
            status, html = app.handle(path, query_string)
            print(f"{path:<18} {status} {len(html)} bytes")

        print("\nkeyword search 'camera mumbai' (joins stock/store implicitly):")
        for answer in cluster.query("camera mumbai", k=2).answers:
            print(f"--- rank {answer.rank}  relevance {answer.relevance:.3f}")
            print(answer.render())


if __name__ == "__main__":
    main()
