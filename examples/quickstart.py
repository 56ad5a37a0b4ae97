#!/usr/bin/env python
"""Quickstart: define a schema, load a few tuples, run keyword queries.

Recreates the paper's running example (Fig. 1 / Fig. 2): the DBLP
fragment around the paper ChakrabartiSD98 and a "soumen sunita" query
whose answer is the rooted connection tree joining both authors through
the paper.

Run::

    python examples/quickstart.py
"""

from repro import BANKS
from repro.relational import load_sql

SCHEMA_AND_DATA = """
CREATE TABLE author (
    author_id TEXT PRIMARY KEY,
    name TEXT NOT NULL
);
CREATE TABLE paper (
    paper_id TEXT PRIMARY KEY,
    title TEXT NOT NULL
);
CREATE TABLE writes (
    author_id TEXT NOT NULL REFERENCES author(author_id),
    paper_id TEXT NOT NULL REFERENCES paper(paper_id),
    PRIMARY KEY (author_id, paper_id)
);
CREATE TABLE cites (
    citing TEXT NOT NULL REFERENCES paper(paper_id),
    cited TEXT NOT NULL REFERENCES paper(paper_id),
    PRIMARY KEY (citing, cited)
);

INSERT INTO author VALUES ('SoumenC', 'Soumen Chakrabarti');
INSERT INTO author VALUES ('SunitaS', 'Sunita Sarawagi');
INSERT INTO author VALUES ('ByronD', 'Byron Dom');
INSERT INTO paper VALUES
    ('ChakrabartiSD98',
     'Mining Surprising Patterns Using Temporal Description Length');
INSERT INTO paper VALUES ('Later01', 'Followup Work On Pattern Mining');
INSERT INTO writes VALUES ('SoumenC', 'ChakrabartiSD98');
INSERT INTO writes VALUES ('SunitaS', 'ChakrabartiSD98');
INSERT INTO writes VALUES ('ByronD', 'ChakrabartiSD98');
INSERT INTO writes VALUES ('SoumenC', 'Later01');
INSERT INTO cites VALUES ('Later01', 'ChakrabartiSD98');
"""


def main() -> None:
    database = load_sql(SCHEMA_AND_DATA, "dblp-fragment")

    banks = BANKS(database)
    print(banks)
    print()

    for query in ("soumen sunita", "sunita temporal", "mining"):
        print(f"=== query: {query!r}")
        for answer in banks.search(query, max_results=3):
            print(f"--- rank {answer.rank}  relevance {answer.relevance:.3f}")
            print(answer.render())
        print()


if __name__ == "__main__":
    main()
