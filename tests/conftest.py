"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import BANKS
from repro.relational import Database, load_sql

#: The paper's Fig. 1 fragment: schema plus the ChakrabartiSD98 tuples.
FIGURE1_SQL = """
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
INSERT INTO writes VALUES ('SoumenC', 'ChakrabartiSD98');
INSERT INTO writes VALUES ('SunitaS', 'ChakrabartiSD98');
INSERT INTO writes VALUES ('ByronD', 'ChakrabartiSD98');
"""


@pytest.fixture
def figure1_db() -> Database:
    return load_sql(FIGURE1_SQL, "figure1")


@pytest.fixture
def figure1_banks(figure1_db) -> BANKS:
    return BANKS(figure1_db)


@pytest.fixture(scope="session")
def bibliography_session():
    from repro.datasets import generate_bibliography

    return generate_bibliography()


@pytest.fixture(scope="session")
def biblio_banks_session(bibliography_session):
    database, _anecdotes = bibliography_session
    return BANKS(database)


@pytest.fixture(scope="session")
def thesis_session():
    from repro.datasets import generate_thesis_db

    return generate_thesis_db()
