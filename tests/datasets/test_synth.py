"""The DBLP-scale synthetic bibliography: determinism, shape, skew."""

from __future__ import annotations

import pytest

from repro.datasets import (
    DEMO_QUERY_SETS,
    synth_bibliography,
    synth_bibliography_base,
    synth_bibliography_records,
)


class TestSynthRecords:
    def test_deterministic(self):
        first = list(synth_bibliography_records(120, seed=9))
        second = list(synth_bibliography_records(120, seed=9))
        assert first == second

    def test_seed_changes_output(self):
        assert list(synth_bibliography_records(120, seed=9)) != list(
            synth_bibliography_records(120, seed=10)
        )

    def test_fk_safe_order(self):
        """Every FK target precedes its referrer in the stream, so any
        chunk-prefix of the stream is a consistent database."""
        authors, papers = set(), set()
        for table, values in synth_bibliography_records(150, seed=3):
            if table == "author":
                authors.add(values[0])
            elif table == "paper":
                papers.add(values[0])
            elif table == "writes":
                assert values[0] in authors and values[1] in papers
            elif table == "cites":
                assert values[0] in papers and values[1] in papers
            else:  # pragma: no cover - defence
                pytest.fail(f"unknown table {table!r}")

    def test_in_degree_cap_honoured(self):
        cap = 10
        cited = {}
        for table, values in synth_bibliography_records(
            400, seed=2, in_degree_cap=cap
        ):
            if table == "cites":
                cited[values[1]] = cited.get(values[1], 0) + 1
        assert cited, "no citations generated"
        assert max(cited.values()) <= cap

    def test_citations_are_skewed_and_deduped(self):
        """Zipf-ish hot list: a small head of papers soaks up a large
        share of citations, and no (citing, cited) pair repeats."""
        pairs = []
        for table, values in synth_bibliography_records(600, seed=7):
            if table == "cites":
                pairs.append(tuple(values))
        assert len(pairs) == len(set(pairs))
        cited = {}
        for _citing, target in pairs:
            cited[target] = cited.get(target, 0) + 1
        counts = sorted(cited.values(), reverse=True)
        head = sum(counts[: max(1, len(counts) // 10)])
        assert head / sum(counts) > 0.3


class TestSynthDatabase:
    def test_build_counts_and_integrity(self):
        database, n_records = synth_bibliography(300, seed=7)
        total = sum(
            len(database.table(name))
            for name in ("author", "paper", "writes", "cites")
        )
        assert total == n_records
        assert len(database.table("paper")) == 300
        database.check_integrity()

    def test_default_size_is_paper_scale(self):
        """Every record becomes one graph node: the default 19,500
        papers must stay at the paper's ~100K-node scale."""
        assert sum(1 for _ in synth_bibliography_records(19500)) >= 100_000

    def test_empty_build_is_just_the_schema(self):
        database, n_records = synth_bibliography(0)
        assert n_records == 0
        assert all(
            len(database.table(name)) == 0
            for name in ("author", "paper", "writes", "cites")
        )

    def test_base_matches_empty_build(self):
        base = synth_bibliography_base()
        assert sorted(base.table_names) == sorted(
            synth_bibliography(0)[0].table_names
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            synth_bibliography(-1)
        with pytest.raises(ValueError):
            list(synth_bibliography_records(5, in_degree_cap=0))

    def test_demo_queries_registered_and_answerable(self):
        from repro.core.incremental import IncrementalBANKS

        queries = DEMO_QUERY_SETS["synth_bibliography"]
        assert len(queries) >= 5
        facade = IncrementalBANKS(synth_bibliography(250, seed=7)[0])
        for query in queries:
            assert facade.search(query, max_results=3), query
