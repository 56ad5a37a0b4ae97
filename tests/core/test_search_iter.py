"""The answer-iterator protocol: streaming, early stop, observability.

``BANKS.search_iter`` is the primary streaming surface (``search`` and
the SSE tier are built on it); these tests pin the contract — same
answers as ``search`` in the same order, early termination actually
stops the expansion, and the CSR kernel keeps filling the profile
counters and trace spans the observability tier reads.
"""

from __future__ import annotations

from repro.core.banks import BANKS
from repro.core.incremental import IncrementalBANKS
from repro.graph.csr import CSROverlayGraph
from repro.obs import SearchProfile, Trace, span_tree
from repro.relational import Database, load_sql
from tests.conftest import FIGURE1_SQL


def make_db() -> Database:
    return load_sql(FIGURE1_SQL, "figure1")


def make_banks(**options) -> BANKS:
    return BANKS(make_db(), **options)


class TestSearchIter:
    def test_yields_search_results_in_order(self):
        banks = make_banks()
        expected = banks.search("soumen sunita")
        streamed = list(banks.search_iter("soumen sunita"))
        assert [(a.root, a.relevance, a.rank) for a in streamed] == [
            (a.root, a.relevance, a.rank) for a in expected
        ]

    def test_frozen_facade_streams_identically_to_reference(self):
        frozen = make_banks(freeze=True)
        reference = make_banks(freeze=False)
        assert isinstance(frozen.graph, CSROverlayGraph)
        assert [
            (a.root, a.relevance)
            for a in frozen.search_iter("soumen sunita")
        ] == [
            (a.root, a.relevance)
            for a in reference.search_iter("soumen sunita")
        ]

    def test_early_termination_stops_expansion(self):
        banks = make_banks()
        full = SearchProfile()
        list(banks.search_iter("soumen sunita", profile=full))
        partial = SearchProfile()
        iterator = banks.search_iter("soumen sunita", profile=partial)
        first = next(iterator)
        iterator.close()  # abandon: the kernel generator must stop
        assert first.rank == 0
        assert 0 < partial.heap_pops <= full.heap_pops
        assert partial.expansion_seconds > 0.0

    def test_incremental_facade_refreshes_stats_before_streaming(self):
        banks = IncrementalBANKS(make_db())
        banks.insert("author", ["NewA", "Fresh Author"])
        assert banks._stats_dirty
        answers = list(banks.search_iter("soumen"))
        assert not banks._stats_dirty
        assert answers

    def test_on_answer_streams_the_returned_list(self):
        banks = make_banks()
        streamed = []
        answers = banks.search(
            "soumen sunita", on_answer=streamed.append
        )
        assert [(a.root, a.rank) for a in streamed] == [
            (a.root, a.rank) for a in answers
        ]


class TestCSRObservability:
    def test_profile_counters_populated_on_csr_kernel(self):
        banks = make_banks(freeze=True)
        profile = SearchProfile()
        answers = banks.search("soumen sunita", profile=profile)
        assert answers
        assert profile.iterators > 0
        assert profile.heap_pops > 0
        assert profile.nodes_expanded > 0
        assert profile.edges_relaxed > 0
        assert profile.trees_considered > 0
        assert profile.answers_emitted == len(answers)
        assert profile.expansion_seconds > 0.0

    def test_trace_spans_form_one_rooted_tree(self):
        banks = make_banks(freeze=True)
        trace = Trace()
        root = trace.begin("query")
        profile = SearchProfile()
        banks.search(
            "soumen sunita",
            trace=trace,
            trace_parent=root.span_id,
            profile=profile,
        )
        trace.end(root)
        roots = span_tree(trace.export())
        assert len(roots) == 1
        exported = trace.export()
        names = {span["name"] for span in exported}
        assert {"query", "search.resolve", "search.kernel"} <= names
        kernel = next(
            span for span in exported if span["name"] == "search.kernel"
        )
        assert kernel["attrs"]["answers"] > 0
        assert kernel["attrs"]["heap_pops"] == profile.heap_pops
