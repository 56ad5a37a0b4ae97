"""The BANKS facade: index a database once, answer keyword queries.

This is the public entry point a downstream user needs::

    from repro import BANKS
    from repro.relational.sqlite_adapter import load_sqlite

    banks = BANKS(load_sqlite("dblp.db"))
    for answer in banks.search("soumen sunita"):
        print(answer.render())

It wires together graph construction (:mod:`repro.core.model`), keyword
indexing (:mod:`repro.text.inverted_index`), query parsing
(:mod:`repro.core.query`), the backward expanding search
(:mod:`repro.core.search`) and scoring (:mod:`repro.core.scoring`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.core.answer import AnswerTree
from repro.core.model import build_data_graph, link_tables
from repro.core.oracle import reference_search
from repro.core.query import ParsedQuery, parse_query, resolve_query
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import (
    ScoredAnswer,
    SearchConfig,
    backward_expanding_search,
)
from repro.core.summarize import structure_signature, summarize_answers
from repro.core.weights import WeightPolicy
from repro.graph.csr import freeze_graph
from repro.relational.database import Database, RID
from repro.text.inverted_index import InvertedIndex


@dataclass
class Answer:
    """One ranked answer, ready for presentation.

    Attributes:
        tree: the connection tree (root = information node).
        relevance: overall relevance score in [0, 1].
        rank: position in the result list (0-based).
    """

    tree: AnswerTree
    relevance: float
    rank: int
    _banks: "BANKS"

    @property
    def root(self) -> RID:
        return self.tree.root

    def render(self) -> str:
        """Indented rendering with tuple labels (cf. paper Fig. 2)."""
        labels = {
            node: self._banks.node_label(node) for node in self.tree.nodes
        }
        return self.tree.render_indented(labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Answer(rank={self.rank}, relevance={self.relevance:.4f}, "
            f"root={self._banks.node_label(self.root)!r})"
        )


def node_label(database: Database, node: RID) -> str:
    """``table: best text`` label for a tuple node (cf. paper Fig. 2).

    Shared by every front end that renders trees — the facade, the
    shard router, the browse app — so sharded and unsharded pages
    label rows identically.
    """
    table_name, rid = node
    table = database.table(table_name)
    row = table.row(rid)
    best_text = ""
    for column in table.schema.text_columns():
        value = row[column.name]
        if value and len(str(value)) > len(best_text):
            best_text = str(value)
    if not best_text:
        if table.schema.primary_key:
            best_text = ",".join(str(row[c]) for c in table.schema.primary_key)
        else:
            best_text = f"rid={rid}"
    if len(best_text) > 60:
        best_text = best_text[:57] + "..."
    return f"{table_name}: {best_text}"


class BANKS:
    """Browsing ANd Keyword Searching over one relational database.

    Args:
        database: the data to search.
        weight_policy: edge/prestige weighting (defaults to the paper's).
        scoring: scoring parameters (defaults: lambda=0.2, EdgeLog on —
            the paper's best setting).
        search_config: search knobs (defaults to the paper's).
        include_metadata: let keywords match table/column names.
        fuzzy: enable edit-distance fallback for unknown keywords.
        auto_exclude_link_roots: when the search config does not name
            excluded root tables, exclude pure relationship tables
            (``writes``, ``cites``, ...) as information nodes — the
            paper's "selected set" restriction, derived automatically
            from the catalog.
        freeze: serve the built CSR graph (:mod:`repro.graph.csr`)
            through a :class:`~repro.graph.csr.CSROverlayGraph` and
            search it with the kernel.  ``False`` makes the facade the
            oracle: it searches a row-for-row dict-of-dicts copy
            (:meth:`~repro.graph.csr.CSRGraph.thaw`) with
            :func:`repro.core.oracle.reference_search`.
    """

    def __init__(
        self,
        database: Database,
        weight_policy: Optional[WeightPolicy] = None,
        scoring: Optional[ScoringConfig] = None,
        search_config: Optional[SearchConfig] = None,
        include_metadata: bool = True,
        fuzzy: bool = False,
        auto_exclude_link_roots: bool = True,
        freeze: bool = True,
    ):
        self.database = database
        self.weight_policy = weight_policy or WeightPolicy()
        self.scoring = scoring or ScoringConfig()
        self.search_config = search_config or SearchConfig()
        self.include_metadata = include_metadata
        self.fuzzy = fuzzy
        if auto_exclude_link_roots and not self.search_config.excluded_root_tables:
            self.search_config = replace(
                self.search_config,
                excluded_root_tables=link_tables(database),
            )

        graph, self.stats = build_data_graph(database, self.weight_policy)
        self.graph = freeze_graph(graph) if freeze else graph.thaw()
        self._oracle = not freeze
        self.index = InvertedIndex(database)
        self.scorer = Scorer(self.stats, self.scoring)

    # -- query answering ------------------------------------------------------

    def _search(self, keyword_node_sets, scorer, config, profile=None):
        # Looked up per call: a wrapper on the module global sees it all.
        search = reference_search if self._oracle else backward_expanding_search
        return search(self.graph, keyword_node_sets, scorer, config, profile=profile)

    def resolve(self, query: Union[str, ParsedQuery]) -> List[Set[RID]]:
        """Node sets ``S_i`` for each term of ``query``."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return resolve_query(
            parsed,
            self.index,
            self.database,
            include_metadata=self.include_metadata,
            fuzzy=self.fuzzy,
        )

    def search_iter(
        self,
        query: Union[str, ParsedQuery],
        max_results: Optional[int] = None,
        scoring: Optional[ScoringConfig] = None,
        trace=None,
        trace_parent=None,
        profile=None,
        **config_overrides,
    ) -> Iterator[Answer]:
        """Stream answers as the backward expansion emits them.

        The answer-iterator protocol: a generator of :class:`Answer`
        in emission order — the same answers :meth:`search` returns, in
        the same order, but available one at a time while the kernel is
        still expanding.  Early termination is first-class: abandoning
        the iterator (``break``) closes the underlying kernel generator
        and stops the expansion; nothing beyond the consumed prefix is
        computed.  :meth:`search` and the SSE streaming tier are both
        built on this.

        Args: as :meth:`search`, minus ``on_answer`` (the iterator
        *is* the stream).
        """
        resolve_span = (
            trace.begin("search.resolve", parent_id=trace_parent)
            if trace is not None
            else None
        )
        keyword_node_sets = self.resolve(query)
        if resolve_span is not None:
            resolve_span.attrs["terms"] = len(keyword_node_sets)
            trace.end(resolve_span)
        config = self.search_config
        if max_results is not None:
            config_overrides["max_results"] = max_results
        if config_overrides:
            config = replace(config, **config_overrides)
        scorer = (
            self.scorer if scoring is None else self.scorer.with_config(scoring)
        )
        kernel_span = (
            trace.begin("search.kernel", parent_id=trace_parent)
            if trace is not None
            else None
        )
        kernel_start = perf_counter() if profile is not None else 0.0
        emitted = 0
        try:
            for s in self._search(keyword_node_sets, scorer, config, profile):
                yield Answer(s.tree, s.relevance, emitted, self)
                emitted += 1
        finally:
            # Runs on exhaustion AND on early abandonment (generator
            # close), so spans and timings cover exactly the expansion
            # work actually performed.
            if profile is not None:
                profile.expansion_seconds += perf_counter() - kernel_start
            if kernel_span is not None:
                kernel_span.attrs["answers"] = emitted
                if profile is not None:
                    kernel_span.attrs["heap_pops"] = profile.heap_pops
                    kernel_span.attrs["nodes_expanded"] = profile.nodes_expanded
                    kernel_span.attrs["edges_relaxed"] = profile.edges_relaxed
                trace.end(kernel_span)

    def search(
        self,
        query: Union[str, ParsedQuery],
        max_results: Optional[int] = None,
        scoring: Optional[ScoringConfig] = None,
        trace=None,
        trace_parent=None,
        profile=None,
        on_answer=None,
        **config_overrides,
    ) -> List[Answer]:
        """Answer a keyword query.

        The answer-iterator protocol (:meth:`search_iter`), drained:
        each answer reaches ``on_answer`` while the expansion is still
        running — the hook the SSE streaming tier hangs off.

        Args:
            query: query string (or pre-parsed query).
            max_results: override the configured result count.
            scoring: override the scoring parameters for this query
                (the evaluation sweep uses this).
            trace: optional :class:`repro.obs.Trace` collector; the
                kernel invocation is recorded as a ``search.kernel``
                span under ``trace_parent``.
            trace_parent: span id the kernel span hangs under.
            profile: optional :class:`repro.obs.SearchProfile` the
                kernel fills (counters + expansion wall time).
            on_answer: optional callback fired with each
                :class:`Answer` as the backward expanding search emits
                it — strictly before the full top-k completes.  The
                streamed answers equal the returned list, in order.
            **config_overrides: any :class:`SearchConfig` field.

        Returns:
            Ranked answers (rank 0 = best).
        """
        answers: List[Answer] = []
        for answer in self.search_iter(
            query,
            max_results=max_results,
            scoring=scoring,
            trace=trace,
            trace_parent=trace_parent,
            profile=profile,
            **config_overrides,
        ):
            if on_answer is not None:
                on_answer(answer)
            answers.append(answer)
        return answers

    def search_summarized(
        self, query: Union[str, ParsedQuery], **kwargs
    ) -> Dict[str, List[Answer]]:
        """Answers grouped by schema-level tree structure (Sec. 7)."""
        answers = self.search(query, **kwargs)
        scored = [
            ScoredAnswer(a.tree, a.relevance, a.rank) for a in answers
        ]
        grouped = summarize_answers(scored)
        by_structure: Dict[str, List[Answer]] = {}
        answers_by_order = {a.rank: a for a in answers}
        for signature, group in grouped.items():
            by_structure[signature] = [
                answers_by_order[s.order] for s in group
            ]
        return by_structure

    def search_structure(
        self,
        query: Union[str, ParsedQuery],
        signature: str,
        max_results: Optional[int] = None,
        scan_budget: int = 200,
        **config_overrides,
    ) -> List[Answer]:
        """Further answers with one particular tree structure (Sec. 7).

        The paper: "allow the user to look for further answers with a
        particular tree structure".  Runs the incremental search with a
        widened emission budget and keeps only answers whose
        schema-level shape (:func:`repro.core.summarize.structure_signature`)
        equals ``signature``, stopping as soon as enough matches arrived
        — the generator is consumed lazily, so unwanted answers beyond
        the last match cost nothing.

        Args:
            query: the original keyword query.
            signature: a structure signature, usually a key of
                :meth:`search_summarized`'s result.
            max_results: matching answers wanted (defaults to the
                configured result count).
            scan_budget: total emissions to examine while filtering.
        """
        wanted = (
            max_results
            if max_results is not None
            else self.search_config.max_results
        )
        keyword_node_sets = self.resolve(query)
        config = replace(
            self.search_config,
            max_results=max(scan_budget, wanted),
            **config_overrides,
        )
        matches: List[Answer] = []
        for scored in self._search(keyword_node_sets, self.scorer, config):
            if structure_signature(scored.tree) != signature:
                continue
            matches.append(
                Answer(scored.tree, scored.relevance, len(matches), self)
            )
            if len(matches) >= wanted:
                break
        return matches

    # -- presentation helpers -----------------------------------------------------

    def node_label(self, node: RID) -> str:
        """A compact human-readable label for a tuple node.

        Prefers the longest text attribute (titles, names); falls back
        to the primary key; always prefixed by the relation name so the
        rendering reads like the paper's Fig. 2 trees.
        """
        return node_label(self.database, node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BANKS({self.database.name}: {self.stats.num_nodes} nodes, "
            f"{self.stats.num_edges} edges, {len(self.index)} terms)"
        )
