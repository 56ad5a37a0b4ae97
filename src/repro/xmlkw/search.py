"""Keyword search over XML corpora: the :class:`XMLBanks` facade.

Mirrors :class:`repro.BANKS` for XML documents.  The graph model and
keyword index come from :mod:`repro.xmlkw.model`; the *search machinery
is reused unchanged* — the backward expanding search, scorer and answer
trees are generic over graph nodes, which is precisely the paper's point
that XML only adds "edges of a new type" to the same framework.

Query syntax matches the relational side: plain keywords,
``tag:keyword`` (the XML reading of ``attribute:keyword`` — the keyword
must occur inside an element with that tag), and ``approx(NUMBER)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Set, Union

from repro.core.query import ParsedQuery, QueryTerm, parse_query
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import SearchConfig, backward_expanding_search
from repro.core.answer import AnswerTree
from repro.graph.csr import freeze_graph
from repro.text.fuzzy import numbers_near
from repro.xmlkw.document import XMLDocument, XMLElement
from repro.xmlkw.model import (
    XMLGraphConfig,
    XMLIndex,
    XMLNode,
    build_xml_graph,
)


@dataclass
class XMLAnswer:
    """One ranked XML answer: a connection tree over elements."""

    tree: AnswerTree
    relevance: float
    rank: int
    _banks: "XMLBanks"

    @property
    def root(self) -> XMLNode:
        return self.tree.root

    def root_element(self) -> XMLElement:
        return self._banks.element(self.tree.root)

    def render(self) -> str:
        """Indented rendering with element labels (tag, id, text head)."""
        labels = {
            node: self._banks.node_label(node) for node in self.tree.nodes
        }
        return self.tree.render_indented(labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"XMLAnswer(rank={self.rank}, relevance={self.relevance:.4f}, "
            f"root={self._banks.node_label(self.root)!r})"
        )


class XMLBanks:
    """Browsing ANd Keyword Searching over XML documents.

    Args:
        documents: the corpus (one or more finalized documents with
            distinct names).
        graph_config: edge weighting (defaults follow the relational
            side's defaults).
        scoring: scoring parameters (default: the paper's best setting).
        search_config: search knobs.
        excluded_root_tags: tags whose elements may not serve as
            information nodes (the XML analogue of excluding ``writes``
            — e.g. pure wrapper elements).
    """

    def __init__(
        self,
        documents: Union[XMLDocument, Sequence[XMLDocument]],
        graph_config: Optional[XMLGraphConfig] = None,
        scoring: Optional[ScoringConfig] = None,
        search_config: Optional[SearchConfig] = None,
        excluded_root_tags: Sequence[str] = (),
    ):
        if isinstance(documents, XMLDocument):
            documents = [documents]
        self.documents = list(documents)
        self._by_name = {
            document.name: document for document in self.documents
        }
        self.graph_config = graph_config or XMLGraphConfig()
        self.scoring = scoring or ScoringConfig()
        self.search_config = search_config or SearchConfig()
        self.excluded_root_tags = frozenset(excluded_root_tags)

        graph, self.stats = build_xml_graph(self.documents, self.graph_config)
        self.graph = freeze_graph(graph)
        self.index = XMLIndex(self.documents)
        self.scorer = Scorer(self.stats, self.scoring)

    # -- resolution --------------------------------------------------------------

    def element(self, node: XMLNode) -> XMLElement:
        document_name, element_id = node
        return self._by_name[document_name].element(element_id)

    def resolve_term(
        self, term: QueryTerm, include_metadata: bool = True
    ) -> Set[XMLNode]:
        """The node set ``S_i`` for one query term."""
        if term.kind == "approx":
            nodes: Set[XMLNode] = set()
            for token in numbers_near(
                term.number or 0, self.index.vocabulary(), window=2
            ):
                nodes.update(self.index.lookup(token))
            return nodes
        if term.kind == "attribute":
            # The XML reading of attribute:keyword — restrict to elements
            # with the qualifying tag.
            return self.index.lookup_tagged(term.term, term.attribute or "")
        return self.index.lookup_nodes(
            term.term, include_metadata=include_metadata
        )

    def resolve(self, query: Union[str, ParsedQuery]) -> List[Set[XMLNode]]:
        parsed = parse_query(query) if isinstance(query, str) else query
        return [self.resolve_term(term) for term in parsed.terms]

    # -- search ------------------------------------------------------------------

    def search(
        self,
        query: Union[str, ParsedQuery],
        max_results: Optional[int] = None,
        scoring: Optional[ScoringConfig] = None,
        **config_overrides,
    ) -> List[XMLAnswer]:
        """Answer a keyword query over the corpus.

        Returns ranked answers; each answer's root is the *information
        element* whose subtree-spanning paths connect the keywords.
        """
        keyword_node_sets = self.resolve(query)
        config = self.search_config
        if max_results is not None:
            config_overrides["max_results"] = max_results
        if self.excluded_root_tags and "excluded_root_nodes" not in config_overrides:
            config_overrides["excluded_root_nodes"] = frozenset(
                self._excluded_root_nodes()
            )
        if config_overrides:
            config = replace(config, **config_overrides)
        scorer = (
            self.scorer if scoring is None else self.scorer.with_config(scoring)
        )
        scored = list(
            backward_expanding_search(
                self.graph, keyword_node_sets, scorer, config
            )
        )
        return [
            XMLAnswer(s.tree, s.relevance, rank, self)
            for rank, s in enumerate(scored)
        ]

    def _excluded_root_nodes(self) -> Set[XMLNode]:
        nodes: Set[XMLNode] = set()
        for document in self.documents:
            for element in document.elements():
                if element.tag in self.excluded_root_tags:
                    nodes.add((document.name, element.element_id))
        return nodes

    # -- presentation --------------------------------------------------------------

    def node_label(self, node: XMLNode) -> str:
        """``tag[#id]: leading text`` — compact, Fig. 2-style labels."""
        element = self.element(node)
        label = element.tag
        for attribute in self.graph_config.id_attributes:
            if attribute in element.attributes:
                label += f"#{element.attributes[attribute]}"
                break
        text = element.text or element.full_text()
        if text:
            head = text if len(text) <= 50 else text[:47] + "..."
            label += f": {head}"
        return label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"XMLBanks({len(self.documents)} document(s), "
            f"{self.stats.num_nodes} nodes, {self.stats.num_edges} edges)"
        )
