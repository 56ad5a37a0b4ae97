"""XML documents -> BANKS data graph (containment as a new edge type).

The mapping follows the paper's remark that the BANKS edge model
subsumes nested XML:

* every element becomes a node ``(document_name, element_id)``;
* **containment**: each parent-child pair contributes a forward edge
  ``parent -> child`` (weight ``containment_weight``) and a back edge
  ``child -> parent`` whose weight scales with the parent's fan-out —
  the exact hub logic of Sec. 2.1: an element with hundreds of children
  (a big ``<bibliography>``) must not make all of them mutually "near";
* **reference**: each IDREF attribute contributes a forward edge
  ``referrer -> referee`` (weight ``reference_weight``) and a back edge
  scaled by the referee's reference indegree, mirroring relational
  foreign keys;
* **prestige**: node weight = number of incoming IDREF references
  (reference indegree), the XML analogue of the paper's tuple indegree.

The keyword index treats element *text* and *attribute values* as data
terms and element *tags* / *attribute names* as metadata terms, matching
the relational side's "column or relation name" metadata matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import GraphStats, stats_of
from repro.errors import XMLError
from repro.graph.digraph import DiGraph
from repro.text.tokenizer import normalize, tokenize, tokenize_identifier
from repro.xmlkw.document import XMLDocument

#: A graph node: (document name, preorder element id).
XMLNode = Tuple[str, int]


@dataclass(frozen=True)
class XMLGraphConfig:
    """Weighting choices for the XML data graph.

    Attributes:
        containment_weight: forward weight of parent->child edges.
        reference_weight: forward weight of IDREF edges.
        idref_attributes: attribute names treated as single references.
        id_attributes: attribute names that define element IDs.
        backward_fanout_scaling: scale containment back edges by the
            parent's child count and reference back edges by the
            referee's indegree (the paper's hub fix); disabling it
            reproduces the undirected model Sec. 2.1 argues against.
        dangling_idref: ``"error"`` to reject references to missing IDs,
            ``"ignore"`` to skip them (dirty corpora).
    """

    containment_weight: float = 1.0
    reference_weight: float = 1.0
    idref_attributes: Tuple[str, ...] = ("idref", "ref", "href")
    id_attributes: Tuple[str, ...] = ("id",)
    backward_fanout_scaling: bool = True
    dangling_idref: str = "error"

    def __post_init__(self) -> None:
        if self.containment_weight <= 0 or self.reference_weight <= 0:
            raise XMLError("edge weights must be positive")
        if self.dangling_idref not in ("error", "ignore"):
            raise XMLError(
                f"dangling_idref must be 'error' or 'ignore', "
                f"got {self.dangling_idref!r}"
            )


def _is_idref_attribute(name: str, config: XMLGraphConfig) -> bool:
    lowered = name.lower()
    return lowered in config.idref_attributes or lowered.endswith("ref")


def build_xml_graph(
    documents: Sequence[XMLDocument],
    config: Optional[XMLGraphConfig] = None,
) -> Tuple[DiGraph, GraphStats]:
    """Construct the data graph over one or more XML documents.

    Documents must have distinct names (node ids embed the name).
    IDREFs resolve within their own document only — cross-document
    links belong to the federation layer.

    Returns:
        ``(graph, stats)`` with the same :class:`GraphStats` contract the
        relational model produces, so the scorer and search are reused
        unchanged.
    """
    config = config or XMLGraphConfig()
    names = [document.name for document in documents]
    if len(set(names)) != len(names):
        raise XMLError(f"duplicate document names: {names!r}")

    graph = DiGraph()
    reference_indegree: Dict[XMLNode, int] = {}
    references: List[Tuple[XMLNode, XMLNode]] = []

    for document in documents:
        for element in document.elements():
            graph.add_node((document.name, element.element_id))

    # Resolve IDREF references first: back-edge weights and prestige both
    # need the full indegree counts.
    for document in documents:
        for element in document.elements():
            source: XMLNode = (document.name, element.element_id)
            for attribute, value in element.attributes.items():
                if not _is_idref_attribute(attribute, config):
                    continue
                referee = document.by_id(value)
                if referee is None:
                    if config.dangling_idref == "error":
                        raise XMLError(
                            f"dangling IDREF {value!r} on <{element.tag}> "
                            f"in document {document.name!r}"
                        )
                    continue
                if referee is element:
                    continue  # no self loops, as in the relational model
                target: XMLNode = (document.name, referee.element_id)
                references.append((source, target))
                reference_indegree[target] = (
                    reference_indegree.get(target, 0) + 1
                )

    for source, target in references:
        graph.add_edge(source, target, config.reference_weight)
        if config.backward_fanout_scaling:
            backward = config.reference_weight * max(
                1, reference_indegree.get(target, 1)
            )
        else:
            backward = config.reference_weight
        # Eq. 1: if a containment edge will also offer a weight for this
        # pair, DiGraph.add_edge replaces — offer the min explicitly.
        _offer_min(graph, target, source, backward)

    for document in documents:
        for element in document.elements():
            fanout = len(element.children)
            parent_node: XMLNode = (document.name, element.element_id)
            for child in element.children:
                child_node: XMLNode = (document.name, child.element_id)
                _offer_min(
                    graph, parent_node, child_node, config.containment_weight
                )
                if config.backward_fanout_scaling:
                    backward = config.containment_weight * max(1, fanout)
                else:
                    backward = config.containment_weight
                _offer_min(graph, child_node, parent_node, backward)

    for document in documents:
        for element in document.elements():
            node: XMLNode = (document.name, element.element_id)
            graph.set_node_weight(
                node, float(reference_indegree.get(node, 0))
            )

    return graph, stats_of(graph)


def _offer_min(
    graph: DiGraph, source: XMLNode, target: XMLNode, weight: float
) -> None:
    """Add the edge, keeping the smaller weight if one already exists
    (Eq. 1's ``min`` merge rule for coinciding containment/reference
    pairs)."""
    if graph.has_edge(source, target):
        weight = min(weight, graph.edge_weight(source, target))
    graph.add_edge(source, target, weight)


class XMLIndex:
    """Keyword -> element-node index over a set of XML documents.

    Mirrors :class:`repro.text.inverted_index.InvertedIndex`: data terms
    come from text content and attribute values; metadata terms from
    element tags and attribute names (expanded lazily, since a tag like
    ``paper`` can match thousands of elements).
    """

    def __init__(self, documents: Sequence[XMLDocument]):
        self._documents = list(documents)
        self._postings: Dict[str, Set[XMLNode]] = {}
        # token -> (document, tag) pairs whose tag matches
        self._tag_meta: Dict[str, Set[Tuple[str, str]]] = {}
        # token -> (document, tag, attribute) triples whose attribute
        # name matches
        self._attribute_meta: Dict[str, Set[Tuple[str, str, str]]] = {}
        self._by_tag: Dict[Tuple[str, str], List[int]] = {}
        self._build()

    def _build(self) -> None:
        for document in self._documents:
            for element in document.elements():
                node: XMLNode = (document.name, element.element_id)
                self._by_tag.setdefault(
                    (document.name, element.tag), []
                ).append(element.element_id)
                for token in tokenize_identifier(element.tag):
                    self._tag_meta.setdefault(token, set()).add(
                        (document.name, element.tag)
                    )
                for token in tokenize(element.text):
                    self._postings.setdefault(token, set()).add(node)
                for attribute, value in element.attributes.items():
                    for token in tokenize_identifier(attribute):
                        self._attribute_meta.setdefault(token, set()).add(
                            (document.name, element.tag, attribute)
                        )
                    for token in tokenize(value):
                        self._postings.setdefault(token, set()).add(node)

    # -- lookup ------------------------------------------------------------

    def lookup(self, term: str) -> Set[XMLNode]:
        """Data postings only (text and attribute values)."""
        return set(self._postings.get(normalize(term), ()))

    def lookup_nodes(
        self, term: str, include_metadata: bool = True
    ) -> Set[XMLNode]:
        """All nodes relevant to ``term``; with metadata, every element
        whose tag (or an attribute name it carries) matches."""
        nodes = self.lookup(term)
        if not include_metadata:
            return nodes
        token = normalize(term)
        for document_name, tag in self._tag_meta.get(token, ()):
            nodes.update(
                (document_name, element_id)
                for element_id in self._by_tag.get((document_name, tag), ())
            )
        for document_name, tag, attribute in self._attribute_meta.get(
            token, ()
        ):
            document = next(
                d for d in self._documents if d.name == document_name
            )
            for element_id in self._by_tag.get((document_name, tag), ()):
                if attribute in document.element(element_id).attributes:
                    nodes.add((document_name, element_id))
        return nodes

    def lookup_tagged(self, term: str, tag: str) -> Set[XMLNode]:
        """Data postings restricted to elements with the given tag (and
        their attribute values) — ``tag:keyword`` query support."""
        return {
            (document_name, element_id)
            for document_name, element_id in self.lookup(term)
            for document in self._documents
            if document.name == document_name
            and document.element(element_id).tag == tag
        }

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(normalize(term), ()))

    def vocabulary(self) -> List[str]:
        return sorted(self._postings)

    def __contains__(self, term: str) -> bool:
        return normalize(term) in self._postings

    def __len__(self) -> int:
        return len(self._postings)
