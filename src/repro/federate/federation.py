"""The :class:`Federation`: several databases, one searchable graph.

Construction:

1. each member database contributes its own BANKS data graph (built by
   :func:`repro.core.model.build_data_graph` with the member's weight
   policy), re-keyed onto ``(database, table, rid)`` nodes;
2. external links contribute cross-database edges with the same
   forward/backward asymmetry as foreign keys — the backward edge's
   weight scales with the target's *cross-link indegree*, so a tuple
   referenced by hundreds of external tuples (a hub home page) does not
   collapse proximity, exactly the Sec. 2.1 argument;
3. cross-link references add to node prestige (a tuple heavily linked
   from other databases is important, the federated reading of inlink
   prestige).

:class:`FederatedBanks` then reuses the backward expanding search and
scorer unchanged over the unified graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.model import GraphStats, build_data_graph, link_tables, stats_of
from repro.core.answer import AnswerTree
from repro.core.query import ParsedQuery, parse_query, resolve_term
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import SearchConfig, backward_expanding_search
from repro.core.weights import WeightPolicy
from repro.errors import FederationError
from repro.federate.links import ExternalLink, FederatedNode, TupleLink
from repro.graph.csr import freeze_graph
from repro.graph.digraph import DiGraph
from repro.relational.database import Database
from repro.text.inverted_index import InvertedIndex


class Federation:
    """A named collection of member databases plus external links."""

    def __init__(self, name: str = "federation"):
        self.name = name
        self._members: Dict[str, Database] = {}
        self._policies: Dict[str, WeightPolicy] = {}
        self._links: List[ExternalLink] = []
        self._tuple_links: List[TupleLink] = []

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        database: Database,
        weight_policy: Optional[WeightPolicy] = None,
    ) -> None:
        """Add a member database under ``name``."""
        if name in self._members:
            raise FederationError(f"member {name!r} already registered")
        self._members[name] = database
        self._policies[name] = weight_policy or WeightPolicy()

    def member(self, name: str) -> Database:
        try:
            return self._members[name]
        except KeyError:
            raise FederationError(f"unknown member database {name!r}") from None

    @property
    def member_names(self) -> List[str]:
        return list(self._members)

    def add_link(self, link: ExternalLink) -> None:
        """Register a value-matching external link (validated eagerly)."""
        for db_name, table, column in (
            (link.source_db, link.source_table, link.source_column),
            (link.target_db, link.target_table, link.target_column),
        ):
            database = self.member(db_name)
            schema = database.schema.table(table)
            schema.column_position(column)  # raises on unknown column
        self._links.append(link)

    def add_tuple_link(self, link: TupleLink) -> None:
        """Register an explicit tuple-to-tuple link (a resolved HREF)."""
        for db_name, (table, rid) in (
            (link.source_db, link.source),
            (link.target_db, link.target),
        ):
            database = self.member(db_name)
            if not database.table(table).has_rid(rid):
                raise FederationError(
                    f"tuple link endpoint {db_name}.{table}:{rid} "
                    "does not exist"
                )
        self._tuple_links.append(link)

    @property
    def links(self) -> List[ExternalLink]:
        return list(self._links)

    # -- link resolution ------------------------------------------------------------

    def resolve_links(self) -> List[Tuple[FederatedNode, FederatedNode, float]]:
        """Materialise every external link into node pairs.

        Value-matching links hash the target column, then probe with
        every non-null source value; explicit tuple links pass through.
        """
        resolved: List[Tuple[FederatedNode, FederatedNode, float]] = []
        for link in self._links:
            target_db = self.member(link.target_db)
            target_table = target_db.table(link.target_table)
            position = target_table.schema.column_position(link.target_column)
            buckets: Dict[object, List[int]] = {}
            for row in target_table.scan():
                value = row.values[position]
                if value is not None:
                    buckets.setdefault(value, []).append(row.rid)

            source_db = self.member(link.source_db)
            source_table = source_db.table(link.source_table)
            source_position = source_table.schema.column_position(
                link.source_column
            )
            for row in source_table.scan():
                value = row.values[source_position]
                if value is None:
                    continue
                for target_rid in buckets.get(value, ()):
                    source_node: FederatedNode = (
                        link.source_db,
                        link.source_table,
                        row.rid,
                    )
                    target_node: FederatedNode = (
                        link.target_db,
                        link.target_table,
                        target_rid,
                    )
                    if source_node != target_node:
                        resolved.append((source_node, target_node, link.weight))
        for tuple_link in self._tuple_links:
            resolved.append(
                (
                    tuple_link.source_node,
                    tuple_link.target_node,
                    tuple_link.weight,
                )
            )
        return resolved

    # -- graph construction ------------------------------------------------------------

    def build_graph(self) -> Tuple[DiGraph, GraphStats]:
        """The unified federated data graph and its scoring normalisers."""
        if not self._members:
            raise FederationError("federation has no member databases")
        graph = DiGraph()

        for member_name, database in self._members.items():
            member_graph, _stats = build_data_graph(
                database, self._policies[member_name]
            )
            for node in member_graph.nodes():
                table, rid = node
                graph.add_node(
                    (member_name, table, rid),
                    weight=member_graph.node_weight(node),
                )
            for source, target, weight in member_graph.edges():
                graph.add_edge(
                    (member_name,) + source, (member_name,) + target, weight
                )

        resolved = self.resolve_links()
        cross_indegree: Dict[FederatedNode, int] = {}
        for _source, target, _weight in resolved:
            cross_indegree[target] = cross_indegree.get(target, 0) + 1

        for source, target, weight in resolved:
            if not graph.has_node(source) or not graph.has_node(target):
                raise FederationError(
                    f"external link endpoint missing from graph: "
                    f"{source} -> {target}"
                )
            offer_min_edge(graph, source, target, weight)
            backward = weight * max(1, cross_indegree.get(target, 1))
            offer_min_edge(graph, target, source, backward)
            # Cross-database inlinks confer prestige, like FK inlinks.
            graph.set_node_weight(target, graph.node_weight(target) + 1.0)

        return graph, stats_of(graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Federation({self.name}: members={self.member_names}, "
            f"{len(self._links)} link spec(s))"
        )


def offer_min_edge(graph: DiGraph, source, target, weight: float) -> None:
    """Add ``source -> target`` keeping the *minimum* weight on conflict.

    The Eq. 1 merge rule for a directed pair that receives several
    candidate weights (mutually referencing relations, duplicate links).
    """
    if graph.has_edge(source, target):
        weight = min(weight, graph.edge_weight(source, target))
    graph.add_edge(source, target, weight)


@dataclass
class FederatedAnswer:
    """One cross-database answer."""

    tree: AnswerTree
    relevance: float
    rank: int
    _banks: "FederatedBanks"

    @property
    def root(self) -> FederatedNode:
        return self.tree.root

    def databases(self) -> Set[str]:
        """Member databases contributing nodes to this answer."""
        return {node[0] for node in self.tree.nodes}

    def is_cross_database(self) -> bool:
        return len(self.databases()) > 1

    def render(self) -> str:
        labels = {
            node: self._banks.node_label(node) for node in self.tree.nodes
        }
        return self.tree.render_indented(labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FederatedAnswer(rank={self.rank}, "
            f"relevance={self.relevance:.4f}, "
            f"databases={sorted(self.databases())})"
        )


class FederatedBanks:
    """Keyword search across every member of a federation.

    Args:
        federation: the federation (members + links registered).
        scoring: scoring parameters (default: the paper's best).
        search_config: search knobs; link-table root exclusion is
            derived per member automatically, as in :class:`repro.BANKS`.
        include_metadata: let keywords match table/column names.
        pool: optional worker pool (e.g. a serving engine's
            ``engine.pool`` or a :class:`repro.serve.pool.WorkerPool`);
            when given, per-member sub-queries of term resolution fan
            out across it instead of running serially — with many
            member databases the resolution phase becomes bounded by
            the slowest member rather than the sum of all members.
    """

    def __init__(
        self,
        federation: Federation,
        scoring: Optional[ScoringConfig] = None,
        search_config: Optional[SearchConfig] = None,
        include_metadata: bool = True,
        pool=None,
    ):
        self.federation = federation
        self.scoring = scoring or ScoringConfig()
        self.include_metadata = include_metadata
        self.pool = pool
        graph, self.stats = federation.build_graph()
        self.graph = freeze_graph(graph)
        self.scorer = Scorer(self.stats, self.scoring)
        self._indexes: Dict[str, InvertedIndex] = {
            name: InvertedIndex(federation.member(name))
            for name in federation.member_names
        }
        config = search_config or SearchConfig()
        if not config.excluded_root_nodes:
            excluded = self._link_table_nodes()
            config = replace(config, excluded_root_nodes=frozenset(excluded))
        self.search_config = config

    def _link_table_nodes(self) -> Set[FederatedNode]:
        """Nodes of pure relationship tables in every member (excluded
        as information nodes, as the per-database facade does)."""
        excluded: Set[FederatedNode] = set()
        for member_name in self.federation.member_names:
            database = self.federation.member(member_name)
            for table_name in link_tables(database):
                for rid in database.table(table_name).rids():
                    excluded.add((member_name, table_name, rid))
        return excluded

    # -- resolution ----------------------------------------------------------------

    def resolve(
        self, query: Union[str, ParsedQuery]
    ) -> List[Set[FederatedNode]]:
        """Node sets per term, unioned across every member database.

        With a :attr:`pool`, each ``(term, member)`` sub-query runs as
        its own pool task (the serving engine's workers when the pool is
        ``engine.pool``); without one, sub-queries run serially.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        subqueries = [
            (term, member_name)
            for term in parsed.terms
            for member_name in self._indexes
        ]

        def resolve_one(subquery) -> Set[FederatedNode]:
            term, member_name = subquery
            member_nodes = resolve_term(
                term,
                self._indexes[member_name],
                self.federation.member(member_name),
                include_metadata=self.include_metadata,
            )
            return {
                (member_name, table, rid) for table, rid in member_nodes
            }

        if self.pool is not None:
            resolved = self.pool.map(resolve_one, subqueries)
        else:
            resolved = [resolve_one(subquery) for subquery in subqueries]

        node_sets: List[Set[FederatedNode]] = []
        members_per_term = len(self._indexes)
        for term_index in range(len(parsed.terms)):
            nodes: Set[FederatedNode] = set()
            for member_sets in resolved[
                term_index * members_per_term:
                (term_index + 1) * members_per_term
            ]:
                nodes.update(member_sets)
            node_sets.append(nodes)
        return node_sets

    # -- search ------------------------------------------------------------------

    def search(
        self,
        query: Union[str, ParsedQuery],
        max_results: Optional[int] = None,
        **config_overrides,
    ) -> List[FederatedAnswer]:
        """Answer a keyword query over the whole federation."""
        keyword_node_sets = self.resolve(query)
        config = self.search_config
        if max_results is not None:
            config_overrides["max_results"] = max_results
        if config_overrides:
            config = replace(config, **config_overrides)
        scored = list(
            backward_expanding_search(
                self.graph, keyword_node_sets, self.scorer, config
            )
        )
        return [
            FederatedAnswer(s.tree, s.relevance, rank, self)
            for rank, s in enumerate(scored)
        ]

    # -- presentation --------------------------------------------------------------

    def node_label(self, node: FederatedNode) -> str:
        """``db/table: best text`` labels for rendering."""
        member_name, table_name, rid = node
        database = self.federation.member(member_name)
        table = database.table(table_name)
        row = table.row(rid)
        best_text = ""
        for column in table.schema.text_columns():
            value = row[column.name]
            if value and len(str(value)) > len(best_text):
                best_text = str(value)
        if not best_text:
            if table.schema.primary_key:
                best_text = ",".join(
                    str(row[c]) for c in table.schema.primary_key
                )
            else:
                best_text = f"rid={rid}"
        if len(best_text) > 50:
            best_text = best_text[:47] + "..."
        return f"{member_name}/{table_name}: {best_text}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FederatedBanks({self.federation.name}: "
            f"{self.stats.num_nodes} nodes, {self.stats.num_edges} edges)"
        )
