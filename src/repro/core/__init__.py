"""The paper's primary contribution: keyword search over the data graph.

* :mod:`repro.core.weights` — edge-weight policy (similarities, Eq. 1
  merge rule) and node prestige;
* :mod:`repro.core.model` — turns a relational database into the BANKS
  data graph (forward + backward edges);
* :mod:`repro.core.answer` — answer trees (rooted connection trees) and
  their canonical undirected form for duplicate detection;
* :mod:`repro.core.scoring` — the eight edge/node/combination scoring
  variants of Sec. 2.3;
* :mod:`repro.core.search` — the backward expanding search of Fig. 3;
* :mod:`repro.core.oracle` — its reference and the answer relations;
* :mod:`repro.core.query` — query-string parsing (keywords,
  ``attribute:keyword``, ``approx(N)``);
* :mod:`repro.core.summarize` — grouping answers by tree structure;
* :mod:`repro.core.banks` — the :class:`~repro.core.banks.BANKS` facade
  tying everything together.
"""

from repro.core.answer import AnswerTree
from repro.core.banks import BANKS, Answer
from repro.core.model import GraphStats, build_data_graph
from repro.core.query import ParsedQuery, QueryTerm, parse_query
from repro.core.scoring import Scorer, ScoringConfig
from repro.core.search import ScoredAnswer, SearchConfig, backward_expanding_search
from repro.core.summarize import summarize_answers
from repro.core.weights import WeightPolicy

__all__ = [
    "Answer",
    "AnswerTree",
    "BANKS",
    "GraphStats",
    "ParsedQuery",
    "QueryTerm",
    "ScoredAnswer",
    "Scorer",
    "ScoringConfig",
    "SearchConfig",
    "WeightPolicy",
    "backward_expanding_search",
    "build_data_graph",
    "parse_query",
    "summarize_answers",
]
