"""Keyword indexing substrate.

Maps query keywords to the tuples (and metadata) that contain them:

* :mod:`repro.text.tokenizer` — normalisation shared by indexing and
  querying;
* :mod:`repro.text.inverted_index` — in-memory postings
  ``keyword -> {(table, rid, column)}`` over data *and* metadata (BANKS
  "allows query keywords to match data ... and meta data (e.g., column
  or relation name)");
* :mod:`repro.text.fuzzy` — edit-distance and ``approx(NUMBER)``
  matching (Sec. 7 future work, implemented here).
"""

from repro.text.inverted_index import InvertedIndex, Posting
from repro.text.fuzzy import damerau_levenshtein, numbers_near
from repro.text.tokenizer import tokenize, normalize

__all__ = [
    "InvertedIndex",
    "Posting",
    "damerau_levenshtein",
    "normalize",
    "numbers_near",
    "tokenize",
]
