"""Text normalisation and tokenisation.

Both the indexer and the query parser funnel through :func:`normalize` /
:func:`tokenize`, so a keyword matches a tuple exactly when some token of
the tuple normalises identically to the query term — the property the
inverted-index tests assert.

Normalisation is deliberately mild (case folding, punctuation splitting,
no stemming): BANKS matches *tokens appearing in any textual attribute*,
and the paper's examples ("sunita temporal", "soumen sunita") are literal
lowercase tokens.
"""

from __future__ import annotations

import re
from typing import Iterator, List

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_CAMEL_RE = re.compile(r"(?<=[a-z])(?=[A-Z])")


def normalize(term: str) -> str:
    """Canonical form of a single term: lowercase, stripped."""
    return term.strip().lower()


def tokenize(text: str) -> List[str]:
    """Alphanumeric tokens of ``text`` in normalised form.

    Splits camelCase boundaries as well as punctuation so identifiers
    like ``ChakrabartiSD98`` yield ``chakrabarti``, ``sd98`` — keeping
    id-valued columns searchable the way the paper's screenshots show.
    """
    tokens: List[str] = []
    for word in _TOKEN_RE.findall(text):
        lowered = word.lower()
        if lowered == word:
            # Fast path: no uppercase, so no camel boundary to split.
            tokens.append(word)
        elif lowered[1:] == word[1:]:
            # Capitalised only: a boundary needs an uppercase letter
            # after a lowercase one.
            tokens.append(lowered)
        else:
            for part in _split_camel(word):
                tokens.append(part.lower())
    return tokens


def _split_camel(word: str) -> Iterator[str]:
    """Split ``word`` at lowercase->uppercase boundaries.

    ``SoumenC`` -> ``Soumen``, ``C``; all-caps runs stay together
    (``DBLP`` -> ``DBLP``); single-character fragments are kept (they
    still normalise and index, e.g. middle initials).
    """
    return iter(_CAMEL_RE.split(word))


def tokenize_identifier(identifier: str) -> List[str]:
    """Tokens of a schema identifier (``AuthorName`` -> author, name).

    Used for metadata matching: a keyword ``author`` is relevant to every
    tuple of a relation named ``AUTHOR`` or with a column ``AuthorName``.
    Underscores and camelCase both split.
    """
    return tokenize(identifier.replace("_", " "))
