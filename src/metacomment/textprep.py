"""Deterministic text normalization and tokenization.

One shared pipeline feeds the embedding trainer, the tf-idf vectorizer, and
the neural classifier: concatenate title and text, replace punctuation with
spaces, lowercase, split on whitespace, optionally drop stop words.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import FrozenSet, Optional

from .corpus import Comment

# German quotation marks and dashes glue tokens together if left in place;
# they are stripped in addition to the Unicode P* categories (some are Pi/Pf,
# the dashes and ellipsis are Pd/Po, so most are already covered by P*).
_EXTRA_PUNCT = set("«»„“”‚‘’–—…")

BIGRAM_SEPARATOR = "_"


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return ch in _EXTRA_PUNCT or unicodedata.category(ch).startswith("P")


@dataclass(frozen=True)
class TokenStream:
    """Ordered lowercase tokens of one comment, without punctuation."""

    tokens: tuple
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def strip_punctuation(text: str) -> str:
    """Replace every punctuation character by a space."""
    return "".join(" " if _is_punct(ch) else ch for ch in text)


def tokenize(text: str, remove_stopwords: bool = False,
             stopwords: Optional[FrozenSet[str]] = None) -> tuple:
    """Run the normalization pipeline on a raw string and return the tokens."""
    tokens = strip_punctuation(text).lower().split()
    if remove_stopwords:
        active = default_stopwords() if stopwords is None else stopwords
        tokens = [t for t in tokens if t not in active]
    return tuple(tokens)


def preprocess(comment: Comment, remove_stopwords: bool = False,
               stopwords: Optional[FrozenSet[str]] = None) -> TokenStream:
    """Tokenize a comment's title and text into one TokenStream.

    The pipeline order is fixed: concatenate title + " " + text, strip
    punctuation, lowercase, split on whitespace, then (optionally) drop stop
    words. An empty result is allowed.
    """
    raw = comment.title + " " + comment.text if comment.title else comment.text
    return TokenStream(tokenize(raw, remove_stopwords, stopwords), source_id=comment.id)


def ngrams(ts: TokenStream) -> list:
    """Unigrams followed by adjacent-pair bigrams joined with an underscore."""
    tokens = list(ts.tokens)
    return tokens + [a + BIGRAM_SEPARATOR + b for a, b in zip(tokens, tokens[1:])]


def load_stopwords(path) -> frozenset:
    """Read a stop-word file: UTF-8, one lowercase token per line, '#' comments."""
    words = set()
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word.lower())
    return frozenset(words)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset:
    """The German stop-word list shipped with the package."""
    return load_stopwords(Path(__file__).parent / "data" / "stopwords_de.txt")
