"""Feature inventory for comment classification.

Five groups feed the classifiers: keyword-pattern counts, tf-idf over
unigrams/bigrams, simple text statistics, semantic features from comment
embeddings (distances to per-class mean vectors), and site metadata.
FeatureExtractor.matrix turns comments into a CSR matrix (sparse.py) whose
rows feed the classifiers and the triplet export alike: it is built from
each group's non-zeros, and no dense n x registry array is made. Named
values appear only in FeatureExtractor.assemble, an inspection view of one
row. ANOVA F-scores, computed from the non-zeros too, rank features;
select_k_best picks the significant subset.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from .corpus import ADDRESSEE_LABELS, CLASS_ORDER, Comment, LabeledDataset
from .embeddings import DocEmbeddingModel, WordEmbeddingModel, cosine_similarities
from .files import read_lines
from .sparse import CsrMatrix, as_csr
from .textprep import (
    TokenStream,
    _is_punct,
    ngrams,
    preprocess,
    scan_text,
    tokenize,
    without_stopwords,
)

_DATA_DIR = Path(__file__).parent / "data"

# lowercase feature-name form of the class labels
CLASS_FEATURE_NAMES = {
    "Media": "media",
    "Journalist": "journalist",
    "Moderator": "moderator",
    "Meta": "meta",
    "NonMeta": "non-meta",
}
_CLASS_RANK = {label: rank for rank, label in enumerate(CLASS_ORDER)}

# optional German inflection endings matched after a keyword, longest first
INFLECTION_SUFFIXES = ("innen", "in", "es", "en", "n", "s")

TEXT_STAT_NAMES = (
    "text_length",
    "text_avgwordlength",
    "text_capitalletters",
    "text_num_sie",
    "text_num_questions",
    "text_sentiment",
)

_SIE_PATTERN = re.compile(r"[^\.!?]\s+Sie")
_QUESTION_RUN = re.compile(r"\?+")


class FeatureError(ValueError):
    """Invalid feature configuration, unfitted model, or bad input."""


# -- keyword enrichment and pattern matching --------------------------------

@dataclass(frozen=True)
class KeywordSet:
    """Seed keywords for one addressee class plus their embedding neighbors."""

    label: str
    seeds: tuple
    enriched: tuple
    missing: tuple = ()  # seeds without an embedding ("no-embedding")

    def __post_init__(self):
        if not set(self.seeds) <= set(self.enriched):
            raise FeatureError("seeds must be contained in the enriched set")


def enrich_keywords(seeds: Sequence[str], model: WordEmbeddingModel,
                    top_n: int, min_sim: float, label: str = "") -> KeywordSet:
    """Extend seed keywords with their nearest embedding neighbors.

    Order: seeds first (input order, deduplicated), then neighbors by
    descending similarity. Seeds without an embedding are kept and flagged.
    """
    if top_n < 0:
        raise FeatureError("top_n must be >= 0")
    if not 0.0 <= min_sim <= 1.0:
        raise FeatureError("min_sim must be in [0, 1]")
    seed_list = list(dict.fromkeys(seed.lower() for seed in seeds))
    seen = set(seed_list)
    missing = tuple(s for s in seed_list if s not in model)
    best: Dict[str, float] = {}
    for seed in seed_list:
        if seed not in model:
            continue
        for token, sim in model.most_similar(seed, top_n):
            if sim < min_sim or token in seen:
                continue
            if sim > best.get(token, -2.0):
                best[token] = sim
    neighbors = sorted(best, key=lambda t: (-best[t], t))
    return KeywordSet(label=label, seeds=tuple(seed_list),
                      enriched=tuple(seed_list) + tuple(neighbors), missing=missing)


def load_keywords(path) -> tuple:
    """One lowercase keyword per line; '#' starts a comment."""
    return tuple(word.lower() for word in read_lines(path))


@lru_cache(maxsize=1)
def default_keyword_seeds() -> dict:
    return {
        "Media": load_keywords(_DATA_DIR / "keywords" / "media.txt"),
        "Journalist": load_keywords(_DATA_DIR / "keywords" / "journalist.txt"),
        "Moderator": load_keywords(_DATA_DIR / "keywords" / "moderator.txt"),
    }


def compile_keyword_pattern(keywords: Sequence[str]) -> re.Pattern:
    """Case-insensitive whole-word alternation with inflection suffixes."""
    alternation = sorted({k.lower() for k in keywords if k}, key=lambda k: (-len(k), k))
    if not alternation:
        return re.compile(r"(?!)")  # matches nothing
    return re.compile(r"\b(?:%s)(?:%s)?\b" % ("|".join(re.escape(k) for k in alternation),
                                              "|".join(INFLECTION_SUFFIXES)),
                      re.IGNORECASE)


def count_pattern_matches(comment: Comment, pattern: re.Pattern) -> int:
    """Number of matches of a compile_keyword_pattern() pattern over the
    comment title and text."""
    return len(pattern.findall(scan_text(comment)))


# A keyword pattern matches \w characters between two \b, so each match is a
# whole \w+ run of the text, when every keyword is one \w+ run. Such a run
# matches when its lowercase form is a keyword + suffix form, unless it or a
# keyword holds a character that re.IGNORECASE and str.lower compare
# differently: sre's extra case equivalences (s/long s, i/dotless i, micro/mu,
# the Greek symbol variants, the final sigma, the Cyrillic small-letter
# variants, the ligatures st), and the dotted capital I, which str.lower
# turns into two characters.
_WORD_RUN = re.compile(r"\w+")
_CASE_ODD = re.compile("[\u017f\u0131\u00b5\u03bc\u03a3\u03c2\u03c3\u03b9\u0345\u1fbe"
                       "\u0390\u1fd3\u03b0\u1fe3\u03d0\u03d1\u03d5\u03d6\u03f0\u03f1"
                       "\u03f5\u1c80-\u1c88\u1e9b\ufb05\ufb06\u0130]")


def _keyword_forms(keyword_lists: Iterable[Sequence[str]]) -> Optional[frozenset]:
    """The lowercase keyword + suffix forms of the keywords, or None when a
    keyword is not one \\w+ run or holds a character of _CASE_ODD."""
    words = {k.lower() for keywords in keyword_lists for k in keywords if k}
    if any(not _WORD_RUN.fullmatch(w) or _CASE_ODD.search(w) for w in words):
        return None
    return frozenset(w + suffix for w in words for suffix in ("", *INFLECTION_SUFFIXES))


def _pattern_text(text: str, forms: Optional[frozenset]) -> str:
    """A text on which the patterns of the keywords of forms (see
    _keyword_forms) find as many matches as on text: the runs of text whose
    lowercase form is in forms, one space apart. text itself when forms is
    None or text holds a character of _CASE_ODD."""
    if forms is None or _CASE_ODD.search(text):
        return text
    return " ".join(run for run in _WORD_RUN.findall(text) if run.lower() in forms)


# -- tf-idf ------------------------------------------------------------------

@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary and document frequencies, from which the idf weights follow."""

    vocabulary: dict  # ngram -> column index
    document_frequencies: np.ndarray
    n_docs: int

    @cached_property
    def idf(self) -> np.ndarray:
        """Smoothed idf per column: idf(t) = ln((1+N)/(1+df(t))) + 1."""
        return np.log((1.0 + self.n_docs) / (1.0 + self.document_frequencies)) + 1.0


class _GramIds:
    """Integer ids of unigrams and bigrams, numbered as first seen. A
    document is its distinct grams' ids and their counts, in
    first-occurrence order."""

    def __init__(self):
        self.ids: Dict[str, int] = {}
        # the last fit() or weights() model and the column of each id in it
        # (-1: none)
        self._model: Optional[TfidfModel] = None
        self._columns = np.empty(0, dtype=np.intp)

    def count(self, ts: TokenStream) -> tuple:
        """(ids, counts) of the ngrams of ts."""
        counts = Counter(ngrams(ts))
        ids = self.ids
        return (np.array([ids.setdefault(gram, len(ids)) for gram in counts], dtype=np.intp),
                np.array(list(counts.values()), dtype=float))

    def fit(self, docs: Sequence[np.ndarray]) -> TfidfModel:
        """The model of the documents with these gram ids: columns in
        first-occurrence order over docs."""
        if not docs:
            raise FeatureError("tf-idf fit requires a non-empty corpus")
        ids = np.concatenate(docs)
        seen, first = np.unique(ids, return_index=True)
        order = seen[np.argsort(first)]
        df = np.bincount(ids, minlength=len(self.ids))[order].astype(np.int64)
        grams = list(self.ids)
        model = TfidfModel(vocabulary={grams[i]: col for col, i in enumerate(order.tolist())},
                           document_frequencies=df, n_docs=len(docs))
        # weights() needs no vocabulary lookup for the ids numbered so far
        self._model, self._columns = model, np.full(len(self.ids), -1, dtype=np.intp)
        self._columns[order] = np.arange(len(order))
        return model

    def weights(self, docs: Sequence[np.ndarray], counts: Sequence[np.ndarray],
                model: TfidfModel) -> tuple:
        """(rows, columns, weights) of the L2-normalized tf*idf rows of the
        documents with these gram ids and counts; grams outside the model's
        vocabulary contribute nothing."""
        if self._model is not model:
            self._model, self._columns = model, np.empty(0, dtype=np.intp)
        if len(self._columns) < len(self.ids):
            # look up only the grams numbered since the last call
            new = list(islice(reversed(self.ids), len(self.ids) - len(self._columns)))
            self._columns = np.concatenate([self._columns, np.array(
                [model.vocabulary.get(gram, -1) for gram in reversed(new)], dtype=np.intp)])
        columns = self._columns
        rows = np.repeat(np.arange(len(docs)), np.array([len(d) for d in docs], dtype=np.intp))
        cols = columns[np.concatenate([np.empty(0, np.intp), *docs])]
        kept = cols >= 0
        rows, cols = rows[kept], cols[kept]
        values = np.concatenate([np.empty(0), *counts])[kept] * model.idf[cols]
        # bincount adds a row's squares one after another in first-occurrence
        # order, so a row's norm has the same bits whichever rows share the call
        norms = np.sqrt(np.bincount(rows, weights=values * values, minlength=len(docs)))
        return rows, cols, values / norms[rows]


def tfidf_fit(corpus: Sequence[TokenStream]) -> TfidfModel:
    """Fit on unigrams+bigrams, numbering columns in first-occurrence order."""
    grams = _GramIds()
    return grams.fit([grams.count(ts)[0] for ts in corpus])


def tfidf_transform(model: TfidfModel, ts: TokenStream) -> dict:
    """L2-normalized tf*idf weights; unseen ngrams contribute nothing."""
    if model is None:
        raise FeatureError("tf-idf transform called before fit")
    grams = _GramIds()
    ids, counts = grams.count(ts)
    _, _, weights = grams.weights([ids], [counts], model)
    return dict(zip([gram for gram in grams.ids if gram in model.vocabulary],
                    weights.tolist()))


# -- text statistics ---------------------------------------------------------

def load_sentiment_lexicon(path) -> dict:
    """Polarity lexicon file: token<TAB>polarity, one entry per line."""
    lexicon = {}
    for line in read_lines(path):
        token, _, value = line.partition("\t")
        polarity = float(value)
        if not -1.0 <= polarity <= 1.0:
            raise FeatureError(f"polarity out of range for {token!r}: {polarity}")
        lexicon[token.lower()] = polarity
    return lexicon


@lru_cache(maxsize=1)
def default_sentiment_lexicon() -> dict:
    return load_sentiment_lexicon(_DATA_DIR / "sentiment_de.txt")


class _CharClasses(dict):
    """str.translate table: code point -> " " for whitespace (what str.split
    splits on), "p" for punctuation, "X" for an upper-case character and "x"
    for any other, filled in the first time a code point is seen."""

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        self[cp] = value = (" " if ch.isspace() else "p" if _is_punct(ch)
                            else "X" if ch.isupper() else "x")
        return value


_CHAR_CLASSES = _CharClasses()
# in the class string: a whitespace-separated word without its edge punctuation
_STRIPPED_WORD = re.compile(r"[xX](?:[xXp]*[xX])?")


def text_stats_features(comment: Comment, lexicon: Optional[dict] = None,
                        tokens: Optional[tuple] = None) -> dict:
    """Character/word statistics, 'Sie' address count, questions, sentiment,
    named by TEXT_STAT_NAMES in that order. tokens, when given, are the
    comment's preprocess tokens, which it would otherwise compute.

    Word length averages the whitespace-separated words with their edge
    punctuation stripped, leaving out words that are all punctuation. The
    'Sie' count applies the pattern [^\\.!?]\\s+Sie verbatim, which
    excludes sentence-initial occurrences; questions are maximal runs of '?'.
    Sentiment is the mean lexicon polarity over matching tokens (0 without
    any hit).
    """
    if lexicon is None:
        lexicon = default_sentiment_lexicon()
    scan = scan_text(comment)
    classes = scan.translate(_CHAR_CLASSES)
    words = _STRIPPED_WORD.findall(classes)
    if tokens is None:
        tokens = tokenize(scan)
    hits = [lexicon[t] for t in tokens if t in lexicon]
    return dict(zip(TEXT_STAT_NAMES, (
        float(len(comment.title) + len(comment.text)),
        sum(map(len, words)) / len(words) if words else 0.0,
        float(classes.count("X")),
        float(len(_SIE_PATTERN.findall(scan))),
        float(len(_QUESTION_RUN.findall(scan))),
        sum(hits) / len(hits) if hits else 0.0,
    )))


# -- semantic features -------------------------------------------------------

@dataclass(frozen=True)
class ClassVector:
    """Mean comment-embedding vector of all members of one class."""

    label: str
    vector: np.ndarray


def comment_vectors(dm: DocEmbeddingModel, comments: Sequence[Comment],
                    stopwords: Optional[FrozenSet[str]] = None) -> np.ndarray:
    """One row per comment: the trained vector of a training comment, else
    inferred; all inferred rows come from one batched inference."""
    return dm.vectors_for([preprocess(c, remove_stopwords=True, stopwords=stopwords)
                           for c in comments])


def class_vectors(dm: DocEmbeddingModel, ds: LabeledDataset,
                  classes: Sequence[str] = CLASS_ORDER,
                  stopwords: Optional[FrozenSet[str]] = None) -> List[ClassVector]:
    """Per-class mean of the member comments' embedding vectors."""
    members = [(comment, labels) for comment, labels in ds
               if any(cls in labels for cls in classes)]
    vectors = comment_vectors(dm, [comment for comment, _ in members], stopwords)
    return class_means(vectors, [labels for _, labels in members], classes)


def class_means(vectors: np.ndarray, label_sets: Sequence,
                classes: Sequence[str]) -> List[ClassVector]:
    """Per-class mean of the rows of vectors whose label set has the class."""
    result = []
    for cls in classes:
        rows = [vec for vec, labels in zip(vectors, label_sets) if cls in labels]
        if not rows:
            raise FeatureError(f"class {cls!r} has no members")
        result.append(ClassVector(cls, np.mean(rows, axis=0)))
    return result


def _semantic_names(cvs: Sequence[ClassVector]) -> list:
    """Names of the semantic columns, in the order semantic_features gives
    their values: each class's distance, then each class's nearest-class
    indicator."""
    names = [CLASS_FEATURE_NAMES[cv.label] for cv in cvs]
    return ([f"semantic_dist_{n}" for n in names]
            + [f"semantic_min_dist_{n}" for n in names])


def semantic_features(cvs: Sequence[ClassVector], vectors: np.ndarray) -> np.ndarray:
    """The semantic block of an (n × dim) array of comment vectors: per row,
    the cosine distance to each class vector, then a one-hot nearest class,
    in the columns _semantic_names gives for the class-ordered cvs.

    Ties go to the first class in the fixed class order.
    """
    if not cvs:
        raise FeatureError("no class vectors given")
    cvs = sorted(cvs, key=lambda cv: _CLASS_RANK[cv.label])
    dists = 1.0 - cosine_similarities(vectors, np.array([cv.vector for cv in cvs]))
    return np.hstack([dists, np.eye(len(cvs))[np.argmin(dists, axis=1)]])


# -- metadata ----------------------------------------------------------------

@lru_cache(maxsize=1)
def default_departments() -> tuple:
    return load_keywords(_DATA_DIR / "departments_spon.txt")


def metadata_features(comment: Comment) -> dict:
    """Department/day/hour one-hots, list position, and quote indicator.

    Absent metadata contributes nothing (all-zero one-hots, no entry).
    Departments outside the shipped list map to the 'other' slot.
    """
    values: Dict[str, float] = {}
    if comment.department is not None:
        dept = comment.department.lower()
        values[f"department_{dept}" if dept in default_departments()
               else "department_other"] = 1.0
    if comment.position is not None:
        values["position"] = float(comment.position)
    if comment.has_quote is not None:
        values["has_quote"] = 1.0 if comment.has_quote else 0.0
    values[f"dow_{comment.timestamp.weekday()}"] = 1.0
    values[f"hour_{comment.timestamp.hour}"] = 1.0
    return values


# -- assembly ----------------------------------------------------------------

def _fixed_columns(keyword_sets: Dict[str, KeywordSet]) -> tuple:
    """(keyword tokens, head names, tail names): the enriched keywords of
    every addressee class, first occurrence kept; the regex and keyword
    columns; the metadata columns of the shipped department list."""
    tokens = tuple(dict.fromkeys(token for label in ADDRESSEE_LABELS if label in keyword_sets
                                 for token in keyword_sets[label].enriched))
    head = [f"regex_{CLASS_FEATURE_NAMES[label]}_matches"
            for label in ADDRESSEE_LABELS if label in keyword_sets]
    head.extend(f"keyword_{token}" for token in tokens)
    tail = [f"department_{d}" for d in default_departments()]
    tail.extend(["department_other", "position", "has_quote"])
    tail.extend(f"dow_{i}" for i in range(7))
    tail.extend(f"hour_{i}" for i in range(24))
    return tokens, head, tail


class FeatureExtractor:
    """Turns comments into features from fitted group models.

    matrix() gives the classifiers' input and the features export, in
    registry column order; assemble() names one comment's non-zero values
    for inspection.
    Each group is on when its fitted model is given: keyword sets give the
    regex and keyword groups, a tf-idf model the tf-idf group, and class
    vectors (with the doc model that embeds comments) the semantic group.
    Text statistics and metadata are always on. A row is a pure function
    of (comment, fitted models).

    Only the tf-idf and semantic columns depend on labeled data. The
    others, with each comment's token stream and vector, come from a
    FeatureCache (see new_cache), which one dataset's folds can share.
    """

    def __init__(self, keyword_sets: Optional[Dict[str, KeywordSet]] = None,
                 tfidf: Optional[TfidfModel] = None,
                 doc_model: Optional[DocEmbeddingModel] = None,
                 class_vecs: Optional[Sequence[ClassVector]] = None,
                 stopwords: Optional[FrozenSet[str]] = None,
                 fitted_ids: Iterable[str] = ()):
        if class_vecs and doc_model is None:
            raise FeatureError("class vectors given without the comment embedding "
                               "model (doc model) they were computed with")
        if class_vecs and any(len(cv.vector) != doc_model.dim for cv in class_vecs):
            raise FeatureError(f"class vectors of dimension {len(class_vecs[0].vector)} given "
                               f"with a doc model of dimension {doc_model.dim}")
        self.keyword_sets = dict(keyword_sets or {})
        self.tfidf = tfidf
        self.doc_model = doc_model
        self.class_vecs = sorted(class_vecs or [], key=lambda cv: _CLASS_RANK[cv.label])
        self.stopwords = stopwords
        self._ids = frozenset(fitted_ids)
        # registry: head, tf-idf, text statistics, semantic, tail
        _, head, tail = _fixed_columns(self.keyword_sets)
        tfidf_names = [f"tfidf_{gram}" for gram in tfidf.vocabulary] if tfidf else []
        self._registry = (*head, *tfidf_names, *TEXT_STAT_NAMES,
                          *_semantic_names(self.class_vecs), *tail)
        self._tfidf_at = len(head)
        self._semantic_at = len(head) + len(tfidf_names) + len(TEXT_STAT_NAMES)
        # the registry column of each column of a cache entry's head, text
        # statistics and tail
        self._fixed_at = np.concatenate([
            np.arange(len(head)),
            len(head) + len(tfidf_names) + np.arange(len(TEXT_STAT_NAMES)),
            len(self._registry) - len(tail) + np.arange(len(tail))]).astype(np.intp)
        self._hash = hashlib.sha256("\n".join(self._registry).encode()).hexdigest()[:16]

    @property
    def registry(self) -> tuple:
        return self._registry

    @property
    def registry_hash(self) -> str:
        return self._hash

    def fitted_ids(self) -> frozenset:
        """Ids of the comments that the fitted models were fit on."""
        return self._ids

    def new_cache(self) -> "FeatureCache":
        """An empty cache for this extractor's unlabeled inputs."""
        return FeatureCache(self.keyword_sets, self.doc_model, self.stopwords)

    def matrix(self, comments: Iterable[Comment],
               cache: Optional["FeatureCache"] = None) -> CsrMatrix:
        """The comments' rows in registry column order, as a CsrMatrix built
        from the cached non-zeros, the tf-idf weights and the semantic block.

        cache holds the fold-invariant values of the comments' dataset and
        must have been made for the same unlabeled inputs; without it, a new
        cache serves this call alone.
        """
        comments = list(comments)
        if cache is None:
            cache = self.new_cache()
        elif (cache.keyword_sets, cache.doc_model, cache.stopwords) != \
                (self.keyword_sets, self.doc_model, self.stopwords):
            raise FeatureError("the feature cache was made for other keyword sets, "
                               "doc model or stop words")
        entries = cache.entries(comments)
        n = len(entries)
        rows = [np.repeat(np.arange(n), [len(e.columns) for e in entries])]
        cols = [self._fixed_at[np.concatenate([np.empty(0, np.intp),
                                               *(e.columns for e in entries)])]]
        values = [np.concatenate([np.empty(0), *(e.values for e in entries)])]
        if self.tfidf is not None:
            tfidf_rows, tfidf_cols, weights = cache.tfidf_weights(entries, self.tfidf)
            rows.append(tfidf_rows)
            cols.append(self._tfidf_at + tfidf_cols)
            values.append(weights)
        if self.class_vecs:
            block = semantic_features(self.class_vecs, cache.vectors(comments))
            rows.append(np.repeat(np.arange(n), block.shape[1]))
            cols.append(np.tile(self._semantic_at + np.arange(block.shape[1]), n))
            values.append(block.ravel())
        X = CsrMatrix.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                    np.concatenate(values), (n, len(self._registry)))
        bad = np.flatnonzero(~np.isfinite(X.data))
        if len(bad):
            row = np.searchsorted(X.indptr, bad[0], side="right") - 1
            raise FeatureError(f"comment {comments[row].id}: non-finite value for "
                               f"feature {self._registry[X.indices[bad[0]]]!r}")
        return X

    def assemble(self, comment: Comment, vector: Optional[np.ndarray] = None) -> dict:
        """Named non-zero values of one comment's row. vector is the
        comment's embedding (its row of comment_vectors); the semantic group
        needs it."""
        if self.class_vecs and vector is None:
            raise FeatureError(f"comment {comment.id}: the semantic features "
                               "need the comment's vector")
        cache = self.new_cache()
        cache.entries([comment])[0].vector = vector
        X = self.matrix([comment], cache)
        return {self._registry[col]: value
                for col, value in zip(X.indices.tolist(), X.data.tolist())}


class _Entry:
    """One comment's fold-invariant values: the non-zeros (columns, values)
    of its head, text-statistics and tail columns, in that order, its
    stop-word-filtered token stream with its ngrams' cache ids and counts,
    and its comment vector once asked for."""

    __slots__ = ("columns", "values", "stream", "ids", "counts", "vector")

    def __init__(self, columns, values, stream, ids, counts):
        self.columns, self.values = columns, values
        self.stream, self.ids, self.counts = stream, ids, counts
        self.vector = None


class FeatureCache:
    """The fold-invariant feature values of one dataset's comments.

    They depend on the comment and on the keyword sets, doc model and stop
    words the cache is made from, never on a label, so one cache serves
    every fold and grid configuration over a dataset. Each comment's values are
    computed when first asked for and kept while the cache lives, keyed by
    the comment's value, so a comment that reuses another's id with other
    text gets its own entry. The caller that owns the dataset (a command,
    or a matrix call without a cache) drops the cache with it.
    """

    def __init__(self, keyword_sets=None, doc_model=None, stopwords=None):
        self.keyword_sets = dict(keyword_sets or {})
        self.doc_model, self.stopwords = doc_model, stopwords
        enriched = [self.keyword_sets[label].enriched
                    for label in ADDRESSEE_LABELS if label in self.keyword_sets]
        self._patterns = [compile_keyword_pattern(keywords) for keywords in enriched]
        self._forms = _keyword_forms(enriched)
        keyword_tokens, head, tail = _fixed_columns(self.keyword_sets)
        self._column = {name: i for i, name in enumerate([*head, *TEXT_STAT_NAMES, *tail])}
        self._keyword_column = {token: self._column[f"keyword_{token}"]
                                for token in keyword_tokens}
        self._stats_at = len(head)
        self._entries: Dict[Comment, _Entry] = {}
        self._grams = _GramIds()

    def entries(self, comments: Sequence[Comment]) -> List[_Entry]:
        entries = []
        for comment in comments:
            entry = self._entries.get(comment)
            if entry is None:
                entry = self._entries[comment] = self._entry(comment)
            entries.append(entry)
        return entries

    def _entry(self, comment: Comment) -> _Entry:
        row = np.zeros(len(self._column))
        text = _pattern_text(scan_text(comment), self._forms)
        for col, pattern in enumerate(self._patterns):
            row[col] = len(pattern.findall(text))
        tokens = preprocess(comment).tokens
        if self._keyword_column:
            for token in tokens:
                col = self._keyword_column.get(token)
                if col is not None:
                    row[col] += 1.0
        stats = text_stats_features(comment, tokens=tokens)
        row[self._stats_at:self._stats_at + len(stats)] = list(stats.values())
        for name, value in metadata_features(comment).items():
            row[self._column[name]] = value
        stream = TokenStream(without_stopwords(tokens, self.stopwords), comment.id)
        columns = np.flatnonzero(row)
        return _Entry(columns, row[columns], stream, *self._grams.count(stream))

    def tfidf_fit(self, comments: Sequence[Comment]) -> TfidfModel:
        """tfidf_fit of the comments' stop-word-filtered token streams."""
        return self._grams.fit([e.ids for e in self.entries(comments)])

    def tfidf_weights(self, entries: Sequence[_Entry], model: TfidfModel) -> tuple:
        """(rows, columns, weights) of the entries' tfidf_transform rows."""
        return self._grams.weights([e.ids for e in entries], [e.counts for e in entries],
                                   model)

    def vectors(self, comments: Sequence[Comment]) -> np.ndarray:
        """The comments' rows of comment_vectors; those not yet known come
        from one batched lookup-or-infer call."""
        entries = self.entries(comments)
        todo = list({id(e): e for e in entries if e.vector is None}.values())
        if todo:
            for entry, vector in zip(todo, self.doc_model.vectors_for(
                    [entry.stream for entry in todo])):
                entry.vector = vector
        return np.array([entry.vector for entry in entries]).reshape(
            len(entries), self.doc_model.dim)


def build_matrix(rows: Sequence[dict], registry: Sequence[str]) -> np.ndarray:
    """Dense (n_samples, n_features) matrix of named rows, in registry
    column order."""
    index = {name: i for i, name in enumerate(registry)}
    X = np.zeros((len(rows), len(registry)))
    for row, values in enumerate(rows):
        for name, value in values.items():
            col = index.get(name)
            if col is None:
                raise FeatureError(f"feature {name!r} not in registry")
            X[row, col] = value
    return X


def export_sparse_matrix(X: CsrMatrix, registry: Sequence[str], path) -> None:
    """Triplet text export ('row col value') of the non-zero cells of X,
    whose columns are the registry's, with a sidecar name registry."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{X.shape[0]} {len(registry)}\n")
        for row, col, value in zip(X.row_ids().tolist(), X.indices.tolist(),
                                   X.data.tolist()):
            fh.write(f"{row} {col} {value!r}\n")
    names_path = path.with_suffix(path.suffix + ".names")
    with open(names_path, "w", encoding="utf-8", newline="\n") as fh:
        for name in registry:
            fh.write(name + "\n")


# -- ANOVA feature ranking ---------------------------------------------------

def anova_f_matrix(X, y: Sequence[int]) -> np.ndarray:
    """One-way ANOVA F-score per column for a binary target.

    X is a CsrMatrix or a dense array (converted with one as_csr call). The
    sums run over the non-zeros: each class's centred squares add its zeros'
    share (n_g - nnz) * mean_g^2 to those of its non-zeros. Zero within-class
    variance with positive between-class variance gives +inf (ranks first);
    an (almost) constant feature gives 0.
    """
    X = as_csr(X)
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise FeatureError("ANOVA requires samples from both classes")
    n, d = X.shape
    if len(y) != n:
        raise FeatureError(f"{len(y)} labels for {n} rows")
    k = len(classes)
    grand = np.bincount(X.indices, X.data, minlength=d) / n
    value_class = y[X.row_ids()]
    ssb = np.zeros(d)
    ssw = np.zeros(d)
    for cls in classes:
        in_class = value_class == cls
        cols, values = X.indices[in_class], X.data[in_class]
        n_g = int(np.count_nonzero(y == cls))
        mean_g = np.bincount(cols, values, minlength=d) / n_g
        ssb += n_g * (mean_g - grand) ** 2
        centred = values - mean_g[cols]
        ssw += (np.bincount(cols, centred * centred, minlength=d)
                + (n_g - np.bincount(cols, minlength=d)) * mean_g ** 2)
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    sst = ssb + ssw
    # relative tolerances keep the scores scale-invariant
    scale = np.zeros(d)
    np.maximum.at(scale, X.indices, np.abs(X.data))
    scale = np.maximum(scale, 1e-300)
    constant = sst <= (n * (1e-12 * scale) ** 2)
    separated = ~constant & (ssw <= 1e-24 * sst)
    scores = np.zeros(d)
    regular = ~constant & ~separated
    scores[regular] = msb[regular] / msw[regular]
    scores[separated] = np.inf
    return scores


def select_k_best(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k highest scores, best first, ties in column order."""
    if not 0 <= k <= len(scores):
        raise FeatureError(f"k={k} out of range for {len(scores)} features")
    return np.argsort(-np.asarray(scores), kind="stable")[:k]
