"""Feature inventory for comment classification.

Five groups feed the classifiers: keyword-pattern counts, tf-idf over
unigrams/bigrams, simple text statistics, semantic features from comment
embeddings (distances to per-class mean vectors), and site metadata.
FeatureExtractor.matrix turns comments into numeric rows, which feed the
classifiers and the triplet export alike; named values appear only in
FeatureExtractor.assemble, an inspection view of one row.
ANOVA F-scores rank features; select_k_best picks the significant subset.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from .corpus import ADDRESSEE_LABELS, CLASS_ORDER, Comment, LabeledDataset
from .embeddings import DocEmbeddingModel, WordEmbeddingModel, cosine_from_norms
from .files import read_lines
from .textprep import TokenStream, _is_punct, ngrams, preprocess, scan_text, tokenize

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


def tfidf_fit(corpus: Sequence[TokenStream]) -> TfidfModel:
    """Fit on unigrams+bigrams, numbering columns in first-occurrence order."""
    corpus = list(corpus)
    if not corpus:
        raise FeatureError("tf-idf fit requires a non-empty corpus")
    vocabulary: Dict[str, int] = {}
    df_counts: List[int] = []
    for ts in corpus:
        # first-occurrence order, so column numbers do not depend on hashing
        for gram in dict.fromkeys(ngrams(ts)):
            idx = vocabulary.get(gram)
            if idx is None:
                vocabulary[gram] = len(df_counts)
                df_counts.append(1)
            else:
                df_counts[idx] += 1
    return TfidfModel(vocabulary=vocabulary,
                      document_frequencies=np.array(df_counts, dtype=np.int64),
                      n_docs=len(corpus))


def tfidf_transform(model: TfidfModel, ts: TokenStream) -> dict:
    """L2-normalized tf*idf weights; unseen ngrams contribute nothing."""
    if model is None:
        raise FeatureError("tf-idf transform called before fit")
    return _tfidf_weights(model.vocabulary, model.idf, _gram_counts(ts))


def _gram_counts(ts: TokenStream) -> dict:
    """Count per ngram of ts, in first-occurrence order."""
    counts: Dict[str, int] = {}
    for gram in ngrams(ts):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _tfidf_weights(vocabulary: dict, idf: Sequence[float], counts: dict) -> dict:
    # idf as an array or as a list of the same floats: the same products
    weights = {gram: tf * idf[vocabulary[gram]]
               for gram, tf in counts.items() if gram in vocabulary}
    if not weights:
        return {}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {gram: float(w / norm) for gram, w in weights.items()}


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


def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def text_stats_features(comment: Comment, lexicon: Optional[dict] = None) -> dict:
    """Character/word statistics, 'Sie' address count, questions, sentiment,
    named by TEXT_STAT_NAMES in that order.

    The 'Sie' count applies the pattern [^\\.!?]\\s+Sie verbatim, which
    excludes sentence-initial occurrences; questions are maximal runs of '?'.
    Sentiment is the mean lexicon polarity over matching tokens (0 without
    any hit).
    """
    if lexicon is None:
        lexicon = default_sentiment_lexicon()
    scan = scan_text(comment)
    words = [w for w in (_strip_edge_punct(t) for t in scan.split()) if w]
    tokens = tokenize(scan)
    hits = [lexicon[t] for t in tokens if t in lexicon]
    return dict(zip(TEXT_STAT_NAMES, (
        float(len(comment.title) + len(comment.text)),
        sum(len(w) for w in words) / len(words) if words else 0.0,
        float(sum(1 for ch in scan if ch.isupper())),
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

    @cached_property
    def norm(self) -> float:
        return np.linalg.norm(self.vector)


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


def semantic_features(cvs: Sequence[ClassVector], vec: np.ndarray) -> dict:
    """Cosine distance from a comment vector to each class vector plus a
    one-hot nearest class.

    Ties go to the first class in the fixed class order.
    """
    if not cvs:
        raise FeatureError("no class vectors given")
    if any(_CLASS_RANK[a.label] > _CLASS_RANK[b.label] for a, b in zip(cvs, cvs[1:])):
        cvs = sorted(cvs, key=lambda cv: _CLASS_RANK[cv.label])
    nv = np.linalg.norm(vec)
    dists = [1.0 - cosine_from_norms(vec, cv.vector, nv, cv.norm) for cv in cvs]
    nearest = dists.index(min(dists))  # the first of tied classes
    return dict(zip(_semantic_names(cvs),
                    dists + [1.0 if i == nearest else 0.0 for i in range(len(cvs))]))


# -- metadata ----------------------------------------------------------------

@lru_cache(maxsize=1)
def default_departments() -> tuple:
    return load_keywords(_DATA_DIR / "departments_spon.txt")


def metadata_features(comment: Comment, known_departments: Sequence[str]) -> dict:
    """Department/day/hour one-hots, list position, and quote indicator.

    Absent metadata contributes nothing (all-zero one-hots, no entry).
    Unknown departments map to the 'other' slot.
    """
    values: Dict[str, float] = {}
    if comment.department is not None:
        dept = comment.department.lower()
        values[f"department_{dept}" if dept in known_departments
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
        _, self._head, self._tail = _fixed_columns(self.keyword_sets)
        tfidf_names = [f"tfidf_{gram}" for gram in tfidf.vocabulary] if tfidf else []
        self._stats_at = len(self._head) + len(tfidf_names)
        self._registry = (*self._head, *tfidf_names, *TEXT_STAT_NAMES,
                          *_semantic_names(self.class_vecs), *self._tail)
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
               cache: Optional["FeatureCache"] = None) -> np.ndarray:
        """Rows in registry column order.

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
        vectors = cache.vectors(comments) if self.class_vecs else None
        entries = cache.entries(comments)
        n, h, s, t = len(entries), len(self._head), len(TEXT_STAT_NAMES), len(self._tail)
        fixed = np.array([entry.row for entry in entries]).reshape(n, h + s + t)
        X = np.zeros((n, len(self._registry)))
        X[:, :h] = fixed[:, :h]
        X[:, self._stats_at:self._stats_at + s] = fixed[:, h:h + s]
        X[:, len(self._registry) - t:] = fixed[:, h + s:]
        if self.tfidf is not None:
            vocabulary, idf = self.tfidf.vocabulary, self.tfidf.idf.tolist()
            for row, entry in enumerate(entries):
                for gram, weight in _tfidf_weights(vocabulary, idf, entry.grams).items():
                    X[row, h + vocabulary[gram]] = weight
        if self.class_vecs:
            at = self._stats_at + s
            for row, vector in enumerate(vectors):
                values = semantic_features(self.class_vecs, vector)
                X[row, at:at + len(values)] = list(values.values())
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            row, col = bad[0]
            raise FeatureError(f"comment {comments[row].id}: non-finite value for "
                               f"feature {self._registry[col]!r}")
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
        row = self.matrix([comment], cache)[0]
        return {self._registry[col]: float(row[col]) for col in np.flatnonzero(row)}


class _Entry:
    """One comment's fold-invariant values: its head, text-statistics and
    tail columns in registry order, its stop-word-filtered token stream with
    ngram counts, and its comment vector once asked for."""

    __slots__ = ("row", "stream", "grams", "vector")

    def __init__(self, row, stream, grams):
        self.row, self.stream, self.grams, self.vector = row, stream, grams, None


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
        self._patterns = [compile_keyword_pattern(self.keyword_sets[label].enriched)
                          for label in ADDRESSEE_LABELS if label in self.keyword_sets]
        keyword_tokens, head, tail = _fixed_columns(self.keyword_sets)
        self._column = {name: i for i, name in enumerate([*head, *TEXT_STAT_NAMES, *tail])}
        self._keyword_column = {token: self._column[f"keyword_{token}"]
                                for token in keyword_tokens}
        self._stats_at = len(head)
        self._entries: Dict[Comment, _Entry] = {}

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
        for col, pattern in enumerate(self._patterns):
            row[col] = count_pattern_matches(comment, pattern)
        if self._keyword_column:
            for token in preprocess(comment).tokens:
                col = self._keyword_column.get(token)
                if col is not None:
                    row[col] += 1.0
        stats = text_stats_features(comment)
        row[self._stats_at:self._stats_at + len(stats)] = list(stats.values())
        for name, value in metadata_features(comment, default_departments()).items():
            row[self._column[name]] = value
        stream = preprocess(comment, remove_stopwords=True, stopwords=self.stopwords)
        return _Entry(row, stream, _gram_counts(stream))

    def streams(self, comments: Sequence[Comment]) -> List[TokenStream]:
        """Stop-word-filtered token streams, as the tf-idf and doc models read."""
        return [entry.stream for entry in self.entries(comments)]

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


def export_sparse_matrix(X: np.ndarray, registry: Sequence[str], path) -> None:
    """Triplet text export ('row col value') of the non-zero cells of X,
    whose columns are the registry's, with a sidecar name registry."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(X)} {len(registry)}\n")
        for row, values in enumerate(X):
            for col in np.flatnonzero(values):
                fh.write(f"{row} {col} {float(values[col])!r}\n")
    names_path = path.with_suffix(path.suffix + ".names")
    with open(names_path, "w", encoding="utf-8", newline="\n") as fh:
        for name in registry:
            fh.write(name + "\n")


# -- ANOVA feature ranking ---------------------------------------------------

def anova_f_matrix(X: np.ndarray, y: Sequence[int]) -> np.ndarray:
    """One-way ANOVA F-score per column for a binary target.

    Zero within-class variance with positive between-class variance gives
    +inf (ranks first); an (almost) constant feature gives 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise FeatureError("ANOVA requires samples from both classes")
    n = len(y)
    k = len(classes)
    grand = X.mean(axis=0)
    ssb = np.zeros(X.shape[1])
    ssw = np.zeros(X.shape[1])
    for cls in classes:
        group = X[y == cls]
        mean_g = group.mean(axis=0)
        ssb += len(group) * (mean_g - grand) ** 2
        ssw += ((group - mean_g) ** 2).sum(axis=0)
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    sst = ssb + ssw
    # relative tolerances keep the scores scale-invariant
    scale = np.maximum(np.abs(X).max(axis=0), 1e-300)
    constant = sst <= (n * (1e-12 * scale) ** 2)
    separated = ~constant & (ssw <= 1e-24 * sst)
    scores = np.zeros(X.shape[1])
    regular = ~constant & ~separated
    scores[regular] = msb[regular] / msw[regular]
    scores[separated] = np.inf
    return scores


def select_k_best(scores: dict, k) -> list:
    """Top-k feature names by descending F-score, ties in registry order."""
    names = list(scores)
    if k == "all":
        k = len(names)
    if not isinstance(k, int):
        raise FeatureError(f"k must be an int or 'all', got {k!r}")
    if k < 0 or k > len(names):
        raise FeatureError(f"k={k} out of range for {len(names)} features")
    order = sorted(range(len(names)), key=lambda i: (-scores[names[i]], i))
    return [names[i] for i in order[:k]]
