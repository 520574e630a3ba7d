"""Feature inventory for comment classification.

Five groups feed the classifiers: keyword-pattern counts, tf-idf over
unigrams/bigrams, simple text statistics, semantic features from comment
embeddings (distances to per-class mean vectors), and site metadata.
ANOVA F-scores rank features; select_k_best picks the significant subset.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from .corpus import ADDRESSEE_LABELS, CLASS_ORDER, Comment, LabeledDataset
from .embeddings import DocEmbeddingModel, WordEmbeddingModel, cosine_distance
from .textprep import TokenStream, _is_punct, ngrams, preprocess, tokenize

_DATA_DIR = Path(__file__).parent / "data"

# lowercase feature-name form of the class labels
CLASS_FEATURE_NAMES = {
    "Media": "media",
    "Journalist": "journalist",
    "Moderator": "moderator",
    "Meta": "meta",
    "NonMeta": "non-meta",
}

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
    seen = set()
    seed_list = []
    for seed in seeds:
        token = seed.lower()
        if token not in seen:
            seen.add(token)
            seed_list.append(token)
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
    words = []
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.append(word)
    return tuple(words)


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
    return len(pattern.findall(_scan_text(comment)))


def _scan_text(comment: Comment) -> str:
    return comment.title + " " + comment.text if comment.title else comment.text


# -- tf-idf ------------------------------------------------------------------

@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary, document frequencies, and smoothed idf weights."""

    vocabulary: dict  # ngram -> column index
    document_frequencies: np.ndarray
    n_docs: int
    idf: np.ndarray
    fitted_ids: frozenset = frozenset()


def tfidf_fit(corpus: Sequence[TokenStream]) -> TfidfModel:
    """Fit on unigrams+bigrams; idf(t) = ln((1+N)/(1+df(t))) + 1."""
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
    n = len(corpus)
    df = np.array(df_counts, dtype=np.int64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return TfidfModel(vocabulary=vocabulary, document_frequencies=df, n_docs=n,
                      idf=idf, fitted_ids=frozenset(ts.source_id for ts in corpus))


def tfidf_transform(model: TfidfModel, ts: TokenStream) -> dict:
    """L2-normalized tf*idf weights; unseen ngrams contribute nothing."""
    if model is None:
        raise FeatureError("tf-idf transform called before fit")
    counts: Dict[str, int] = {}
    for gram in ngrams(ts):
        if gram in model.vocabulary:
            counts[gram] = counts.get(gram, 0) + 1
    if not counts:
        return {}
    weights = {gram: tf * model.idf[model.vocabulary[gram]]
               for gram, tf in counts.items()}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {gram: w / norm for gram, w in weights.items()}


# -- text statistics ---------------------------------------------------------

@dataclass(frozen=True)
class TextStats:
    length: int
    avg_word_length: float
    capital_letters: int
    sie_count: int
    question_count: int
    sentiment: float


def load_sentiment_lexicon(path) -> dict:
    """Polarity lexicon file: token<TAB>polarity, one entry per line."""
    lexicon = {}
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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


def text_stats(comment: Comment, lexicon: Optional[dict] = None) -> TextStats:
    """Character/word statistics, 'Sie' address count, questions, sentiment.

    The 'Sie' count applies the pattern [^\\.!?]\\s+Sie verbatim, which
    excludes sentence-initial occurrences; questions are maximal runs of '?'.
    Sentiment is the mean lexicon polarity over matching tokens (0 without
    any hit).
    """
    if lexicon is None:
        lexicon = default_sentiment_lexicon()
    scan = _scan_text(comment)
    words = [w for w in (_strip_edge_punct(t) for t in scan.split()) if w]
    tokens = tokenize(scan)
    hits = [lexicon[t] for t in tokens if t in lexicon]
    return TextStats(
        length=len(comment.title) + len(comment.text),
        avg_word_length=sum(len(w) for w in words) / len(words) if words else 0.0,
        capital_letters=sum(1 for ch in scan if ch.isupper()),
        sie_count=len(_SIE_PATTERN.findall(scan)),
        question_count=len(_QUESTION_RUN.findall(scan)),
        sentiment=sum(hits) / len(hits) if hits else 0.0,
    )


def text_stats_features(comment: Comment, lexicon: Optional[dict] = None) -> dict:
    stats = text_stats(comment, lexicon)
    return {
        "text_length": float(stats.length),
        "text_avgwordlength": stats.avg_word_length,
        "text_capitalletters": float(stats.capital_letters),
        "text_num_sie": float(stats.sie_count),
        "text_num_questions": float(stats.question_count),
        "text_sentiment": stats.sentiment,
    }


# -- semantic features -------------------------------------------------------

@dataclass(frozen=True)
class ClassVector:
    """Mean comment-embedding vector of all members of one class."""

    label: str
    vector: np.ndarray


def comment_vector(dm: DocEmbeddingModel, comment: Comment,
                   stopwords: Optional[FrozenSet[str]] = None) -> np.ndarray:
    """Trained vector when the comment was in training, else inferred."""
    return dm.vector_for(preprocess(comment, remove_stopwords=True, stopwords=stopwords))


def class_vectors(dm: DocEmbeddingModel, ds: LabeledDataset,
                  classes: Sequence[str] = CLASS_ORDER,
                  stopwords: Optional[FrozenSet[str]] = None) -> List[ClassVector]:
    """Per-class mean of the member comments' embedding vectors."""
    members: Dict[str, List[np.ndarray]] = {c: [] for c in classes}
    for comment, labels in ds:
        vec = None
        for cls in classes:
            if cls in labels:
                if vec is None:
                    vec = comment_vector(dm, comment, stopwords)
                members[cls].append(vec)
    result = []
    for cls in classes:
        if not members[cls]:
            raise FeatureError(f"class {cls!r} has no members")
        result.append(ClassVector(cls, np.mean(members[cls], axis=0)))
    return result


def semantic_features(dm: DocEmbeddingModel, cvs: Sequence[ClassVector],
                      comment: Comment,
                      stopwords: Optional[FrozenSet[str]] = None) -> dict:
    """Cosine distance to each class vector plus a one-hot nearest class.

    Ties go to the first class in the fixed class order.
    """
    if not cvs:
        raise FeatureError("no class vectors given")
    vec = comment_vector(dm, comment, stopwords)
    ordered = sorted(cvs, key=lambda cv: CLASS_ORDER.index(cv.label))
    values = {}
    best_label, best_dist = None, None
    for cv in ordered:
        dist = cosine_distance(vec, cv.vector)
        values[f"semantic_dist_{CLASS_FEATURE_NAMES[cv.label]}"] = dist
        if best_dist is None or dist < best_dist:
            best_label, best_dist = cv.label, dist
    for cv in ordered:
        values[f"semantic_min_dist_{CLASS_FEATURE_NAMES[cv.label]}"] = \
            1.0 if cv.label == best_label else 0.0
    return values


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

@dataclass(frozen=True)
class FeatureVector:
    """Sparse named feature values; zero entries are omitted."""

    values: dict

    def __post_init__(self):
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise FeatureError(f"non-finite value for feature {name!r}")


class FeatureExtractor:
    """Turns comments into features from fitted group models.

    matrix() gives the classifiers' input, in registry column order;
    assemble() gives one comment's named values for export and inspection.
    Each group is on when its fitted model is given: keyword sets give the
    regex and keyword groups, a tf-idf model the tf-idf group, and class
    vectors (with the doc model that embeds comments) the semantic group.
    Text statistics and metadata are always on. Assembly is a pure function
    of (comment, fitted models).
    """

    def __init__(self, keyword_sets: Optional[Dict[str, KeywordSet]] = None,
                 tfidf: Optional[TfidfModel] = None,
                 doc_model: Optional[DocEmbeddingModel] = None,
                 class_vecs: Optional[Sequence[ClassVector]] = None,
                 departments: Optional[Sequence[str]] = None,
                 sentiment_lexicon: Optional[dict] = None,
                 stopwords: Optional[FrozenSet[str]] = None,
                 extra_fitted_ids: Iterable[str] = ()):
        if class_vecs and doc_model is None:
            raise FeatureError("class vectors given without the comment embedding "
                               "model (doc model) they were computed with")
        self.keyword_sets = dict(keyword_sets or {})
        self.tfidf = tfidf
        self.doc_model = doc_model
        self.class_vecs = sorted(class_vecs, key=lambda cv: CLASS_ORDER.index(cv.label)) \
            if class_vecs else []
        self.departments = tuple(departments) if departments is not None \
            else default_departments()
        self.sentiment_lexicon = sentiment_lexicon \
            if sentiment_lexicon is not None else default_sentiment_lexicon()
        self.stopwords = stopwords
        self._extra_fitted_ids = frozenset(extra_fitted_ids)
        self._patterns = {
            label: compile_keyword_pattern(ks.enriched)
            for label, ks in self.keyword_sets.items()
        }
        # enriched keywords of every addressee class, first occurrence kept
        self._keyword_tokens = tuple(dict.fromkeys(
            token for label in ADDRESSEE_LABELS if label in self.keyword_sets
            for token in self.keyword_sets[label].enriched))
        self._registry = tuple(self._build_registry())
        self._hash = hashlib.sha256("\n".join(self._registry).encode()).hexdigest()[:16]

    def _build_registry(self) -> List[str]:
        names = [f"regex_{CLASS_FEATURE_NAMES[label]}_matches"
                 for label in ADDRESSEE_LABELS if label in self.keyword_sets]
        names.extend(f"keyword_{token}" for token in self._keyword_tokens)
        if self.tfidf is not None:
            names.extend(f"tfidf_{gram}" for gram in self.tfidf.vocabulary)
        names.extend(TEXT_STAT_NAMES)
        names.extend(f"semantic_dist_{CLASS_FEATURE_NAMES[cv.label]}"
                     for cv in self.class_vecs)
        names.extend(f"semantic_min_dist_{CLASS_FEATURE_NAMES[cv.label]}"
                     for cv in self.class_vecs)
        names.extend(f"department_{d}" for d in self.departments)
        names.append("department_other")
        names.append("position")
        names.append("has_quote")
        names.extend(f"dow_{i}" for i in range(7))
        names.extend(f"hour_{i}" for i in range(24))
        return names

    @property
    def registry(self) -> tuple:
        return self._registry

    @property
    def registry_hash(self) -> str:
        return self._hash

    def fitted_ids(self) -> frozenset:
        ids = set(self._extra_fitted_ids)
        if self.tfidf is not None:
            ids |= self.tfidf.fitted_ids
        return frozenset(ids)

    def assemble(self, comment: Comment) -> FeatureVector:
        values: Dict[str, float] = {}
        for label in ADDRESSEE_LABELS:
            if label in self._patterns:
                count = count_pattern_matches(comment, self._patterns[label])
                if count:
                    values[f"regex_{CLASS_FEATURE_NAMES[label]}_matches"] = float(count)
        if self._keyword_tokens:
            counts: Dict[str, int] = {}
            for token in preprocess(comment).tokens:
                counts[token] = counts.get(token, 0) + 1
            for token in self._keyword_tokens:
                if counts.get(token):
                    values[f"keyword_{token}"] = float(counts[token])
        if self.tfidf is not None:
            ts = preprocess(comment, remove_stopwords=True, stopwords=self.stopwords)
            for gram, weight in tfidf_transform(self.tfidf, ts).items():
                values[f"tfidf_{gram}"] = weight
        values.update(text_stats_features(comment, self.sentiment_lexicon))
        if self.class_vecs:
            values.update(semantic_features(self.doc_model, self.class_vecs, comment,
                                            stopwords=self.stopwords))
        values.update(metadata_features(comment, self.departments))
        values = {k: v for k, v in values.items() if v != 0.0}
        return FeatureVector(values=values)

    def matrix(self, comments: Iterable[Comment]) -> np.ndarray:
        return build_matrix([self.assemble(c) for c in comments], self._registry)


def build_matrix(fvs: Sequence[FeatureVector], registry: Sequence[str]) -> np.ndarray:
    """Dense (n_samples, n_features) matrix in registry column order."""
    index = {name: i for i, name in enumerate(registry)}
    X = np.zeros((len(fvs), len(registry)))
    for row, fv in enumerate(fvs):
        for name, value in fv.values.items():
            col = index.get(name)
            if col is None:
                raise FeatureError(f"feature {name!r} not in registry")
            X[row, col] = value
    return X


def export_sparse_matrix(fvs: Sequence[FeatureVector], registry: Sequence[str],
                         path) -> None:
    """Triplet text export ('row col value') with a sidecar name registry."""
    path = Path(path)
    index = {name: i for i, name in enumerate(registry)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(fvs)} {len(registry)}\n")
        for row, fv in enumerate(fvs):
            for name in sorted(fv.values, key=index.__getitem__):
                fh.write(f"{row} {index[name]} {fv.values[name]!r}\n")
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
