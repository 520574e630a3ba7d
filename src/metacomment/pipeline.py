"""Trainable end-to-end pipelines: feature route, CNN route, two-step gate.

A pipeline fits every transformer (keyword enrichment aside, which only
depends on the unlabeled word embeddings) on the entries it is given, so
cross-validation folds stay leak-free, and exposes fitted_ids() so the
evaluation harness can verify that.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classifiers import (
    TrainedModel,
    _coerce_params,
    calibrate,
    hyperparam_fields,
    load_model,
    save_model,
    train as train_classifier,
)
from .corpus import ADDRESSEE_LABELS, CLASS_ORDER, Comment, LabelSet
from .embeddings import DocEmbeddingModel, WordEmbeddingModel
from .evaluation import TwoStepResult, stratified_k_fold, two_step_classify
from .features import (
    ClassVector,
    FeatureCache,
    FeatureExtractor,
    KeywordSet,
    TfidfModel,
    anova_f_matrix,
    class_means,
    default_keyword_seeds,
    enrich_keywords,
    select_k_best,
    tfidf_fit,
)
from .files import read_json, write_json
from .neural import CnnConfig, build as build_cnn, forward, train as train_cnn
from .textprep import preprocess

logger = logging.getLogger(__name__)

Entry = Tuple[Comment, LabelSet]


def _comments(entries: Sequence) -> List[Comment]:
    return [entry[0] if isinstance(entry, tuple) else entry for entry in entries]


def _label_sets(entries: Sequence) -> List[LabelSet]:
    return [entry[1] if isinstance(entry, tuple) else LabelSet() for entry in entries]


def build_keyword_sets(word_model: Optional[WordEmbeddingModel],
                       seeds: Optional[Dict[str, Sequence[str]]] = None
                       ) -> Dict[str, KeywordSet]:
    """Enriched keyword sets per addressee class.

    Enrichment uses only the unlabeled word embeddings: each seed's 10
    nearest neighbours with cosine similarity >= 0.6. Without a word model
    the seed lists are used as-is.
    """
    seeds = seeds if seeds is not None else default_keyword_seeds()
    sets = {}
    for label, seed_tokens in seeds.items():
        if word_model is not None:
            sets[label] = enrich_keywords(seed_tokens, word_model, top_n=10, min_sim=0.6,
                                          label=label)
        else:
            tokens = tuple(dict.fromkeys(t.lower() for t in seed_tokens))
            sets[label] = KeywordSet(label=label, seeds=tokens, enriched=tokens)
    return sets


class FeaturePipeline:
    """Hand-crafted-feature route: fit transformers, select, classify.

    Fitting builds the keyword sets and the tf-idf model always, and the
    class vectors of the semantic group when doc_model is given.
    """

    def __init__(self, classifier: str = "linear_svm",
                 classifier_params: Optional[dict] = None,
                 word_model: Optional[WordEmbeddingModel] = None,
                 doc_model: Optional[DocEmbeddingModel] = None,
                 keyword_seeds: Optional[Dict[str, Sequence[str]]] = None,
                 select_k="all", stopwords=None, with_calibration: bool = False,
                 seed: int = 0):
        self.classifier = classifier
        params = dict(classifier_params or {})
        if "seed" in hyperparam_fields(classifier):
            params.setdefault("seed", seed)
        # checked here, so that a bad value fails before any fold is fit
        self.classifier_params = _coerce_params(classifier, params)
        self.word_model = word_model
        self.doc_model = doc_model
        self.keyword_seeds = keyword_seeds
        self.select_k = select_k
        self.stopwords = stopwords
        self.with_calibration = with_calibration
        self.seed = seed
        self.extractor: Optional[FeatureExtractor] = None
        self.model: Optional[TrainedModel] = None
        self.selected: Optional[tuple] = None
        self._columns: Optional[np.ndarray] = None  # selected columns; None: all
        self._fitted_ids: Optional[frozenset] = None
        self._shared: Optional[dict] = None

    def use_cache(self, shared: dict) -> None:
        """Keep fold-invariant feature values in shared, the dict that one
        cross_validate, grid_search or cross_dataset_eval call hands to each
        of its pipelines, so every comment is preprocessed, scanned and
        embedded once per call rather than once per fold."""
        self._shared = shared

    def _feature_cache(self) -> FeatureCache:
        """The FeatureCache of this pipeline's unlabeled inputs: the one in
        the shared dict when there is one, else a new one. The enriched
        keyword sets are built along with it."""
        seeds = self.keyword_seeds
        key = (FeatureCache, self.word_model, self.doc_model,
               None if self.stopwords is None else frozenset(self.stopwords),
               None if seeds is None else tuple((k, tuple(v)) for k, v in seeds.items()))
        shared = self._shared if self._shared is not None else {}
        if key not in shared:
            shared[key] = FeatureExtractor(
                keyword_sets=build_keyword_sets(self.word_model, seeds),
                doc_model=self.doc_model, stopwords=self.stopwords).new_cache()
        return shared[key]

    def _fit_extractor(self, entries: Sequence[Entry],
                       cache: Optional[FeatureCache] = None) -> FeatureExtractor:
        comments = _comments(entries)
        if cache is None:
            cache = self._feature_cache()
        tfidf = tfidf_fit(cache.streams(comments))
        class_vecs = None
        if self.doc_model is not None:
            label_sets = _label_sets(entries)
            present = [cls for cls in CLASS_ORDER if any(cls in ls for ls in label_sets)]
            class_vecs = class_means(cache.vectors(comments), label_sets, present)
        keyword_sets, doc_model, departments, lexicon, stopwords = cache.inputs
        return FeatureExtractor(
            keyword_sets=keyword_sets, tfidf=tfidf, doc_model=doc_model,
            class_vecs=class_vecs, departments=departments, sentiment_lexicon=lexicon,
            stopwords=stopwords, extra_fitted_ids=[c.id for c in comments])

    def fit(self, entries: Sequence[Entry], y) -> "FeaturePipeline":
        self._fit(entries, y)
        return self

    def _fit(self, entries: Sequence[Entry], y) -> np.ndarray:
        """Fit as fit() does; returns the training matrix after selection."""
        y = np.asarray(y, dtype=int)
        cache = self._feature_cache()
        self.extractor = self._fit_extractor(entries, cache)
        X = self.extractor.matrix(_comments(entries), cache)
        registry = self.extractor.registry
        if self.select_k != "all":
            scores = dict(zip(registry, anova_f_matrix(X, y)))
            k = min(self.select_k, len(registry)) \
                if isinstance(self.select_k, int) else self.select_k
            self.selected = tuple(select_k_best(scores, k))
            index = {name: i for i, name in enumerate(registry)}
            self._columns = np.array([index[name] for name in self.selected],
                                     dtype=np.intp)
            X = X[:, self._columns]
        else:
            self.selected = registry
            self._columns = None

        if self.with_calibration:
            train_idx, holdout_idx = stratified_k_fold(y, 5, self.seed)[0]
            model = self._train(X[train_idx], y[train_idx])
            self.model = calibrate(model, X[holdout_idx], y[holdout_idx])
        else:
            self.model = self._train(X, y)
        self._fitted_ids = self.extractor.fitted_ids()
        return X

    def _train(self, X: np.ndarray, y: np.ndarray) -> TrainedModel:
        """One classifier over the selected columns, tied to the extractor.

        The model stores its column names only when select-k picked a subset;
        over all columns, the extractor's registry hash already fixes them.
        """
        registry = self.selected if self._columns is not None else None
        return train_classifier(self.classifier, X, y, self.classifier_params,
                                registry=registry,
                                registry_hash=self.extractor.registry_hash)

    def _matrix(self, entries: Sequence[Entry]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("pipeline is not fitted")
        # a lone pipeline builds a cache per call, so memory stays at one batch
        cache = self._feature_cache() if self._shared is not None else None
        X = self.extractor.matrix(_comments(entries), cache)
        return X if self._columns is None else X[:, self._columns]

    def predict(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.model.predict_many(self._matrix(entries))

    def fitted_ids(self) -> Optional[frozenset]:
        return self._fitted_ids


class CnnPipeline:
    """End-to-end route: token indices into the shallow CNN.

    Stop words are kept: the formal address "Sie" and similar function words
    carry addressee signal.
    """

    def __init__(self, word_model: WordEmbeddingModel, config: Optional[CnnConfig] = None,
                 seed: int = 0):
        self.word_model = word_model
        base = config or CnnConfig()
        self.config = base if base.seed == seed else \
            CnnConfig(**{**base.__dict__, "seed": seed})
        self.model = None
        self.loss_history: Optional[List[float]] = None
        self._fitted_ids: Optional[frozenset] = None

    def _encode(self, entries: Sequence[Entry]) -> np.ndarray:
        return np.array([self.model.encode(preprocess(c).tokens)
                         for c in _comments(entries)])

    def fit(self, entries: Sequence[Entry], y) -> "CnnPipeline":
        self.model = build_cnn(self.word_model, self.config)
        sequences = self._encode(entries)
        self.loss_history = train_cnn(self.model, sequences, np.asarray(y, dtype=int))
        self._fitted_ids = frozenset(c.id for c in _comments(entries))
        return self

    def predict_proba(self, entries: Sequence[Entry]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("pipeline is not fitted")
        return np.atleast_2d(forward(self.model, self._encode(entries)))

    def predict(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.predict_proba(entries).argmax(axis=1)

    def fitted_ids(self) -> Optional[frozenset]:
        return self._fitted_ids


class TwoStepClassifier:
    """Meta gate plus calibrated one-vs-all addressee models.

    All four models share the extractor that `pipeline` fits on the training
    entries, which keeps them on the same feature registry as the two-step
    contract requires. The pipeline must therefore keep every column, and
    it must not calibrate: the gate is uncalibrated and the addressee models
    are calibrated here. The pipeline's seed also draws the addressee
    models' calibration holdouts.
    """

    def __init__(self, pipeline: FeaturePipeline, threshold: float = 0.8):
        if pipeline.select_k != "all":
            raise ValueError("two-step models use every feature column; "
                             f"select_k must be 'all', got {pipeline.select_k!r}")
        if pipeline.with_calibration:
            raise ValueError("two-step training calibrates the addressee models "
                             "itself; the feature pipeline must not calibrate")
        self.pipeline = pipeline
        self.threshold = threshold
        self.meta_model: Optional[TrainedModel] = None
        self.addressee_models: Dict[str, TrainedModel] = {}

    def fit(self, entries: Sequence[Entry]) -> "TwoStepClassifier":
        label_sets = _label_sets(entries)
        y_meta = np.array([1 if ls.is_meta else 0 for ls in label_sets])
        X = self.pipeline._fit(entries, y_meta)
        self.meta_model = self.pipeline.model
        for label in ADDRESSEE_LABELS:
            y = np.array([1 if label in ls else 0 for ls in label_sets])
            if len(np.unique(y)) < 2:
                logger.warning("no %s examples; skipping that addressee model", label)
                continue
            train_idx, holdout_idx = stratified_k_fold(y, 5, self.pipeline.seed)[0]
            model = self.pipeline._train(X[train_idx], y[train_idx])
            self.addressee_models[label] = calibrate(model, X[holdout_idx],
                                                     y[holdout_idx])
        return self

    def classify(self, entry) -> TwoStepResult:
        return self.classify_many([entry])[0]

    def classify_many(self, entries: Sequence) -> List[TwoStepResult]:
        """One result per entry, from one feature matrix for all of them.

        Each row is decided on its own 1 x n slice, so a result does not
        depend on which other entries share the batch.
        """
        X = self.pipeline._matrix(entries)
        return [two_step_classify(self.meta_model, self.addressee_models, X[i:i + 1],
                                  threshold=self.threshold)
                for i in range(len(X))]

    @staticmethod
    def files(directory) -> Dict[str, Path]:
        """extractor.json, meta.json and addressee_<label>.json, keyed by role and label."""
        directory = Path(directory)
        return {"extractor": directory / "extractor.json", "meta": directory / "meta.json",
                **{label: directory / f"addressee_{label.lower()}.json"
                   for label in ADDRESSEE_LABELS}}

    def save(self, directory) -> None:
        """Write every file of files(directory) but those of skipped addressees."""
        files = self.files(directory)
        save_extractor(self.pipeline.extractor, files["extractor"])
        save_model(self.meta_model, files["meta"])
        for label, model in self.addressee_models.items():
            save_model(model, files[label])

    @classmethod
    def load(cls, directory, doc_model: Optional[DocEmbeddingModel],
             threshold: float) -> "TwoStepClassifier":
        """Read a directory written by save().

        Every model must carry the registry hash of the saved extractor;
        RegistryMismatch otherwise. Absent addressee files are skipped.
        """
        files = cls.files(directory)
        classifier = cls(FeaturePipeline(), threshold=threshold)
        extractor = load_extractor(files["extractor"], doc_model=doc_model)
        meta_model = load_model(files["meta"], registry_hash=extractor.registry_hash)
        for label in ADDRESSEE_LABELS:
            if files[label].is_file():
                classifier.addressee_models[label] = load_model(
                    files[label], registry_hash=extractor.registry_hash)
        classifier.pipeline.extractor = extractor
        classifier.pipeline.model = classifier.meta_model = meta_model
        classifier.pipeline.selected = extractor.registry
        classifier.pipeline._fitted_ids = extractor.fitted_ids()
        return classifier

    def fitted_ids(self) -> Optional[frozenset]:
        return self.pipeline.fitted_ids()


# -- extractor persistence ----------------------------------------------------

def save_extractor(extractor: FeatureExtractor, path) -> None:
    """Serialize every fitted piece except the embedding model itself."""
    data = {
        "format": "metacomment-extractor/1",
        "keyword_sets": {
            label: {"seeds": list(ks.seeds), "enriched": list(ks.enriched),
                    "missing": list(ks.missing)}
            for label, ks in extractor.keyword_sets.items()},
        "tfidf": None if extractor.tfidf is None else {
            "vocabulary": list(extractor.tfidf.vocabulary),
            "document_frequencies": extractor.tfidf.document_frequencies.tolist(),
            "n_docs": extractor.tfidf.n_docs,
            "fitted_ids": sorted(extractor.tfidf.fitted_ids)},
        "class_vectors": [{"label": cv.label, "vector": cv.vector.tolist()}
                          for cv in extractor.class_vecs],
        "departments": list(extractor.departments),
        "sentiment_lexicon": extractor.sentiment_lexicon,
        "stopwords": sorted(extractor.stopwords) if extractor.stopwords else None,
        "fitted_ids": sorted(extractor.fitted_ids()),
    }
    write_json(path, data)


def load_extractor(path, doc_model: Optional[DocEmbeddingModel] = None) -> FeatureExtractor:
    """Read a file written by save_extractor().

    The feature groups follow from the stored fitted pieces. The "config"
    object of group toggles that older files carry is not read. Where it
    had turned a stored group off, the registry differs from the one the
    models were trained on, and TwoStepClassifier.load rejects them by
    registry hash.
    """
    data = read_json(path, "metacomment-extractor/1")
    keyword_sets = {
        label: KeywordSet(label=label, seeds=tuple(ks["seeds"]),
                          enriched=tuple(ks["enriched"]), missing=tuple(ks["missing"]))
        for label, ks in data["keyword_sets"].items()} or None
    tfidf = None
    if data["tfidf"] is not None:
        raw = data["tfidf"]
        tfidf = TfidfModel(
            vocabulary={gram: i for i, gram in enumerate(raw["vocabulary"])},
            document_frequencies=np.array(raw["document_frequencies"], dtype=np.int64),
            n_docs=raw["n_docs"], fitted_ids=frozenset(raw["fitted_ids"]))
    class_vecs = [ClassVector(cv["label"], np.array(cv["vector"]))
                  for cv in data["class_vectors"]] or None
    return FeatureExtractor(
        keyword_sets=keyword_sets, tfidf=tfidf, doc_model=doc_model,
        class_vecs=class_vecs, departments=data["departments"],
        sentiment_lexicon=data["sentiment_lexicon"],
        stopwords=frozenset(data["stopwords"]) if data["stopwords"] else None,
        extra_fitted_ids=data["fitted_ids"])
