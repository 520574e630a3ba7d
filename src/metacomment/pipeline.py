"""Trainable end-to-end pipelines: feature route, CNN route, two-step gate.

A pipeline fits every transformer (keyword enrichment aside, which only
depends on the unlabeled word embeddings) on the entries it is given, so
cross-validation folds stay leak-free, and exposes fitted_ids() so the
evaluation harness can verify that.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
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
from .evaluation import (TwoStepResult, binary_labels, check_class_sizes, labelled,
                         stratified_k_fold, two_step_classify)
from .features import (
    ClassVector,
    FeatureCache,
    FeatureError,
    FeatureExtractor,
    KeywordSet,
    TfidfModel,
    anova_f_matrix,
    class_means,
    default_keyword_seeds,
    enrich_keywords,
    select_k_best,
)
from .files import read_json, write_json
from .neural import CnnConfig, build as build_cnn, forward, train as train_cnn
from .sparse import CsrMatrix
from .textprep import preprocess

logger = logging.getLogger(__name__)

Entry = Tuple[Comment, LabelSet]


def _comments(entries: Sequence) -> List[Comment]:
    return [entry[0] if isinstance(entry, tuple) else entry for entry in entries]


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


def feature_cache(word_model: Optional[WordEmbeddingModel] = None,
                  doc_model: Optional[DocEmbeddingModel] = None,
                  keyword_seeds: Optional[Dict[str, Sequence[str]]] = None,
                  stopwords=None) -> FeatureCache:
    """An empty FeatureCache of one dataset's unlabeled feature inputs: the
    keyword sets enriched by word_model, the doc model and the stop words.

    Every FeaturePipeline over the dataset takes it, so each comment is
    preprocessed, scanned and embedded once while the caller keeps it.
    """
    return FeatureCache(build_keyword_sets(word_model, keyword_seeds), doc_model, stopwords)


def check_select_k(value, name: str = "select_k"):
    """value when it is 'all' or an int >= 1; ValueError naming `name` otherwise."""
    if value == "all" or type(value) is int and value >= 1:
        return value
    raise ValueError(f"{name} must be 'all' or an integer >= 1, got {value!r}")


class FeaturePipeline:
    """Hand-crafted-feature route: fit transformers, select, classify.

    features is the FeatureCache (see feature_cache) of the dataset the
    pipeline fits and predicts on. Fitting builds the tf-idf model always,
    and the class vectors of the semantic group when the cache has a doc
    model.
    """

    def __init__(self, features: FeatureCache,
                 classifier: str = "linear_svm",
                 classifier_params: Optional[dict] = None,
                 select_k="all", with_calibration: bool = False, seed: int = 0):
        self.features = features
        self.classifier = classifier
        params = dict(classifier_params or {})
        if "seed" in hyperparam_fields(classifier):
            params.setdefault("seed", seed)
        # checked here, so that a bad value fails before any fold is fit
        self.classifier_params = _coerce_params(classifier, params)
        self.select_k = check_select_k(select_k)
        self.with_calibration = with_calibration
        self.seed = seed
        self.extractor: Optional[FeatureExtractor] = None
        self.model: Optional[TrainedModel] = None
        self._columns: Optional[np.ndarray] = None  # selected columns; None: all

    def _fit_extractor(self, entries: Sequence[Entry]) -> FeatureExtractor:
        cache = self.features
        comments = _comments(entries)
        tfidf = cache.tfidf_fit(comments)
        class_vecs = None
        if cache.doc_model is not None:
            label_sets = [e[1] if isinstance(e, tuple) else LabelSet() for e in entries]
            present = [cls for cls in CLASS_ORDER if any(cls in ls for ls in label_sets)]
            class_vecs = class_means(cache.vectors(comments), label_sets, present)
        return FeatureExtractor(keyword_sets=cache.keyword_sets, tfidf=tfidf,
                                doc_model=cache.doc_model, class_vecs=class_vecs,
                                stopwords=cache.stopwords,
                                fitted_ids=[c.id for c in comments])

    def fit(self, entries: Sequence[Entry], y) -> "FeaturePipeline":
        self._fit(entries, y)
        return self

    def _fit(self, entries: Sequence[Entry], y) -> CsrMatrix:
        """Fit as fit() does; returns the training matrix after selection."""
        y = np.asarray(y, dtype=int)
        self.extractor = self._fit_extractor(entries)
        X = self.extractor.matrix(_comments(entries), self.features)
        self._columns = None
        if self.select_k != "all":
            self._columns = select_k_best(anova_f_matrix(X, y), min(self.select_k, X.shape[1]))
            X = X.columns(self._columns)
        self.model = self._train(X, y, self.with_calibration)
        return X

    def _train(self, X: CsrMatrix, y: np.ndarray,
               calibrated: bool = False) -> TrainedModel:
        """One classifier over the selected columns, tied to the extractor.

        A calibrated one is trained on the first of 5 stratified folds drawn
        from the pipeline seed and calibrated on that fold's holdout. The
        model stores its column names only when select-k picked a subset;
        over all columns, the extractor's registry hash already fixes them.
        """
        if calibrated:
            check_class_sizes(y, 5, "the calibration holdout")
            train_idx, holdout_idx = stratified_k_fold(y, 5, self.seed)[0]
            return calibrate(self._train(X[train_idx], y[train_idx]),
                             X[holdout_idx], y[holdout_idx])
        registry = None if self._columns is None else \
            [self.extractor.registry[i] for i in self._columns]
        return train_classifier(self.classifier, X, y, self.classifier_params,
                                registry=registry,
                                registry_hash=self.extractor.registry_hash)

    def _matrix(self, entries: Sequence[Entry]) -> CsrMatrix:
        if self.model is None:
            raise RuntimeError("pipeline is not fitted")
        X = self.extractor.matrix(_comments(entries), self.features)
        return X if self._columns is None else X.columns(self._columns)

    def predict(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.model.predict_many(self._matrix(entries))

    def fitted_ids(self) -> Optional[frozenset]:
        return None if self.extractor is None else self.extractor.fitted_ids()


class CnnPipeline:
    """End-to-end route: token indices into the shallow CNN.

    Stop words are kept: the formal address "Sie" and similar function words
    carry addressee signal.
    """

    def __init__(self, word_model: WordEmbeddingModel, config: Optional[CnnConfig] = None,
                 seed: int = 0):
        self.word_model = word_model
        self.config = replace(config or CnnConfig(), seed=seed)
        self.model = None
        self.loss_history: Optional[List[float]] = None
        self._ids: Optional[frozenset] = None

    def _encode(self, entries: Sequence[Entry]) -> np.ndarray:
        return np.array([self.model.encode(preprocess(c).tokens)
                         for c in _comments(entries)])

    def fit(self, entries: Sequence[Entry], y) -> "CnnPipeline":
        self.model = build_cnn(self.word_model, self.config)
        sequences = self._encode(entries)
        self.loss_history = train_cnn(self.model, sequences, np.asarray(y, dtype=int))
        self._ids = frozenset(c.id for c in _comments(entries))
        return self

    def predict_proba(self, entries: Sequence[Entry]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("pipeline is not fitted")
        return forward(self.model, self._encode(entries))

    def predict(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.predict_proba(entries).argmax(axis=1)

    def fitted_ids(self) -> Optional[frozenset]:
        return self._ids


@dataclass(eq=False)
class TwoStepClassifier:
    """Meta gate plus calibrated one-vs-all addressee models.

    All four models read every column of one extractor, which keeps them on
    the same feature registry as the two-step contract requires. fit()
    trains them; load() reads a directory that save() wrote.
    """

    extractor: FeatureExtractor
    meta_model: TrainedModel
    addressee_models: Dict[str, TrainedModel]
    threshold: float = 0.8

    @classmethod
    def fit(cls, pipeline: FeaturePipeline, entries: Sequence[Entry],
            threshold: float = 0.8) -> "TwoStepClassifier":
        """Fit pipeline on entries as the meta gate, then one model per
        addressee with examples over the gate's matrix, calibrated on a
        holdout drawn from the pipeline's seed. So the pipeline must keep
        every column and must not calibrate."""
        if pipeline.select_k != "all":
            raise ValueError("two-step models use every feature column; "
                             f"select_k must be 'all', got {pipeline.select_k!r}")
        if pipeline.with_calibration:
            raise ValueError("two-step training calibrates the addressee models "
                             "itself; the feature pipeline must not calibrate")
        X = pipeline._fit(entries, binary_labels(entries, "Meta"))
        addressee_models = {}
        for label in ADDRESSEE_LABELS:
            y = binary_labels(entries, label)
            if len(np.unique(y)) < 2:
                logger.warning("no %s examples; skipping that addressee model", label)
                continue
            with labelled(label):
                addressee_models[label] = pipeline._train(X, y, calibrated=True)
        return cls(pipeline.extractor, pipeline.model, addressee_models, threshold)

    def classify(self, entry) -> TwoStepResult:
        return self.classify_many([entry])[0]

    def classify_many(self, entries: Sequence) -> List[TwoStepResult]:
        """One result per entry, from one feature matrix for all of them.

        Each row is decided on its own 1 x n slice, so a result does not
        depend on which other entries share the batch.
        """
        X = self.extractor.matrix(_comments(entries))
        return [two_step_classify(self.meta_model, self.addressee_models, X[i:i + 1],
                                  threshold=self.threshold)
                for i in range(X.shape[0])]

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
        save_extractor(self.extractor, files["extractor"])
        for role, model in {"meta": self.meta_model, **self.addressee_models}.items():
            save_model(model, files[role])

    @classmethod
    def load(cls, directory, doc_model: Optional[DocEmbeddingModel],
             threshold: float) -> "TwoStepClassifier":
        """Read a directory written by save().

        Every model must carry the registry hash of the saved extractor;
        RegistryMismatch otherwise. Absent addressee files are skipped.
        """
        files = cls.files(directory)
        extractor = load_extractor(files.pop("extractor"), doc_model=doc_model)
        models = {role: load_model(path, registry_hash=extractor.registry_hash)
                  for role, path in files.items() if role == "meta" or path.is_file()}
        return cls(extractor, models.pop("meta"), models, threshold)


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
            "n_docs": extractor.tfidf.n_docs},
        "class_vectors": [{"label": cv.label, "vector": cv.vector.tolist()}
                          for cv in extractor.class_vecs],
        "stopwords": sorted(extractor.stopwords) if extractor.stopwords else None,
        "fitted_ids": sorted(extractor.fitted_ids()),
    }
    write_json(path, data)


def load_extractor(path, doc_model: Optional[DocEmbeddingModel] = None) -> FeatureExtractor:
    """Read a file written by save_extractor().

    The feature groups follow from the stored fitted pieces; a FeatureError
    names the file. Older files carry keys that are not read: "departments"
    and "sentiment_lexicon" (the shipped lists), "tfidf.fitted_ids" (a copy
    of "fitted_ids") and the "config" object of group toggles. Where that had
    turned a stored group off, the registry differs from the models', and
    TwoStepClassifier.load rejects them by registry hash.
    """
    data = read_json(path, "metacomment-extractor/1")
    try:
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
                n_docs=raw["n_docs"])
        class_vecs = [ClassVector(cv["label"], np.array(cv["vector"]))
                      for cv in data["class_vectors"]] or None
        return FeatureExtractor(
            keyword_sets=keyword_sets, tfidf=tfidf, doc_model=doc_model,
            class_vecs=class_vecs,
            stopwords=frozenset(data["stopwords"]) if data["stopwords"] else None,
            fitted_ids=data["fitted_ids"])
    except FeatureError as exc:
        raise FeatureError(f"{path}: {exc}") from None
