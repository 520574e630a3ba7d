"""Trainable end-to-end pipelines: feature route, CNN route, two-step gate.

A pipeline fits every transformer (keyword enrichment aside, which only
depends on the unlabeled word embeddings) on the entries it is given, so
cross-validation folds stay leak-free, and exposes fitted_ids() so the
evaluation harness can verify that.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classifiers import (
    TrainedModel,
    calibrate,
    hyperparam_fields,
    load_model,
    save_model,
    train as train_classifier,
)
from .corpus import ADDRESSEE_LABELS, CLASS_ORDER, Comment, LabeledDataset, LabelSet
from .embeddings import DocEmbeddingModel, WordEmbeddingModel
from .evaluation import TwoStepResult, stratified_k_fold, two_step_classify
from .features import (
    ClassVector,
    FeatureExtractor,
    KeywordSet,
    TfidfModel,
    anova_f_matrix,
    class_vectors,
    default_keyword_seeds,
    enrich_keywords,
    select_k_best,
    tfidf_fit,
)
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
        self.classifier_params = dict(classifier_params or {})
        if "seed" in hyperparam_fields(classifier):
            self.classifier_params.setdefault("seed", seed)
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

    def _fit_extractor(self, entries: Sequence[Entry]) -> FeatureExtractor:
        comments = _comments(entries)
        keyword_sets = build_keyword_sets(self.word_model, self.keyword_seeds)
        streams = [preprocess(c, remove_stopwords=True, stopwords=self.stopwords)
                   for c in comments]
        tfidf = tfidf_fit(streams)
        class_vecs = None
        if self.doc_model is not None:
            present = [cls for cls in CLASS_ORDER
                       if any(cls in ls for ls in _label_sets(entries))]
            ds = LabeledDataset(tuple(entries), "fold")
            class_vecs = class_vectors(self.doc_model, ds, classes=present,
                                       stopwords=self.stopwords)
        return FeatureExtractor(
            keyword_sets=keyword_sets, tfidf=tfidf, doc_model=self.doc_model,
            class_vecs=class_vecs, stopwords=self.stopwords,
            extra_fitted_ids=[c.id for c in comments])

    def fit(self, entries: Sequence[Entry], y) -> "FeaturePipeline":
        self._fit(entries, y)
        return self

    def _fit(self, entries: Sequence[Entry], y) -> np.ndarray:
        """Fit as fit() does; returns the training matrix after selection."""
        y = np.asarray(y, dtype=int)
        self.extractor = self._fit_extractor(entries)
        X = self.extractor.matrix(_comments(entries))
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
        X = self.extractor.matrix(_comments(entries))
        return X if self._columns is None else X[:, self._columns]

    def predict(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.model.predict_many(self._matrix(entries))

    def confidences(self, entries: Sequence[Entry]) -> np.ndarray:
        return self.model.confidences(self._matrix(entries))

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
        x = self.pipeline._matrix([entry])
        return two_step_classify(self.meta_model, self.addressee_models, x,
                                 threshold=self.threshold)

    def save(self, directory) -> None:
        """Write extractor.json, meta.json and addressee_<label>.json."""
        directory = Path(directory)
        save_extractor(self.pipeline.extractor, directory / "extractor.json")
        save_model(self.meta_model, directory / "meta.json")
        for label, model in self.addressee_models.items():
            save_model(model, directory / f"addressee_{label.lower()}.json")

    @classmethod
    def load(cls, directory, doc_model: Optional[DocEmbeddingModel],
             threshold: float) -> "TwoStepClassifier":
        """Read a directory written by save().

        Every model must carry the registry hash of the saved extractor;
        RegistryMismatch otherwise. Absent addressee files are skipped.
        """
        directory = Path(directory)
        classifier = cls(FeaturePipeline(), threshold=threshold)
        extractor = load_extractor(directory / "extractor.json", doc_model=doc_model)
        meta_model = load_model(directory / "meta.json",
                                registry_hash=extractor.registry_hash)
        for label in ADDRESSEE_LABELS:
            path = directory / f"addressee_{label.lower()}.json"
            if path.is_file():
                classifier.addressee_models[label] = load_model(
                    path, registry_hash=extractor.registry_hash)
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
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_extractor(path, doc_model: Optional[DocEmbeddingModel] = None) -> FeatureExtractor:
    """Read a file written by save_extractor().

    The feature groups follow from the stored fitted pieces. The "config"
    object of group toggles that older files carry is not read. Where it
    had turned a stored group off, the registry differs from the one the
    models were trained on, and TwoStepClassifier.load rejects them by
    registry hash.
    """
    with open(Path(path), encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != "metacomment-extractor/1":
        raise ValueError(f"unsupported extractor format {data.get('format')!r}")
    keyword_sets = {
        label: KeywordSet(label=label, seeds=tuple(ks["seeds"]),
                          enriched=tuple(ks["enriched"]), missing=tuple(ks["missing"]))
        for label, ks in data["keyword_sets"].items()} or None
    tfidf = None
    if data["tfidf"] is not None:
        raw = data["tfidf"]
        df = np.array(raw["document_frequencies"], dtype=np.int64)
        tfidf = TfidfModel(
            vocabulary={gram: i for i, gram in enumerate(raw["vocabulary"])},
            document_frequencies=df, n_docs=raw["n_docs"],
            idf=np.log((1.0 + raw["n_docs"]) / (1.0 + df)) + 1.0,
            fitted_ids=frozenset(raw["fitted_ids"]))
    class_vecs = [ClassVector(cv["label"], np.array(cv["vector"]))
                  for cv in data["class_vectors"]] or None
    return FeatureExtractor(
        keyword_sets=keyword_sets, tfidf=tfidf, doc_model=doc_model,
        class_vecs=class_vecs, departments=data["departments"],
        sentiment_lexicon=data["sentiment_lexicon"],
        stopwords=frozenset(data["stopwords"]) if data["stopwords"] else None,
        extra_fitted_ids=data["fitted_ids"])
