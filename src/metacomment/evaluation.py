"""Metrics, stratified cross-validation, grid search, and the two-step
meta/addressee classification.

Precision is weighted over recall throughout (F_beta with beta=0.5 by
default): an analyst reading flagged comments cares more about false
positives than about missed ones.
"""

from __future__ import annotations

import csv
import itertools
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .classifiers import RegistryMismatch, TrainedModel
from .corpus import ADDRESSEE_LABELS, LabeledDataset
from .seeds import derive_seed

logger = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Invalid evaluation setup (class too small for k, bad inputs, ...)."""


class LeakError(RuntimeError):
    """A transformer saw test-fold comments during fitting."""


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean of precision and recall; 0 when both are 0."""
    denominator = beta * beta * precision + recall
    if denominator == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denominator


@dataclass(frozen=True)
class Metrics:
    """Binary classification counts with precision/recall/F_beta."""

    tp: int
    fp: int
    fn: int
    tn: int
    beta: float
    precision: float
    recall: float
    f_beta: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int,
                    beta: float = 0.5) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return cls(tp=tp, fp=fp, fn=fn, tn=tn, beta=beta, precision=precision,
                   recall=recall, f_beta=f_beta(precision, recall, beta))

    @classmethod
    def from_predictions(cls, y_true, y_pred, beta: float = 0.5) -> "Metrics":
        y_true = np.asarray(y_true, dtype=int)
        y_pred = np.asarray(y_pred, dtype=int)
        return cls.from_counts(
            tp=int(np.sum((y_true == 1) & (y_pred == 1))),
            fp=int(np.sum((y_true == 0) & (y_pred == 1))),
            fn=int(np.sum((y_true == 1) & (y_pred == 0))),
            tn=int(np.sum((y_true == 0) & (y_pred == 0))),
            beta=beta)


@dataclass(frozen=True)
class MeanMetrics:
    """Unweighted fold means; the canonical cross-validation aggregate."""

    precision: float
    recall: float
    f_beta: float
    beta: float


def check_class_sizes(y, k: int, needs: str) -> None:
    """EvaluationError unless the 0/1 target y has k examples of each class."""
    for n, kind in zip(np.bincount(y, minlength=2)[1::-1].tolist(), ("positive", "negative")):
        if n < k:
            raise EvaluationError(f"{n} {kind} examples; {needs} needs at least {k} of each class")


@contextmanager
def labelled(label: str):
    """Prefixes label to the message of an EvaluationError raised inside."""
    try:
        yield
    except EvaluationError as exc:
        raise EvaluationError(f"{label}: {exc}") from None


def stratified_k_fold(y, k: int, seed: int = 0) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified folds: per-class round-robin after a shuffle.

    Per-fold class counts deviate at most 1 from exact proportionality.
    Raises when a class has fewer than k members.
    """
    y = np.asarray(y)
    if k < 2:
        raise EvaluationError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_members: List[List[int]] = [[] for _ in range(k)]
    for offset, cls in enumerate(np.unique(y)):
        cls_idx = np.flatnonzero(y == cls)
        if len(cls_idx) < k:
            raise EvaluationError(f"class {cls.item()!r} has {len(cls_idx)} members, "
                                  f"fewer than k={k}")
        for i, idx in enumerate(rng.permutation(cls_idx)):
            fold_members[(i + offset) % k].append(int(idx))
    all_idx = np.arange(len(y))
    folds = []
    for members in fold_members:
        test = np.array(sorted(members), dtype=int)
        mask = np.ones(len(y), dtype=bool)
        mask[test] = False
        folds.append((all_idx[mask], test))
    return folds


def _item_id(item) -> Optional[str]:
    if isinstance(item, tuple) and item:
        item = item[0]
    return getattr(item, "id", None)


def _check_no_leak(pipeline, test_items) -> None:
    seen = pipeline.fitted_ids() if hasattr(pipeline, "fitted_ids") else None
    leaked = set(seen or ()) & {_item_id(item) for item in test_items}
    if leaked:
        raise LeakError(f"transformer was fit on test-fold comments: "
                        f"{sorted(leaked)[:5]}")


@dataclass(frozen=True)
class CvResult:
    fold_metrics: tuple
    mean: MeanMetrics
    pooled: Metrics
    fold_assignment: tuple  # fold index per sample
    seed: int


def cross_validate(pipeline_factory: Callable, items: Sequence, y,
                   k: int = 10, seed: int = 0, beta: float = 0.5) -> CvResult:
    """Stratified k-fold evaluation of a trainable+predictable pipeline.

    A fresh pipeline, pipeline_factory(fold_seed), is built per fold and fit
    on the train fold only; a pipeline exposing fitted_ids() is checked
    against test-fold leakage.
    """
    y = np.asarray(y, dtype=int)
    if len(items) != len(y):
        raise EvaluationError("items and labels length mismatch")
    check_class_sizes(y, k, f"{k}-fold cross-validation")
    folds = stratified_k_fold(y, k, seed)

    def run_fold(fold_index: int) -> Metrics:
        train_idx, test_idx = folds[fold_index]
        train_items = [items[i] for i in train_idx]
        test_items = [items[i] for i in test_idx]
        pipeline = pipeline_factory(derive_seed(seed, f"fold:{fold_index}"))
        try:
            pipeline.fit(train_items, y[train_idx])
        except Exception as exc:
            raise EvaluationError(f"fold {fold_index}: {exc}") from exc
        _check_no_leak(pipeline, test_items)
        predictions = np.asarray(pipeline.predict(test_items), dtype=int)
        return Metrics.from_predictions(y[test_idx], predictions, beta)

    fold_metrics = [run_fold(i) for i in range(k)]

    mean = MeanMetrics(
        precision=float(np.mean([m.precision for m in fold_metrics])),
        recall=float(np.mean([m.recall for m in fold_metrics])),
        f_beta=float(np.mean([m.f_beta for m in fold_metrics])),
        beta=beta)
    pooled = Metrics.from_counts(
        tp=sum(m.tp for m in fold_metrics), fp=sum(m.fp for m in fold_metrics),
        fn=sum(m.fn for m in fold_metrics), tn=sum(m.tn for m in fold_metrics),
        beta=beta)
    assignment = np.empty(len(y), dtype=int)
    for fold_index, (_, test_idx) in enumerate(folds):
        assignment[test_idx] = fold_index
    return CvResult(fold_metrics=tuple(fold_metrics), mean=mean, pooled=pooled,
                    fold_assignment=tuple(int(i) for i in assignment), seed=seed)


# -- grid search ---------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid: named value lists plus feature-count options."""

    params: dict
    feature_counts: tuple = ("all",)
    beta: float = 0.5

    def combinations(self) -> List[dict]:
        names = sorted(self.params)
        combos = []
        for feature_count in self.feature_counts:
            for values in itertools.product(*(self.params[n] for n in names)):
                combo = dict(zip(names, values))
                combo["select_k"] = feature_count
                combos.append(combo)
        return combos


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict
    best_score: float
    best_result: CvResult
    rows: tuple  # one dict per (configuration, fold) plus aggregate rows
    beta: float


def grid_search(pipeline_factory: Callable, grid: GridSpec, items: Sequence, y,
                k: int = 3, seed: int = 0) -> GridSearchResult:
    """Exhaustive grid evaluation, scored by mean F_beta over k folds.

    Every configuration gets the folds and fold seeds that cross_validate
    draws from seed, and ties keep the first in enumeration order. The factory
    is called as factory(params_dict, seed).
    """
    combos = grid.combinations()
    if not combos:
        raise EvaluationError("empty grid")
    rows: List[dict] = []
    best: Optional[Tuple[float, int, dict, CvResult]] = None

    for index, combo in enumerate(combos):
        result = cross_validate(lambda fold_seed: pipeline_factory(combo, fold_seed),
                                items, y, k, seed, grid.beta)
        for fold_index, metrics in enumerate(result.fold_metrics):
            rows.append({"config": index, **combo, "fold": fold_index,
                         "precision": metrics.precision, "recall": metrics.recall,
                         "f_beta": metrics.f_beta})
        rows.append({"config": index, **combo, "fold": "mean",
                     "precision": result.mean.precision,
                     "recall": result.mean.recall,
                     "f_beta": result.mean.f_beta})
        if best is None or result.mean.f_beta > best[0]:
            best = (result.mean.f_beta, index, combo, result)

    score, _, params, cv_result = best
    logger.info("grid search best: %s (F_%.1f=%.4f)", params, grid.beta, score)
    return GridSearchResult(best_params=params, best_score=score,
                            best_result=cv_result, rows=tuple(rows), beta=grid.beta)


def write_score_table(rows: Sequence[dict], path) -> None:
    """Grid/CV score table as CSV, one row per (configuration, fold)."""
    if not rows:
        raise EvaluationError("no rows to write")
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


# -- two-step classification ---------------------------------------------------

@dataclass(frozen=True)
class TwoStepResult:
    is_meta: bool
    addressees: tuple
    confidences: dict


def two_step_classify(meta_model: TrainedModel, addressee_models: Dict[str, TrainedModel],
                      x, threshold: float = 0.8) -> TwoStepResult:
    """Meta gate first, then one-vs-all addressee classifiers.

    A non-meta step-1 prediction yields the empty set regardless of the
    step-2 models. An addressee label is assigned when its calibrated
    confidence is strictly greater than the threshold.
    """
    hashes = {m.registry_hash for m in [meta_model, *addressee_models.values()]
              if m.registry_hash is not None}
    if len(hashes) > 1:
        raise RegistryMismatch(f"models trained over different registries: {hashes}")
    if meta_model.predict(x) == 0:
        return TwoStepResult(is_meta=False, addressees=(), confidences={})
    confidences = {label: model.confidence(x)
                   for label, model in addressee_models.items()}
    addressees = tuple(label for label in ADDRESSEE_LABELS
                       if confidences.get(label, 0.0) > threshold)
    return TwoStepResult(is_meta=True, addressees=addressees, confidences=confidences)


# -- cross-dataset evaluation ----------------------------------------------------

def binary_labels(ds: Iterable, target: str) -> np.ndarray:
    """One-vs-all labels of a LabeledDataset or a list of its (comment,
    labels) entries: 1 when the entry carries the target label."""
    return np.array([1 if target in labels else 0 for _, labels in ds], dtype=int)


def cross_dataset_eval(train_ds: LabeledDataset, test_ds: LabeledDataset,
                       pipeline_factory: Callable,
                       classes: Sequence[str] = ("Meta",) + ADDRESSEE_LABELS,
                       beta: float = 0.5, seed: int = 0) -> Dict[str, Metrics]:
    """Train per-class pipelines on one dataset, evaluate on the other.

    All transformers are fit on the training dataset only; swapping the
    dataset arguments swaps the roles exactly. A pipeline exposing
    fitted_ids() is rejected before it is fit when the datasets share an id.
    """
    shared_ids = sorted(train_ds.ids() & test_ds.ids())
    results = {}
    train_items = list(train_ds)
    test_items = list(test_ds)
    for index, cls in enumerate(classes):
        y_train = binary_labels(train_ds, cls)
        y_test = binary_labels(test_ds, cls)
        if len(np.unique(y_train)) < 2:
            raise EvaluationError(f"class {cls!r} missing from training dataset")
        pipeline = pipeline_factory(derive_seed(seed, f"class:{index}"))
        if shared_ids and hasattr(pipeline, "fitted_ids"):
            raise EvaluationError(f"{len(shared_ids)} comment ids are in both the "
                                  f"training and the test dataset: {shared_ids[:5]}")
        pipeline.fit(train_items, y_train)
        _check_no_leak(pipeline, test_items)
        predictions = np.asarray(pipeline.predict(test_items), dtype=int)
        results[cls] = Metrics.from_predictions(y_test, predictions, beta)
    return results
