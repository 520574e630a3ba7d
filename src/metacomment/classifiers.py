"""Binary classifiers over feature matrices, plus confidence calibration.

Five classifier kinds: a linear SVM trained by dual coordinate descent,
a Gini decision tree, a bootstrap random forest, AdaBoost over depth-1
stumps, and k-nearest-neighbors. SVM and k-NN standardize features (fit on
training data only); the tree ensembles consume raw features. Calibration
fits a sigmoid over decision values so thresholded confidence scores are
available for the two-step classification.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .files import read_fields, read_json, write_json

logger = logging.getLogger(__name__)

MODEL_FORMAT = "metacomment-model/1"


class TrainingError(ValueError):
    """Invalid training input (empty matrix, single-class labels, ...)."""


class RegistryMismatch(ValueError):
    """Feature registry of the input does not match the model's registry."""


class _Checked:
    """Hyperparameters checked on construction, whether they come from code,
    --params, a grid file or a model file: int fields take ints >= 1 (seed
    >= 0), float fields numbers > 0, and a bool is neither."""

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            is_int = isinstance(value, int) and not isinstance(value, bool)
            if field.type == "int":
                low = 0 if field.name == "seed" else 1
                if not is_int or value < low:
                    raise TrainingError(f"{field.name} must be an integer >= {low}, "
                                        f"got {value!r}")
            elif not ((is_int or isinstance(value, float)) and value > 0):
                raise TrainingError(f"{field.name} must be positive, got {value!r}")


@dataclass(frozen=True)
class SvmHyperparams(_Checked):
    C: float = 0.5
    max_epochs: int = 1000
    tolerance: float = 1e-6
    bias_scale: float = 1.0


@dataclass(frozen=True)
class TreeHyperparams(_Checked):
    max_depth: int = 20
    min_leaf: int = 2


@dataclass(frozen=True)
class ForestHyperparams(_Checked):
    n_trees: int = 50
    max_depth: int = 20
    min_leaf: int = 2
    seed: int = 0
    jobs: int = 1


@dataclass(frozen=True)
class BoostHyperparams(_Checked):
    n_rounds: int = 50


@dataclass(frozen=True)
class KnnHyperparams(_Checked):
    k: int = 5


@dataclass(frozen=True)
class Standardizer:
    """Per-feature zero-mean unit-variance scaling, fit on training data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean, std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


# -- linear SVM (dual coordinate descent) ------------------------------------

class LinearSvm:
    """L2-regularized hinge-loss SVM; bias handled as a scaled constant column."""

    def __init__(self, w: np.ndarray, b: float, hyperparams: SvmHyperparams,
                 objective_history: Optional[List[float]] = None,
                 converged: bool = True):
        self.w = w
        self.b = b
        self.hyperparams = hyperparams
        self.objective_history = list(objective_history or [])
        self.converged = converged

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def primal_objective(self, X: np.ndarray, y_pm: np.ndarray) -> float:
        margins = 1.0 - y_pm * self.decision_values(X)
        hinge = np.maximum(margins, 0.0).sum()
        return 0.5 * float(self.w @ self.w) + self.hyperparams.C * float(hinge)


def _train_svm(X: np.ndarray, y: np.ndarray, hp: SvmHyperparams) -> LinearSvm:
    n, d = X.shape
    Xa = np.hstack([X, np.full((n, 1), hp.bias_scale)])
    yX = Xa * np.where(y == 1, 1.0, -1.0)[:, None]
    q_diag = np.einsum("ij,ij->i", Xa, Xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    history = []
    converged = False
    max_pg = math.inf
    C = hp.C
    for _ in range(hp.max_epochs):
        max_pg = 0.0
        for i in range(n):
            g = float(yX[i] @ w) - 1.0
            a = alpha[i]
            if a == 0.0:
                pg = min(g, 0.0)
            elif a == C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                max_pg = max(max_pg, abs(pg))
                new_a = min(max(a - g / q_diag[i], 0.0), C)
                if new_a != a:
                    w += (new_a - a) * yX[i]
                    alpha[i] = new_a
        # dual objective; each exact coordinate step keeps it non-increasing
        history.append(0.5 * float(w @ w) - float(alpha.sum()))
        if max_pg < hp.tolerance:
            converged = True
            break
    if not converged:
        logger.warning("linear SVM did not converge: C=%g, max_epochs=%d, "
                       "last max projected gradient %.3g (tolerance %g)",
                       C, hp.max_epochs, max_pg, hp.tolerance)
    return LinearSvm(w[:d].copy(), hp.bias_scale * float(w[d]), hp, history, converged)


# -- decision tree (Gini) -----------------------------------------------------

@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    p_pos: float = 0.5

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"p": self.p_pos}
        return {"f": self.feature, "t": self.threshold,
                "l": self.left.to_dict(), "r": self.right.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "_Node":
        if "p" in data:
            return cls(p_pos=data["p"])
        return cls(feature=data["f"], threshold=data["t"],
                   left=cls.from_dict(data["l"]), right=cls.from_dict(data["r"]))


def _weighted_gini(w, pos):
    """w times the Gini impurity of children of weight w, pos of it positive.
    A child whose weight rounds to 0 adds 0, with no division by it."""
    safe = np.where(w > 0, w, 1.0)
    return np.where(w > 0, w * (1.0 - (pos / safe) ** 2 - ((w - pos) / safe) ** 2), 0.0)


def _best_split(X, y, w, feature_indices, min_leaf):
    """Best (gain, feature, threshold) under weighted Gini; None if no split."""
    total_w = w.sum()
    total_pos = float(w[y == 1].sum())
    parent_gini = 1.0 - (total_pos / total_w) ** 2 - ((total_w - total_pos) / total_w) ** 2
    best = None
    for feat in feature_indices:
        values = X[:, feat]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sw = w[order]
        spos = np.where(y[order] == 1, sw, 0.0)
        cum_w = np.cumsum(sw)
        cum_pos = np.cumsum(spos)
        n = len(sv)
        idx = np.arange(n - 1)
        valid = (sv[:-1] < sv[1:]) & (idx + 1 >= min_leaf) & (n - idx - 1 >= min_leaf)
        if not valid.any():
            continue
        wl = cum_w[:-1][valid]
        pl = cum_pos[:-1][valid]
        child = (_weighted_gini(wl, pl) + _weighted_gini(total_w - wl, total_pos - pl)) \
            / total_w
        gains = parent_gini - child
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        # zero-gain splits are allowed (the children may become splittable);
        # ties keep the first feature/threshold encountered
        if best is None or gain > best[0] + 1e-15:
            split_at = idx[valid][pos]
            threshold = 0.5 * (sv[split_at] + sv[split_at + 1])
            best = (gain, int(feat), float(threshold))
    return best


def _grow_tree(X, y, w, depth, hp: TreeHyperparams, max_features: Optional[int],
               rng: Optional[np.random.Generator]) -> _Node:
    total_w = w.sum()
    p_pos = float(w[y == 1].sum() / total_w)
    if depth >= hp.max_depth or len(y) < 2 * hp.min_leaf or p_pos in (0.0, 1.0):
        return _Node(p_pos=p_pos)
    n_features = X.shape[1]
    if max_features is not None and max_features < n_features:
        feature_indices = np.sort(rng.choice(n_features, size=max_features, replace=False))
    else:
        feature_indices = np.arange(n_features)
    best = _best_split(X, y, w, feature_indices, hp.min_leaf)
    if best is None:
        return _Node(p_pos=p_pos)
    _, feat, threshold = best
    mask = X[:, feat] <= threshold
    left = _grow_tree(X[mask], y[mask], w[mask], depth + 1, hp, max_features, rng)
    right = _grow_tree(X[~mask], y[~mask], w[~mask], depth + 1, hp, max_features, rng)
    return _Node(feature=feat, threshold=threshold, left=left, right=right, p_pos=p_pos)


class DecisionTree:
    def __init__(self, root: _Node, hyperparams: TreeHyperparams):
        self.root = root
        self.hyperparams = hyperparams

    def leaf_p_pos(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.p_pos
        return out

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return 2.0 * self.leaf_p_pos(X) - 1.0


def _train_tree(X, y, hp: TreeHyperparams, sample_weight=None,
                max_features=None, rng=None) -> DecisionTree:
    w = np.full(len(y), 1.0 / len(y)) if sample_weight is None else sample_weight
    root = _grow_tree(X, y, w, 0, hp, max_features, rng)
    return DecisionTree(root, hp)


class RandomForest:
    def __init__(self, trees: List[DecisionTree], hyperparams: ForestHyperparams):
        self.trees = trees
        self.hyperparams = hyperparams

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += np.where(tree.leaf_p_pos(X) >= 0.5, 1.0, -1.0)
        return votes / len(self.trees)


def _train_forest(X, y, hp: ForestHyperparams) -> RandomForest:
    n = len(y)
    max_features = max(1, int(round(math.sqrt(X.shape[1]))))
    seeds = np.random.SeedSequence(hp.seed).spawn(hp.n_trees)
    tree_hp = TreeHyperparams(max_depth=hp.max_depth, min_leaf=hp.min_leaf)

    def build(i):
        rng = np.random.default_rng(seeds[i])
        idx = rng.integers(0, n, size=n)
        return _train_tree(X[idx], y[idx], tree_hp, max_features=max_features, rng=rng)

    if hp.jobs > 1:
        with ThreadPoolExecutor(max_workers=hp.jobs) as pool:
            trees = list(pool.map(build, range(hp.n_trees)))
    else:
        trees = [build(i) for i in range(hp.n_trees)]
    return RandomForest(trees, hp)


class AdaBoost:
    """SAMME over depth-1 stumps; decision value is the normalized vote sum."""

    def __init__(self, stumps: List[Tuple[float, DecisionTree]],
                 hyperparams: BoostHyperparams):
        self.stumps = stumps
        self.hyperparams = hyperparams

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        total = sum(alpha for alpha, _ in self.stumps)
        votes = np.zeros(len(X))
        for alpha, stump in self.stumps:
            votes += alpha * np.where(stump.leaf_p_pos(X) >= 0.5, 1.0, -1.0)
        return votes / total if total > 0 else votes


def _train_adaboost(X, y, hp: BoostHyperparams) -> AdaBoost:
    n = len(y)
    w = np.full(n, 1.0 / n)
    stump_hp = TreeHyperparams(max_depth=1, min_leaf=1)
    stumps = []
    for _ in range(hp.n_rounds):
        stump = _train_tree(X, y, stump_hp, sample_weight=w)
        pred = (stump.leaf_p_pos(X) >= 0.5).astype(int)
        err = float(w[pred != y].sum())
        if err >= 0.5:
            if not stumps:
                stumps.append((1.0, stump))
            break
        err = max(err, 1e-10)
        alpha = math.log((1.0 - err) / err)
        stumps.append((alpha, stump))
        if err <= 1e-10:
            break
        w = w * np.exp(alpha * (pred != y))
        w /= w.sum()
    return AdaBoost(stumps, hp)


class KNearest:
    def __init__(self, X: np.ndarray, y: np.ndarray, hyperparams: KnnHyperparams):
        self.X = X
        self.y = np.array(y)
        self.hyperparams = hyperparams

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        k = min(self.hyperparams.k, len(self.y))
        out = np.empty(len(X))
        for i, row in enumerate(X):
            dist = np.linalg.norm(self.X - row, axis=1)
            nearest = np.argsort(dist, kind="stable")[:k]
            out[i] = 2.0 * float(self.y[nearest].mean()) - 1.0
        return out


# -- unified training / prediction -------------------------------------------

# kind -> (hyperparameter dataclass, trainer(X, y, hp), reads standardized features)
_KIND_TABLE = {
    "linear_svm": (SvmHyperparams, _train_svm, True),
    "decision_tree": (TreeHyperparams, _train_tree, False),
    "random_forest": (ForestHyperparams, _train_forest, False),
    "adaboost": (BoostHyperparams, _train_adaboost, False),
    "knn": (KnnHyperparams, KNearest, True),
}
KINDS = tuple(_KIND_TABLE)


def _kind(kind: str) -> tuple:
    if kind not in KINDS:
        raise TrainingError(f"unknown classifier kind {kind!r}")
    return _KIND_TABLE[kind]


def hyperparam_fields(kind: str) -> frozenset:
    return frozenset(f.name for f in fields(_kind(kind)[0]))


@dataclass
class TrainedModel:
    """A classifier with its scaling, optional calibration, and registry tie.

    Inputs are matrices whose columns follow ``registry``; ``registry_hash``
    names the feature extractor that produced them. Both are stored metadata
    that load_model and the two-step gate check, not used to build inputs.
    A decision value > 0 predicts the positive class; exactly 0 resolves to
    positive by convention.
    """

    kind: str
    inner: object
    hyperparams: object
    standardizer: Optional[Standardizer] = None
    registry: Optional[tuple] = None
    registry_hash: Optional[str] = None
    calibration: Optional[tuple] = None

    def _matrix(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        return X

    def decision_values(self, X) -> np.ndarray:
        return self.inner.decision_values(self._matrix(X))

    def predict_many(self, X) -> np.ndarray:
        return (self.decision_values(X) >= 0.0).astype(int)

    def predict(self, x) -> int:
        return int(self.predict_many(x)[0])

    def confidences(self, X) -> np.ndarray:
        if self.calibration is None:
            raise TrainingError("model is not calibrated; call calibrate() first")
        a, b = self.calibration
        f = self.decision_values(X)
        return 1.0 / (1.0 + np.exp(np.clip(a * f + b, -500, 500)))

    def confidence(self, x) -> float:
        return float(self.confidences(x)[0])


def _coerce_params(kind: str, params) -> object:
    param_type = _kind(kind)[0]
    if params is None:
        return param_type()
    if isinstance(params, param_type):
        return params
    if isinstance(params, dict):
        unknown = sorted(set(params) - hyperparam_fields(kind))
        if unknown:
            raise TrainingError(
                f"unknown {kind} hyperparameter {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(hyperparam_fields(kind)))}")
        return param_type(**params)
    raise TrainingError(f"invalid params for {kind}: {params!r}")


def train(kind: str, X: np.ndarray, y: Sequence[int], params=None,
          standardize: Optional[bool] = None,
          registry: Optional[Sequence[str]] = None,
          registry_hash: Optional[str] = None) -> TrainedModel:
    """Train one binary classifier on a feature matrix with labels in {0,1}.

    standardize defaults to whether the kind reads standardized features.
    """
    _, fit, standardized = _kind(kind)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) == 0:
        raise TrainingError("X must be a non-empty 2D matrix")
    if len(X) != len(y):
        raise TrainingError("X and y length mismatch")
    if len(np.unique(y)) < 2:
        raise TrainingError("training labels must contain both classes")
    hp = _coerce_params(kind, params)
    if standardize is None:
        standardize = standardized
    scaler = Standardizer.fit(X) if standardize else None
    Xs = scaler.transform(X) if scaler else X
    return TrainedModel(kind=kind, inner=fit(Xs, y, hp), hyperparams=hp,
                        standardizer=scaler, registry=tuple(registry) if registry else None,
                        registry_hash=registry_hash)


# -- Platt-style sigmoid calibration ------------------------------------------

def _platt_fit(f: np.ndarray, y: np.ndarray, max_iter: int = 200) -> Tuple[float, float]:
    """Fit p = 1 / (1 + exp(a*f + b)) by regularized maximum likelihood."""
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1, hi, lo)
    a = 0.0
    b = math.log((n_neg + 1.0) / (n_pos + 1.0))
    sigma = 1e-12

    def nll(a_, b_):
        z = a_ * f + b_
        # -sum t*log(p) + (1-t)*log(1-p) with p = sigmoid(-z), stably:
        return float(np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)),
                                     (t - 1.0) * z + np.log1p(np.exp(z)))))

    value = nll(a, b)
    for _ in range(max_iter):
        z = a * f + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)),
                     1.0 / (1.0 + np.exp(z)))
        q = p * (1.0 - p)
        g1 = float(np.sum((t - p) * f))
        g2 = float(np.sum(t - p))
        if abs(g1) < 1e-10 and abs(g2) < 1e-10:
            break
        h11 = float(np.sum(q * f * f)) + sigma
        h22 = float(np.sum(q)) + sigma
        h12 = float(np.sum(q * f))
        det = h11 * h22 - h12 * h12
        da = -(h22 * g1 - h12 * g2) / det
        db = -(h11 * g2 - h12 * g1) / det
        step = 1.0
        while step >= 1e-10:
            new_value = nll(a + step * da, b + step * db)
            if new_value < value + 1e-12:
                a, b = a + step * da, b + step * db
                value = new_value
                break
            step /= 2.0
        else:
            break
    return a, b


def calibrate(model: TrainedModel, X_holdout, y_holdout: Sequence[int]) -> TrainedModel:
    """Return a copy of the model with a fitted confidence sigmoid.

    The holdout must contain both classes. Confidence is monotone
    non-decreasing in the decision value; a degenerate anti-correlated fit
    is clamped to a constant.
    """
    y = np.asarray(y_holdout, dtype=int)
    if len(np.unique(y)) < 2:
        raise TrainingError("calibration holdout must contain both classes")
    f = model.decision_values(X_holdout)
    a, b = _platt_fit(f, y)
    if a > 0.0:
        logger.warning("calibration produced a non-monotone sigmoid (a=%.4f); "
                       "clamping to the holdout base rate", a)
        rate = float((y == 1).mean())
        rate = min(max(rate, 1e-6), 1.0 - 1e-6)
        a, b = 0.0, math.log((1.0 - rate) / rate)
    return replace(model, calibration=(a, b))


# -- persistence --------------------------------------------------------------

def _payload(model: TrainedModel) -> dict:
    inner = model.inner
    if model.kind == "linear_svm":
        return {"w": inner.w.tolist(), "b": inner.b,
                "objective_history": inner.objective_history,
                "converged": inner.converged}
    if model.kind == "decision_tree":
        return {"tree": inner.root.to_dict()}
    if model.kind == "random_forest":
        return {"trees": [t.root.to_dict() for t in inner.trees]}
    if model.kind == "adaboost":
        return {"stumps": [[alpha, s.root.to_dict()] for alpha, s in inner.stumps]}
    return {"X": inner.X.tolist(), "y": inner.y.tolist()}


def _restore(kind: str, payload: dict, hp) -> object:
    if kind == "linear_svm":
        return LinearSvm(np.array(payload["w"]), payload["b"], hp,
                         payload["objective_history"], payload["converged"])
    if kind == "decision_tree":
        return DecisionTree(_Node.from_dict(payload["tree"]), hp)
    if kind == "random_forest":
        sub_hp = TreeHyperparams(max_depth=hp.max_depth, min_leaf=hp.min_leaf)
        return RandomForest([DecisionTree(_Node.from_dict(t), sub_hp)
                             for t in payload["trees"]], hp)
    if kind == "adaboost":
        stump_hp = TreeHyperparams(max_depth=1, min_leaf=1)
        return AdaBoost([(alpha, DecisionTree(_Node.from_dict(t), stump_hp))
                         for alpha, t in payload["stumps"]], hp)
    return KNearest(np.array(payload["X"]), payload["y"], hp)


def save_model(model: TrainedModel, path) -> None:
    data = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "hyperparams": asdict(model.hyperparams),
        "registry": list(model.registry) if model.registry else None,
        "registry_hash": model.registry_hash,
        "standardizer": {"mean": model.standardizer.mean.tolist(),
                         "std": model.standardizer.std.tolist()}
        if model.standardizer else None,
        "calibration": list(model.calibration) if model.calibration else None,
        "payload": _payload(model),
    }
    write_json(path, data)


def load_model(path, registry_hash: Optional[str] = None) -> TrainedModel:
    """Load a model container; rejects a registry-hash mismatch when given."""
    data = read_json(path, MODEL_FORMAT)
    kind = data["kind"]
    try:
        hp = read_fields(_kind(kind)[0], data["hyperparams"])
    except TrainingError as exc:
        raise TrainingError(f"{path}: {exc}") from None
    if registry_hash is not None and data["registry_hash"] != registry_hash:
        raise RegistryMismatch(
            f"{path}: model registry hash {data['registry_hash']!r} does not "
            f"match expected {registry_hash!r}")
    std = data["standardizer"]
    scaler = Standardizer(np.array(std["mean"]), np.array(std["std"])) if std else None
    return TrainedModel(
        kind=kind, inner=_restore(kind, data["payload"], hp), hyperparams=hp,
        standardizer=scaler,
        registry=tuple(data["registry"]) if data["registry"] else None,
        registry_hash=data["registry_hash"],
        calibration=tuple(data["calibration"]) if data["calibration"] else None)
