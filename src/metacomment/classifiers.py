"""Binary classifiers over feature matrices, plus confidence calibration.

Five classifier kinds: a linear SVM trained by dual coordinate descent,
a Gini decision tree, a bootstrap random forest, AdaBoost over depth-1
stumps, and k-nearest-neighbors. The forest and AdaBoost are one class,
TreeVote: a weighted sign vote of decision trees, weight 1 per forest tree
and the SAMME alpha per stump. SVM and k-NN standardize features (fit on
training data only); the tree ensembles consume raw features. Calibration
fits a sigmoid over decision values so thresholded confidence scores are
available for the two-step classification.

Inputs are CsrMatrix rows (sparse.py); train and decision_values convert a
dense array with one as_csr call. The SVM reads the non-zeros alone, with
the standardization folded into its weights, while the tree kinds and k-NN
densify their input with toarray().
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .files import (encode_floats, float_array, json_typed, read_fields, read_json,
                    write_json)
from .sparse import CsrMatrix, as_csr

logger = logging.getLogger(__name__)

MODEL_FORMAT = "metacomment-model/2"
MODEL_FORMAT_V1 = "metacomment-model/1"  # arrays as JSON lists; still read


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
    def fit(cls, X) -> "Standardizer":
        """Column moments from the non-zeros of X, a CsrMatrix or a dense
        array. The mean sums each column in row order, as the dense
        X.mean(axis=0) does; the variance adds the column's zeros,
        (n - nnz_j) * mean_j^2, to the centred squares of its non-zeros."""
        X = as_csr(X)
        n, d = X.shape
        mean = np.bincount(X.indices, X.data, minlength=d) / n
        centred = X.data - mean[X.indices]
        zeros = n - np.bincount(X.indices, minlength=d)
        std = np.sqrt((np.bincount(X.indices, centred * centred, minlength=d)
                       + zeros * mean * mean) / n)
        return cls(mean, np.where(std == 0.0, 1.0, std))

    def transform(self, X: np.ndarray) -> np.ndarray:
        """The scaled rows of the dense array X."""
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

    def decision_values(self, X) -> np.ndarray:
        """X.w + b for a CsrMatrix or a dense array X."""
        return X @ self.w + self.b


_BLOCK_ROWS = 16  # consecutive rows stepped between two reads of the weights


def _svm_blocks(X: CsrMatrix, rows: np.ndarray, values: np.ndarray, y_pm: np.ndarray,
                s: np.ndarray, q: np.ndarray, offset: float) -> list:
    """The blocks of _BLOCK_ROWS consecutive rows of X, given its row ids and
    standardized values, each as (block row of each non-zero, its column,
    its value, block rows). Block row k is (row index, label +-1, s, q,
    kernel), where kernel[j] for each earlier block row j is the inner
    product of the two standardized rows with their bias column,
    values_k.values_j - s_k - s_j + offset (offset = m.m + bias^2), taken
    over a dense array of the block's distinct columns alone."""
    n = X.shape[0]
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        lo, hi = X.indptr[start], X.indptr[stop]
        local, cols, vals = rows[lo:hi] - start, X.indices[lo:hi], values[lo:hi]
        distinct, at = np.unique(cols, return_inverse=True)
        dense = np.zeros((stop - start, len(distinct)))
        dense[local, at] = vals
        sb = s[start:stop]
        kernel = (dense @ dense.T - sb[:, None] - sb + offset).tolist()
        block_rows = list(zip(range(start, stop), y_pm[start:stop].tolist(), sb.tolist(),
                              q[start:stop].tolist(), [row[:k] for k, row in enumerate(kernel)]))
        blocks.append((local, cols, vals, block_rows))
    return blocks


def _train_svm(X: CsrMatrix, y: np.ndarray, hp: SvmHyperparams,
               scaler: Optional[Standardizer]) -> LinearSvm:
    """Dual coordinate descent (Hsieh et al. 2008) over each row's non-zeros,
    in blocks of _BLOCK_ROWS consecutive rows.

    The solver reads the standardized rows x/std - m, m = mean/std (m = 0
    and std = 1 without a scaler), without building them: it holds the
    weights as w = u - c*m, so a step moves u on the row's non-zero columns
    and three scalars (c, u.m and the bias weight). A block reads u once,
    for its rows' products with it; a step of an earlier row j of the block
    reaches row k's gradient through the block kernel K[k][j], and the
    block's steps reach u in one scatter at its end. These are the iterates
    of stepping row by row, up to rounding. The returned weights are in
    standardized coordinates, as the model file stores them.
    """
    n, d = X.shape
    std, m = (np.ones(d), np.zeros(d)) if scaler is None else \
        (scaler.std, scaler.mean / scaler.std)
    rows, cols = X.row_ids(), X.indices
    values = X.data / std[cols]
    bias, mm = hp.bias_scale, float(m @ m)
    s = np.bincount(rows, weights=values * m[cols], minlength=n)
    q = np.bincount(rows, weights=values * values, minlength=n) - 2.0 * s + mm + bias * bias
    blocks = _svm_blocks(X, rows, values, np.where(y == 1, 1.0, -1.0), s, q, mm + bias * bias)
    del rows
    alpha = [0.0] * n
    u = np.zeros(d)
    c = um = wb = 0.0  # w = u - c*m, um = u.m, wb: the bias column's weight
    history = []
    converged = False
    max_pg = math.inf
    C = hp.C
    for _ in range(hp.max_epochs):
        max_pg = 0.0
        for local, bcols, bvals, block_rows in blocks:
            # c, um and wb stay at their block-start values until the block ends
            p = np.bincount(local, weights=u[bcols] * bvals, minlength=len(block_rows))
            shift = c * mm - um + wb * bias
            deltas = []  # each block row's alpha change times its label
            for pk, (i, yi, si, qi, kernel) in zip(p.tolist(), block_rows):
                g = yi * (pk - c * si + shift + sum(map(mul, deltas, kernel))) - 1.0
                # min and max written as comparisons, which cost less than the calls
                a = alpha[i]
                if a == 0.0:
                    pg = 0.0 if g > 0.0 else g
                elif a == C:
                    pg = 0.0 if g < 0.0 else g
                else:
                    pg = g
                step = 0.0
                if pg != 0.0:
                    if abs(pg) > max_pg:
                        max_pg = abs(pg)
                    new_a = a - g / qi
                    if new_a < 0.0:
                        new_a = 0.0
                    elif new_a > C:
                        new_a = C
                    if new_a != a:
                        step = (new_a - a) * yi
                        alpha[i] = new_a
                deltas.append(step)
            if any(deltas):
                for (_, _, si, _, _), step in zip(block_rows, deltas):
                    if step:
                        um += step * si
                        c += step
                        wb += step * bias
                np.add.at(u, bcols, np.array(deltas)[local] * bvals)
        # dual objective; each exact coordinate step keeps it non-increasing
        w = np.append(u - c * m, wb)
        history.append(0.5 * float(w @ w) - float(np.sum(alpha)))
        if max_pg < hp.tolerance:
            converged = True
            break
    if not converged:
        logger.warning("linear SVM did not converge: C=%g, max_epochs=%d, "
                       "last max projected gradient %.3g (tolerance %g)",
                       C, hp.max_epochs, max_pg, hp.tolerance)
    logger.debug("linear SVM: %d rows, %d epochs, dual objective %.6g, converged %s",
                 n, len(history), history[-1], converged)
    return LinearSvm(u - c * m, bias * wb, hp, history, converged)


# -- decision tree (Gini) -----------------------------------------------------

class _BadPayload(ValueError):
    """A stored value that load_model rejects; the message names its key and
    load_model adds the file."""


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
    def from_dict(cls, data: dict, key: str, width: Optional[int]) -> "_Node":
        """The tree stored at key. TypeError names the key of a node that is
        not an object, and _BadPayload that of a node whose feature is not an
        int in [0, width), or whose threshold or leaf p is not a finite
        number."""
        if "p" in json_typed(key, data, dict):
            if not _finite(data["p"]):
                raise _BadPayload(f"'{key}.p' must be a finite number, got {data['p']!r}")
            return cls(p_pos=data["p"])
        f = data["f"]
        if type(f) is not int or f < 0 or width is not None and f >= width:
            below = "" if width is None else f" below {width}"
            raise _BadPayload(f"'{key}.f' must be a feature index, an int from 0{below}, "
                              f"got {f!r}")
        if not _finite(data["t"]):
            raise _BadPayload(f"'{key}.t' must be a finite number, got {data['t']!r}")
        return cls(feature=f, threshold=data["t"],
                   left=cls.from_dict(data["l"], key + ".l", width),
                   right=cls.from_dict(data["r"], key + ".r", width))


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
    """Reads dense rows: train and decision_values densify CsrMatrix input."""

    def __init__(self, root: _Node):
        self.root = root

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
    return DecisionTree(_grow_tree(X, y, w, 0, hp, max_features, rng))


class TreeVote:
    """The weighted sign vote of (weight, DecisionTree) pairs, weight 1.0
    for each tree of a random forest and the SAMME alpha for each AdaBoost
    stump: sum w*sign(2p - 1) / sum w, or the vote sum when the weights do
    not sum above 0.

    Reads dense rows: train and decision_values densify CsrMatrix input."""

    def __init__(self, members: List[Tuple[float, DecisionTree]]):
        self.members = members

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        total = sum(weight for weight, _ in self.members)
        votes = np.zeros(len(X))
        for weight, tree in self.members:
            votes += weight * np.where(tree.leaf_p_pos(X) >= 0.5, 1.0, -1.0)
        return votes / total if total > 0 else votes


def _train_forest(X, y, hp: ForestHyperparams) -> TreeVote:
    n = len(y)
    max_features = max(1, int(round(math.sqrt(X.shape[1]))))
    seeds = np.random.SeedSequence(hp.seed).spawn(hp.n_trees)
    tree_hp = TreeHyperparams(max_depth=hp.max_depth, min_leaf=hp.min_leaf)

    def build(i):
        rng = np.random.default_rng(seeds[i])
        idx = rng.integers(0, n, size=n)
        return 1.0, _train_tree(X[idx], y[idx], tree_hp, max_features=max_features, rng=rng)

    if hp.jobs > 1:
        with ThreadPoolExecutor(max_workers=hp.jobs) as pool:
            return TreeVote(list(pool.map(build, range(hp.n_trees))))
    return TreeVote([build(i) for i in range(hp.n_trees)])


def _train_adaboost(X, y, hp: BoostHyperparams) -> TreeVote:
    """SAMME over depth-1 stumps."""
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
    return TreeVote(stumps)


class KNearest:
    """Reads dense rows: train and decision_values densify CsrMatrix input.
    The model keeps, and its file stores, the dense training rows."""

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

def _dense(X: CsrMatrix, scaler: Optional[Standardizer]) -> np.ndarray:
    """The dense rows of X, scaled by scaler when there is one."""
    X = X.toarray()
    return scaler.transform(X) if scaler else X


def _densified(fit):
    """fit(X, y, hp) over dense rows as a trainer of CsrMatrix rows."""
    return lambda X, y, hp, scaler: fit(_dense(X, scaler), y, hp)


# kind -> (hyperparameter dataclass, trainer(X, y, hp, scaler or None),
#          reads standardized features)
_KIND_TABLE = {
    "linear_svm": (SvmHyperparams, _train_svm, True),
    "decision_tree": (TreeHyperparams, _densified(_train_tree), False),
    "random_forest": (ForestHyperparams, _densified(_train_forest), False),
    "adaboost": (BoostHyperparams, _densified(_train_adaboost), False),
    "knn": (KnnHyperparams, _densified(KNearest), True),
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

    Inputs are CsrMatrix rows or dense arrays whose columns follow
    ``registry``; ``registry_hash`` names the feature extractor that
    produced them. Both are stored metadata that load_model and the two-step
    gate check, not used to build inputs.
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

    @cached_property
    def _unscaled_svm(self) -> LinearSvm:
        """The linear SVM over unscaled columns: weights w/std and bias
        b - mean.(w/std), so that it never builds the scaled rows."""
        svm, scaler = self.inner, self.standardizer
        if scaler is None:
            return svm
        w = svm.w / scaler.std
        return LinearSvm(w, svm.b - float(scaler.mean @ w), svm.hyperparams)

    def decision_values(self, X) -> np.ndarray:
        X = as_csr(X)
        if self.kind == "linear_svm":
            return self._unscaled_svm.decision_values(X)
        return self.inner.decision_values(_dense(X, self.standardizer))

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


def train(kind: str, X, y: Sequence[int], params=None,
          standardize: Optional[bool] = None,
          registry: Optional[Sequence[str]] = None,
          registry_hash: Optional[str] = None) -> TrainedModel:
    """Train one binary classifier on a feature matrix with labels in {0,1}.

    X is a CsrMatrix or a dense array (converted with one as_csr call).
    standardize defaults to whether the kind reads standardized features.
    """
    _, fit, standardized = _kind(kind)
    X = as_csr(X)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise TrainingError("X must be a non-empty 2D matrix")
    if X.shape[0] != len(y):
        raise TrainingError("X and y length mismatch")
    if len(np.unique(y)) < 2:
        raise TrainingError("training labels must contain both classes")
    hp = _coerce_params(kind, params)
    if standardize is None:
        standardize = standardized
    scaler = Standardizer.fit(X) if standardize else None
    return TrainedModel(kind=kind, inner=fit(X, y, hp, scaler), hyperparams=hp,
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
        return {"w": encode_floats(inner.w), "b": inner.b,
                "objective_history": inner.objective_history,
                "converged": inner.converged}
    if model.kind == "decision_tree":
        return {"tree": inner.root.to_dict()}
    if model.kind == "random_forest":
        return {"trees": [tree.root.to_dict() for _, tree in inner.members]}
    if model.kind == "adaboost":
        return {"stumps": [[weight, tree.root.to_dict()] for weight, tree in inner.members]}
    return {"X": encode_floats(inner.X), "y": inner.y.tolist()}


def _restore(kind: str, payload: dict, hp, floats, width: Optional[int]) -> object:
    """The classifier of a stored payload; floats(key, value, ndim) reads
    its arrays, and tree nodes split on features below width (when known).
    _BadPayload or TypeError names the key of a value load_model rejects."""
    if kind == "linear_svm":
        return LinearSvm(floats("payload.w", payload["w"]), payload["b"], hp,
                         json_typed("payload.objective_history",
                                    payload["objective_history"], list),
                         payload["converged"])
    if kind == "decision_tree":
        return DecisionTree(_Node.from_dict(payload["tree"], "payload.tree", width))
    if kind in ("random_forest", "adaboost"):
        name = "trees" if kind == "random_forest" else "stumps"
        stored = json_typed(f"payload.{name}", payload[name], list)
        if not stored:
            raise _BadPayload(f"'payload.{name}' must not be empty")
        members = []
        for i, tree in enumerate(stored):
            at, weight = f"payload.{name}[{i}]", 1.0
            if name == "stumps":
                if not (isinstance(tree, list) and len(tree) == 2):
                    raise _BadPayload(f"'{at}' must be a [weight, tree] pair")
                weight, tree = tree
                if not _finite(weight):
                    raise _BadPayload(f"'{at}[0]' must be a finite number, got {weight!r}")
                at += "[1]"
            members.append((weight, DecisionTree(_Node.from_dict(tree, at, width))))
        return TreeVote(members)
    X, y = floats("payload.X", payload["X"], 2), payload["y"]
    if not isinstance(y, list) or len(y) != len(X):
        raise _BadPayload(f"'payload.y' must be a list of one label per row of 'payload.X' "
                          f"({len(X)}), got {len(y) if isinstance(y, list) else y!r}")
    if not all(type(label) is int and label in (0, 1) for label in y):
        raise _BadPayload("'payload.y' must hold only the labels 0 and 1")
    return KNearest(X, y, hp)


def _finite(value) -> bool:
    """Whether value is a finite JSON number: an int or float, not a bool."""
    return type(value) in (int, float) and math.isfinite(value)


def save_model(model: TrainedModel, path) -> None:
    """One JSON file tagged MODEL_FORMAT; its float arrays (the
    standardizer's, the SVM weights, the k-NN rows) as encode_floats objects."""
    data = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "hyperparams": asdict(model.hyperparams),
        "registry": list(model.registry) if model.registry else None,
        "registry_hash": model.registry_hash,
        "standardizer": {"mean": encode_floats(model.standardizer.mean),
                         "std": encode_floats(model.standardizer.std)}
        if model.standardizer else None,
        "calibration": list(model.calibration) if model.calibration else None,
        "payload": _payload(model),
    }
    write_json(path, data)


def load_model(path, registry_hash: Optional[str] = None,
               width: Optional[int] = None) -> TrainedModel:
    """Load a model file of MODEL_FORMAT, or of MODEL_FORMAT_V1, which holds
    its arrays as JSON lists. A ValueError names the file and the key for a
    registry hash other than registry_hash (when given), a value of another
    JSON type than the reader expects, an array that is not finite float64,
    arrays whose lengths differ from each other, from the stored registry or
    from width (when given), a bias or calibration that is not finite
    numbers, a tree node whose feature is not an index below the width
    (width, else the standardizer's or the registry's length) or whose
    threshold or leaf p is not finite, forest trees or AdaBoost stumps that
    are not a non-empty list, a stump weight that is not a finite number,
    and k-NN labels that are not one 0 or 1 per row."""
    data = read_json(path, (MODEL_FORMAT, MODEL_FORMAT_V1))
    try:
        return _read_model(path, data, registry_hash, width)
    except (_BadPayload, TypeError) as exc:  # TypeError: a value of another JSON type
        raise ValueError(f"{path}: {exc}") from None


def _read_model(path, data, registry_hash: Optional[str], width: Optional[int]
                ) -> TrainedModel:
    kind = data["kind"]
    try:
        hp = read_fields(_kind(kind)[0], json_typed("hyperparams", data["hyperparams"], dict))
    except TrainingError as exc:
        raise TrainingError(f"{path}: {exc}") from None
    if registry_hash is not None and data["registry_hash"] != registry_hash:
        raise RegistryMismatch(
            f"{path}: model registry hash {data['registry_hash']!r} does not "
            f"match expected {registry_hash!r}")
    encoded = data["format"] == MODEL_FORMAT

    def floats(key, value, ndim=1):
        return float_array(path, key, value, ndim, encoded=encoded)

    std = json_typed("standardizer", data["standardizer"], dict, nullable=True)
    scaler = Standardizer(floats("standardizer.mean", std["mean"]),
                          floats("standardizer.std", std["std"])) if std else None
    registry = json_typed("registry", data["registry"], list, nullable=True)
    registry = tuple(registry) if registry else None
    n_features = (width if width is not None else len(scaler.mean) if scaler
                  else len(registry) if registry else None)
    inner = _restore(kind, json_typed("payload", data["payload"], dict), hp, floats,
                     n_features)
    if kind == "linear_svm" and not _finite(inner.b):
        raise _BadPayload(f"'payload.b' must be a finite number, got {inner.b!r}")
    calibration = data["calibration"]
    if calibration is not None:
        if not (isinstance(calibration, list) and len(calibration) == 2
                and all(map(_finite, calibration))):
            raise _BadPayload(f"'calibration' must be a pair of finite numbers, "
                              f"got {calibration!r}")
        calibration = tuple(calibration)
    widths = {}
    if scaler:
        widths.update({"'standardizer.mean'": len(scaler.mean),
                       "'standardizer.std'": len(scaler.std)})
    if kind == "linear_svm":
        widths["'payload.w'"] = len(inner.w)
    elif kind == "knn":
        widths["'payload.X'"] = inner.X.shape[1]
    if widths and registry:
        widths["'registry'"] = len(registry)
    if widths and width is not None:
        widths["the extractor's registry"] = width
    if len(set(widths.values())) > 1:
        raise _BadPayload("lengths differ: "
                          + ", ".join(f"{key} {n}" for key, n in widths.items()))
    return TrainedModel(kind=kind, inner=inner, hyperparams=hp, standardizer=scaler,
                        registry=registry, registry_hash=data["registry_hash"],
                        calibration=calibration)
