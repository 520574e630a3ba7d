"""Reference definitions that the package's optimized code is checked against.

None of them runs in the package: each states a quantity in its plainest
form, and the tests tie the package's own code to it.
"""

import tracemalloc
from typing import Dict, Sequence

import numpy as np

from metacomment.classifiers import LinearSvm
from metacomment.corpus import CLASS_ORDER
from metacomment.embeddings import _sigmoid, cosine_similarity
from metacomment.features import (
    CLASS_FEATURE_NAMES,
    _QUESTION_RUN,
    _SIE_PATTERN,
    TEXT_STAT_NAMES,
    default_sentiment_lexicon,
)
from metacomment.neural import TRAINABLE_BLOCKS, CnnModel, _backward_batch, _forward_batch
from metacomment.textprep import _is_punct, scan_text, tokenize


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    return 1.0 - cosine_similarity(u, v)


def reference_semantic(cvs, vec):
    """One comment's row of semantic_features from cosine_distance: names
    and values in class order, the one-hot on the first class at the
    smallest distance."""
    ordered = sorted(cvs, key=lambda cv: CLASS_ORDER.index(cv.label))
    dists = [cosine_distance(vec, cv.vector) for cv in ordered]
    nearest = min(range(len(dists)), key=lambda i: (dists[i], i))
    names = [f"semantic_{kind}_{CLASS_FEATURE_NAMES[cv.label]}"
             for kind in ("dist", "min_dist") for cv in ordered]
    return names, np.array(dists + [float(i == nearest) for i in range(len(dists))])


# -- negative-sampling objective ------------------------------------------
#
# For one (context, center) pair with mean input vector h and negative draws
# n_1..n_K the loss is  -log s(u_c . h) - sum_k log s(-u_{n_k} . h)  where s
# is the logistic function. These two functions are the reference definition.
# Training and inference apply exactly these gradients through
# embeddings._batch_step; test_embeddings.py's TestTrainingStep and
# TestBatchedInference tie each mode to them, one example per batch and in
# larger batches.

def negative_sampling_loss(w_in: np.ndarray, w_out: np.ndarray,
                           context: Sequence[int], center: int,
                           negatives: Sequence[int]) -> float:
    h = w_in[np.asarray(context)].mean(axis=0)
    s_pos = float(w_out[center] @ h)
    loss = float(np.logaddexp(0.0, -s_pos))
    if len(negatives):
        s_neg = w_out[np.asarray(negatives)] @ h
        loss += float(np.logaddexp(0.0, s_neg).sum())
    return loss


def negative_sampling_gradients(w_in: np.ndarray, w_out: np.ndarray,
                                context: Sequence[int], center: int,
                                negatives: Sequence[int]):
    """Full-matrix analytic gradients of negative_sampling_loss.

    Returns (loss, grad_in, grad_out) with grads shaped like the matrices;
    rows not involved in the pair are zero.
    """
    rows = np.asarray(context)
    h = w_in[rows].mean(axis=0)
    targets = np.concatenate(([center], np.asarray(negatives, dtype=int)))
    scores = w_out[targets] @ h
    g = _sigmoid(scores)
    g[0] -= 1.0
    loss = float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())
    grad_h = g @ w_out[targets]
    grad_in = np.zeros_like(w_in)
    np.add.at(grad_in, rows, grad_h / len(rows))
    grad_out = np.zeros_like(w_out)
    np.add.at(grad_out, targets, g[:, None] * h[None, :])
    return loss, grad_in, grad_out


# -- CNN ----------------------------------------------------------------------

def batch_loss(model: CnnModel, idx: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of a batch, as minimized by training."""
    probs, _ = _forward_batch(model, np.atleast_2d(idx))
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.clip(picked, 1e-300, None)).mean())


def gradient_check(model: CnnModel, idx: np.ndarray, labels: np.ndarray,
                   h: float = 1e-5) -> Dict[str, float]:
    """Max relative error of analytic vs central-difference gradients per block."""
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    labels = np.asarray(labels, dtype=np.int64)
    probs, cache = _forward_batch(model, idx)
    grads = _backward_batch(model, probs, labels, cache)
    errors = {}
    for name in TRAINABLE_BLOCKS:
        matrix = getattr(model, name)
        grad = grads[name]
        flat = matrix.reshape(-1)
        max_rel = 0.0
        for pos in range(flat.size):
            orig = flat[pos]
            flat[pos] = orig + h
            up = batch_loss(model, idx, labels)
            flat[pos] = orig - h
            down = batch_loss(model, idx, labels)
            flat[pos] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = grad.reshape(-1)[pos]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            max_rel = max(max_rel, abs(numeric - analytic) / denom)
        errors[name] = max_rel
    return errors


# -- linear SVM and ANOVA over dense matrices -----------------------------------

def primal_objective(svm, X: np.ndarray, y_pm: np.ndarray) -> float:
    """The primal objective of a LinearSvm on the dense rows X, labels +-1."""
    margins = 1.0 - y_pm * svm.decision_values(X)
    hinge = np.maximum(margins, 0.0).sum()
    return 0.5 * float(svm.w @ svm.w) + svm.hyperparams.C * float(hinge)


def svm_grid_minimum(X: np.ndarray, y_pm: np.ndarray, C: float,
                     lo: float = -3.0, hi: float = 3.0, step: float = 0.01) -> float:
    """Brute-force primal minimization of a two-feature linear SVM over
    every point of the (w1, w2, b) lattice, two w1 values at a time (larger
    blocks leave the cache and run slower)."""
    grid = np.arange(lo, hi + 1e-9, step)
    w2g, bg = np.meshgrid(grid, grid, indexing="ij")
    # C times each sample's margin term without its w1 part; C > 0, so
    # C * max(m, 0) = max(C * m, 0)
    rest = [C * (1.0 - yi * (w2g * xi[1] + bg)) for xi, yi in zip(X, y_pm)]
    half_w2 = 0.5 * w2g ** 2
    best = np.inf
    for start in range(0, len(grid), 2):
        w1 = grid[start:start + 2, None, None]
        objective = half_w2 + 0.5 * w1 ** 2
        term = np.empty_like(objective)
        for xi, yi, r in zip(X, y_pm, rest):
            np.subtract(r, C * yi * xi[0] * w1, out=term)
            objective += np.maximum(term, 0.0, out=term)
        best = min(best, float(objective.min()))
    return best


def row_svm(X, y: np.ndarray, hp, scaler) -> LinearSvm:
    """classifiers._train_svm stepping one row at a time: each step reads u
    on the row's non-zero columns and writes its change back before the
    next row's step. Same arguments and result as _train_svm."""
    n, d = X.shape
    std, m = (np.ones(d), np.zeros(d)) if scaler is None else \
        (scaler.std, scaler.mean / scaler.std)
    rows, cols = X.row_ids(), X.indices
    values = X.data / std[cols]
    splits = X.indptr[1:-1]
    bias, mm = hp.bias_scale, float(m @ m)
    s = np.bincount(rows, weights=values * m[cols], minlength=n)
    q = np.bincount(rows, weights=values * values, minlength=n) - 2.0 * s + mm + bias * bias
    y_pm = np.where(y == 1, 1.0, -1.0)
    steps = list(zip(np.split(cols, splits), np.split(values, splits),
                     y_pm.tolist(), s.tolist(), q.tolist()))
    alpha = [0.0] * n
    u = np.zeros(d)
    c = um = wb = 0.0  # w = u - c*m, um = u.m, wb: the bias column's weight
    history = []
    converged = False
    C = hp.C
    for _ in range(hp.max_epochs):
        max_pg = 0.0
        for i, (idx, z, yi, si, qi) in enumerate(steps):
            g = yi * (float(u[idx] @ z) - c * si - um + c * mm + wb * bias) - 1.0
            a = alpha[i]
            if a == 0.0:
                pg = min(g, 0.0)
            elif a == C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                max_pg = max(max_pg, abs(pg))
                new_a = min(max(a - g / qi, 0.0), C)
                if new_a != a:
                    step = (new_a - a) * yi
                    u[idx] += step * z
                    um += step * si
                    c += step
                    wb += step * bias
                    alpha[i] = new_a
        w = np.append(u - c * m, wb)
        history.append(0.5 * float(w @ w) - float(np.sum(alpha)))
        if max_pg < hp.tolerance:
            converged = True
            break
    return LinearSvm(u - c * m, bias * wb, hp, history, converged)


def dense_anova_f(X: np.ndarray, y: Sequence[int]) -> np.ndarray:
    """features.anova_f_matrix computed over every cell of the dense X."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes = np.unique(y)
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
    scale = np.maximum(np.abs(X).max(axis=0), 1e-300)
    constant = sst <= (n * (1e-12 * scale) ** 2)
    separated = ~constant & (ssw <= 1e-24 * sst)
    scores = np.zeros(X.shape[1])
    regular = ~constant & ~separated
    scores[regular] = msb[regular] / msw[regular]
    scores[separated] = np.inf
    return scores


# -- text statistics --------------------------------------------------------

def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def text_stats_reference(comment, lexicon=None) -> dict:
    """features.text_stats_features word by word and character by character."""
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
