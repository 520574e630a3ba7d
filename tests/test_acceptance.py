"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line with its runtime so the suite
doubles as a release report (run with `pytest -s tests/test_acceptance.py`).
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from metacomment.classifiers import LinearSvm, SvmHyperparams, TrainedModel, train
from metacomment.corpus import load_dataset
from metacomment.embeddings import (
    WordEmbeddingModel,
    WordTrainingParams,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.evaluation import (
    Metrics,
    binary_labels,
    cross_validate,
    stratified_k_fold,
    two_step_classify,
)
from metacomment.features import anova_f_matrix, select_k_best, tfidf_fit, tfidf_transform
from metacomment.neural import CnnConfig, build
from metacomment.neural import train as train_cnn
from metacomment.pipeline import CnnPipeline, FeaturePipeline, feature_cache
from metacomment.textprep import TokenStream, preprocess

from oracles import (
    gradient_check,
    negative_sampling_gradients,
    negative_sampling_loss,
    primal_objective,
    svm_grid_minimum,
)
from synthdata import CLASS_KEYWORDS, generate_comment_dataset


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number:>2} ({name}): {status} "
          f"in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_f_beta_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        tp, fp, fn = (int(v) for v in rng.integers(0, 500, size=3))
        metrics = Metrics.from_counts(tp, fp, fn, 0, beta=0.5)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        denom = 0.25 * p + r
        oracle = 1.25 * p * r / denom if denom else 0.0
        ok &= abs(metrics.f_beta - oracle) <= 1e-12
    _report(1, "F_beta oracle", ok, time.time() - t0, 1.0)


def test_criterion_02_stratification():
    t0 = time.time()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 11))
        n_pos = int(rng.integers(k, 400))
        n_neg = int(rng.integers(k, max(k + 1, 500 - n_pos)))
        y = np.array([1] * n_pos + [0] * n_neg)
        rng.shuffle(y)
        folds = stratified_k_fold(y, k, seed=int(rng.integers(1 << 31)))
        all_test = np.concatenate([test for _, test in folds])
        ok &= len(all_test) == len(y) and len(np.unique(all_test)) == len(y)
        counts = np.bincount(y, minlength=2)
        for train_idx, test_idx in folds:
            ok &= len(np.intersect1d(train_idx, test_idx)) == 0
            for cls in (0, 1):
                got = int(np.sum(y[test_idx] == cls))
                ok &= abs(got - counts[cls] / k) <= 1.0
    _report(2, "stratification", ok, time.time() - t0, 5.0)


def _oracle_tfidf(docs):
    """Independent brute-force tf-idf from the stated formulas."""
    def grams(tokens):
        return list(tokens) + [a + "_" + b for a, b in zip(tokens, tokens[1:])]

    n = len(docs)
    df = {}
    for tokens in docs:
        for gram in set(grams(tokens)):
            df[gram] = df.get(gram, 0) + 1
    idf = {gram: math.log((1 + n) / (1 + count)) + 1.0 for gram, count in df.items()}

    def transform(tokens):
        tf = {}
        for gram in grams(tokens):
            if gram in idf:
                tf[gram] = tf.get(gram, 0) + 1
        weights = {gram: c * idf[gram] for gram, c in tf.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return {g: w / norm for g, w in weights.items()} if norm else {}

    return transform


def _check_tfidf_corpus(docs) -> bool:
    streams = [TokenStream(d, f"d{i}") for i, d in enumerate(docs)]
    model = tfidf_fit(streams)
    oracle = _oracle_tfidf(docs)
    for ts, tokens in zip(streams, docs):
        got = tfidf_transform(model, ts)
        want = oracle(tokens)
        if set(got) != set(want):
            return False
        for gram in want:
            if abs(got[gram] - want[gram]) > 1e-12:
                return False
    return True


def test_criterion_03_tfidf_brute_force():
    t0 = time.time()
    alphabet = "abcdef"
    universe = [tuple(p) for length in (1, 2)
                for p in itertools.product(alphabet, repeat=length)]
    ok = True
    # corpora of sizes 1..3: exhaustive over the 42-document universe
    for size in (1, 2, 3):
        for docs in itertools.combinations_with_replacement(universe, size):
            ok = ok and _check_tfidf_corpus(list(docs))
    # sizes 4..5: seeded random sweep with longer documents
    rng = np.random.default_rng(303)
    for size in (4, 5):
        for _ in range(1500):
            docs = [tuple(rng.choice(list(alphabet), size=rng.integers(1, 5)))
                    for _ in range(size)]
            ok = ok and _check_tfidf_corpus(docs)
    _report(3, "tf-idf brute force", ok, time.time() - t0, 30.0)


def test_criterion_04_anova_hand_case():
    t0 = time.time()
    f_hand = anova_f_matrix(np.array([[1.0], [2.0], [3.0], [4.0]]), [0, 0, 1, 1])[0]
    f_const = anova_f_matrix(np.array([[7.5]] * 4), [0, 0, 1, 1])[0]
    f_sep = anova_f_matrix(np.array([[0.0], [0.0], [1.0], [1.0]]), [0, 0, 1, 1])[0]
    ordering = select_k_best({"sep": f_sep, "hand": f_hand, "const": f_const}, "all")
    ok = (f_hand == 8.0 and f_const == 0.0 and f_sep == np.inf
          and ordering[0] == "sep" and ordering[-1] == "const")
    _report(4, "ANOVA hand case", ok, time.time() - t0, 1.0)


def _cbow_gradient_error() -> float:
    rng = np.random.default_rng(404)
    w_in = rng.normal(scale=0.5, size=(20, 5))
    w_out = rng.normal(scale=0.5, size=(20, 5))
    context, center, negatives = [0, 3, 7, 7], 2, [4, 9, 11, 9]
    loss, grad_in, grad_out = negative_sampling_gradients(
        w_in, w_out, context, center, negatives)
    h = 1e-5
    max_rel = 0.0
    for matrix, grad in ((w_in, grad_in), (w_out, grad_out)):
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                orig = matrix[i, j]
                matrix[i, j] = orig + h
                up = negative_sampling_loss(w_in, w_out, context, center, negatives)
                matrix[i, j] = orig - h
                down = negative_sampling_loss(w_in, w_out, context, center, negatives)
                matrix[i, j] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
                max_rel = max(max_rel, abs(numeric - grad[i, j]) / denom)
    return max_rel


def _micro_word_model(rng, vocab_size=12, dim=5) -> WordEmbeddingModel:
    vocab = {f"t{i}": i for i in range(vocab_size)}
    return WordEmbeddingModel(
        vocab, rng.normal(scale=0.3, size=(vocab_size, dim)),
        np.zeros((vocab_size, dim)), np.ones(vocab_size, dtype=np.int64),
        WordTrainingParams(dim=dim, min_count=1))


def test_criterion_05_gradient_checks():
    t0 = time.time()
    cbow_err = _cbow_gradient_error()
    rng = np.random.default_rng(505)
    model = build(_micro_word_model(rng),
                  CnnConfig(max_len=10, n_filters=4, kernel_size=3, dense_units=4,
                            seed=6))
    idx = np.array([rng.choice(np.arange(2, 14), size=10, replace=False)
                    for _ in range(3)])
    errors = gradient_check(model, idx, np.array([0, 1, 1]))
    cnn_err = max(errors.values())
    ok = cbow_err < 1e-4 and cnn_err < 1e-4
    _report(5, f"gradient checks (cbow {cbow_err:.2e}, cnn {cnn_err:.2e})",
            ok, time.time() - t0, 60.0)


def test_criterion_06_frozen_embedding():
    import hashlib
    t0 = time.time()
    rng = np.random.default_rng(606)
    model = build(_micro_word_model(rng, vocab_size=20, dim=8),
                  CnnConfig(max_len=12, n_filters=6, kernel_size=3, dense_units=6,
                            batch_size=8, epochs=3, seed=7))
    idx = rng.integers(0, 22, size=(40, 12))
    labels = np.array([0, 1] * 20)
    before = hashlib.sha256(model.embedding.tobytes()).hexdigest()
    train_cnn(model, idx, labels)
    after = hashlib.sha256(model.embedding.tobytes()).hexdigest()
    _report(6, "frozen embedding", before == after, time.time() - t0, 60.0)


def test_criterion_07_synthetic_end_to_end():
    t0 = time.time()
    ds = generate_comment_dataset(42, n_per_class=500, n_nonmeta=500)
    assert len(ds) == 2000
    streams = [preprocess(c, remove_stopwords=True) for c in ds.comments()]
    word_model = train_word_embeddings(
        streams, WordTrainingParams(dim=32, window=5, min_count=5, epochs=10,
                                    initial_lr=0.05, seed=7))
    doc_model = train_doc_embeddings(
        streams, WordTrainingParams(dim=32, window=5, min_count=5, epochs=15,
                                    initial_lr=0.05, seed=8))
    entries = list(ds)
    cache = feature_cache(word_model, doc_model, CLASS_KEYWORDS)  # for all four targets

    def factory(seed):
        return FeaturePipeline(
            cache, classifier="linear_svm",
            classifier_params={"C": 0.5, "tolerance": 1e-3, "max_epochs": 60},
            seed=seed)

    scores = {}
    for cls in ("Meta", "Media", "Journalist", "Moderator"):
        result = cross_validate(factory, entries, binary_labels(ds, cls),
                                k=10, seed=0)
        scores[cls] = result.mean.f_beta

    y_meta = binary_labels(ds, "Meta")
    train_idx, test_idx = stratified_k_fold(y_meta, 5, seed=3)[0]
    cnn = CnnPipeline(word_model,
                      CnnConfig(max_len=48, n_filters=32, kernel_size=5,
                                dense_units=32, batch_size=32, epochs=5,
                                learning_rate=0.003, seed=5))
    cnn.fit([entries[i] for i in train_idx], y_meta[train_idx])
    cnn_pred = cnn.predict([entries[i] for i in test_idx])
    cnn_f = Metrics.from_predictions(y_meta[test_idx], cnn_pred, beta=0.5).f_beta

    ok = (scores["Meta"] >= 0.95
          and all(scores[c] >= 0.90 for c in ("Media", "Journalist", "Moderator"))
          and cnn_f >= 0.90)
    detail = " ".join(f"{c}={scores[c]:.3f}" for c in scores) + f" cnn={cnn_f:.3f}"
    _report(7, f"synthetic end-to-end ({detail})", ok, time.time() - t0, 300.0)


def test_criterion_08_feature_ranking():
    t0 = time.time()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = np.array([0] * 40 + [1] * 40)
        X = rng.normal(size=(80, 101))
        X[:, 63] += 2.0 * y
        scores = {f"f{i}": s for i, s in enumerate(anova_f_matrix(X, y))}
        hits += select_k_best(scores, 1) == ["f63"]
    _report(8, f"feature ranking ({hits}/100)", hits >= 99, time.time() - t0, 30.0)


def test_criterion_09_svm_oracle():
    t0 = time.time()
    X = np.array([[2.0, 0.0], [2.0, 1.0], [-2.0, 0.0], [-2.0, -1.0]])
    y = np.array([1, 1, 0, 0])
    y_pm = np.where(y == 1, 1.0, -1.0)
    model = train("linear_svm", X, y,
                  SvmHyperparams(C=1.0, max_epochs=20000, tolerance=1e-10),
                  standardize=False)
    learned = primal_objective(model.inner, X, y_pm)
    best = svm_grid_minimum(X, y_pm, 1.0)  # the 601^3 lattice over [-3, 3], step 0.01

    history = np.array(model.inner.objective_history)
    monotone = bool(np.all(np.diff(history) <= 1e-9))
    ok = abs(learned - best) <= 1e-3 and monotone
    _report(9, f"svm oracle (|diff|={abs(learned - best):.2e})", ok,
            time.time() - t0, 10.0)


def test_criterion_10_two_step_gating():
    t0 = time.time()
    import inspect
    default_threshold = inspect.signature(two_step_classify).parameters["threshold"].default
    gate = TrainedModel(kind="linear_svm",
                        inner=LinearSvm(np.array([1.0]), -5.0, SvmHyperparams()),
                        hyperparams=SvmHyperparams())
    eager = {label: TrainedModel(
        kind="linear_svm", inner=LinearSvm(np.array([1.0]), 10.0, SvmHyperparams()),
        hyperparams=SvmHyperparams(), calibration=(-10.0, 0.0))
        for label in ("Media", "Journalist", "Moderator")}
    ok = default_threshold == 0.8
    rng = np.random.default_rng(1010)
    for _ in range(50):
        x = np.array([float(rng.normal())])
        result = two_step_classify(gate, eager, x)
        if float(x[0]) < 5.0:  # gate decision value below zero
            ok &= not result.is_meta and result.addressees == ()
    # strictly-greater threshold semantics: confidence 0.5 is not > 0.5
    always_meta = TrainedModel(kind="linear_svm",
                               inner=LinearSvm(np.array([1.0]), 10.0, SvmHyperparams()),
                               hyperparams=SvmHyperparams())
    flat = {"Media": TrainedModel(
        kind="linear_svm", inner=LinearSvm(np.array([1.0]), 0.0, SvmHyperparams()),
        hyperparams=SvmHyperparams(), calibration=(0.0, 0.0))}
    at_threshold = two_step_classify(always_meta, flat, np.array([1.0]), threshold=0.5)
    ok &= at_threshold.addressees == ()
    above = two_step_classify(always_meta, flat, np.array([1.0]), threshold=0.4999)
    ok &= above.addressees == ("Media",)
    _report(10, "two-step gating", ok, time.time() - t0, 1.0)


OMP_ENV = "META_OMP_JSONL"


@pytest.mark.skipif(OMP_ENV not in os.environ,
                    reason=f"set {OMP_ENV} to a comments-jsonl export of the "
                           "public One Million Posts feedback annotations")
def test_criterion_11_omp_reproduction():
    """Optional, data-dependent: prior published baseline on the public corpus."""
    t0 = time.time()
    ds = load_dataset(os.environ[OMP_ENV])
    streams = [preprocess(c, remove_stopwords=True) for c in ds.comments()]
    word_model = train_word_embeddings(
        streams, WordTrainingParams(dim=300, window=5, min_count=5, epochs=10,
                                    initial_lr=0.05, seed=7))
    entries = list(ds)
    y = binary_labels(ds, "Meta")
    cache = feature_cache(word_model)

    def factory(seed):
        return FeaturePipeline(
            cache, classifier="linear_svm",
            classifier_params={"C": 1.0, "tolerance": 1e-3, "max_epochs": 100},
            seed=seed)

    result = cross_validate(factory, entries, y, k=10, seed=0)
    ok = (result.mean.precision >= 0.75 and result.mean.recall >= 0.71
          and abs(result.mean.f_beta - 0.82) <= 0.05)
    _report(11, f"OMP reproduction (p={result.mean.precision:.3f} "
                f"r={result.mean.recall:.3f} f={result.mean.f_beta:.3f})",
            ok, time.time() - t0, 3600.0)
