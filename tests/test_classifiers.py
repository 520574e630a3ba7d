import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metacomment.classifiers import (
    BoostHyperparams,
    ForestHyperparams,
    KnnHyperparams,
    LinearSvm,
    RegistryMismatch,
    Standardizer,
    SvmHyperparams,
    TrainedModel,
    TrainingError,
    TreeHyperparams,
    _best_split,
    _train_svm,
    calibrate,
    load_model,
    save_model,
    train,
)
from metacomment.files import decode_floats, encode_floats, write_json
from metacomment.sparse import CsrMatrix

from conftest import as_v1_model, json_dump_bytes
from oracles import primal_objective, row_svm, svm_grid_minimum, traced_peak


def blob_data(seed=0, n=60, gap=2.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-gap / 2, scale=0.6, size=(n // 2, 3))
    X1 = rng.normal(loc=gap / 2, scale=0.6, size=(n - n // 2, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    order = rng.permutation(n)
    return X[order], y[order]


# fixed 2D instance whose exact optimum (w, b) = (0.5, 0, 0) lies on the
# 0.01 grid lattice used by the brute-force oracle
SVM_ORACLE_X = np.array([[2.0, 0.0], [2.0, 1.0], [-2.0, 0.0], [-2.0, -1.0]])
SVM_ORACLE_Y = np.array([1, 1, 0, 0])


class TestLinearSvm:
    def test_separable_two_points_zero_hinge(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        model = train("linear_svm", X, y, SvmHyperparams(C=10.0, tolerance=1e-8),
                      standardize=False)
        assert list(model.predict_many(X)) == [1, 0]
        y_pm = np.where(y == 1, 1.0, -1.0)
        margins = 1.0 - y_pm * model.decision_values(X)
        assert np.maximum(margins, 0.0).sum() == pytest.approx(0.0, abs=1e-6)

    def test_objective_matches_grid_oracle(self):
        hp = SvmHyperparams(C=1.0, max_epochs=20000, tolerance=1e-10)
        model = train("linear_svm", SVM_ORACLE_X, SVM_ORACLE_Y, hp, standardize=False)
        learned = primal_objective(
            model.inner, SVM_ORACLE_X, np.where(SVM_ORACLE_Y == 1, 1.0, -1.0))
        oracle = svm_grid_minimum(SVM_ORACLE_X, np.where(SVM_ORACLE_Y == 1, 1.0, -1.0), 1.0)
        assert abs(learned - oracle) <= 1e-3

    def test_objective_monotone_non_increasing(self):
        X, y = blob_data(1, n=40, gap=1.0)
        model = train("linear_svm", X, y, SvmHyperparams(C=0.5, tolerance=1e-9))
        history = np.array(model.inner.objective_history)
        assert len(history) >= 2
        assert np.all(np.diff(history) <= 1e-9)

    def test_row_permutation_does_not_change_predictions(self):
        X, y = blob_data(2, n=30, gap=1.2)
        hp = SvmHyperparams(C=0.5, tolerance=1e-10, max_epochs=50000)
        model_a = train("linear_svm", X, y, hp)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        model_b = train("linear_svm", X[perm], y[perm], hp)
        probe = np.vstack([X, rng.normal(size=(50, 3))])
        assert np.array_equal(model_a.predict_many(probe), model_b.predict_many(probe))

    def test_boundary_point_predicts_positive(self):
        model = TrainedModel(kind="linear_svm",
                             inner=LinearSvm(np.array([1.0]), 0.0, SvmHyperparams()),
                             hyperparams=SvmHyperparams())
        assert model.decision_values(np.array([0.0]))[0] == 0.0
        assert model.predict(np.array([0.0])) == 1

    def test_unconverged_fit_warns(self, caplog):
        X, y = blob_data(0)
        with caplog.at_level("WARNING", logger="metacomment.classifiers"):
            model = train("linear_svm", X, y, SvmHyperparams(max_epochs=1))
        assert not model.inner.converged
        [record] = caplog.records
        assert "C=0.5" in record.message
        assert "max_epochs=1" in record.message
        assert "projected gradient" in record.message

    def test_converged_fit_does_not_warn(self, caplog):
        X, y = blob_data(0)
        with caplog.at_level("WARNING", logger="metacomment.classifiers"):
            model = train("linear_svm", X, y, SvmHyperparams(tolerance=1e-3))
        assert model.inner.converged
        assert caplog.records == []

    def test_invalid_c(self):
        with pytest.raises(TrainingError, match="C must be positive"):
            SvmHyperparams(C=0.0)


def dense_svm(Xs, y, hp):
    """The dense dual coordinate descent that the solver over non-zeros
    replaced, on the standardized matrix Xs: the oracle it is checked
    against."""
    n, d = Xs.shape
    Xa = np.hstack([Xs, np.full((n, 1), hp.bias_scale)])
    yX = Xa * np.where(y == 1, 1.0, -1.0)[:, None]
    q_diag = np.einsum("ij,ij->i", Xa, Xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    history = []
    converged = False
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
        history.append(0.5 * float(w @ w) - float(alpha.sum()))
        if max_pg < hp.tolerance:
            converged = True
            break
    return LinearSvm(w[:d].copy(), hp.bias_scale * float(w[d]), hp, history, converged)


def assert_matches_dense_svm(X, y, standardize, bias_scale, max_epochs):
    """train's SVM against dense_svm on the standardized X: decision values
    within 1e-9, the same epoch count, converged unless max_epochs < 1000."""
    hp = SvmHyperparams(C=0.8, max_epochs=max_epochs, tolerance=1e-8,
                        bias_scale=bias_scale)
    model = train("linear_svm", X, y, hp, standardize=standardize)
    Xs = model.standardizer.transform(X) if standardize else X
    reference = dense_svm(Xs, y, hp)
    assert np.abs(model.decision_values(X) - reference.decision_values(Xs)).max() <= 1e-9
    assert len(model.inner.objective_history) == len(reference.objective_history)
    assert model.inner.converged == reference.converged == (max_epochs == 1000)


class TestSvmOverNonZeros:
    """The solver over each row's non-zeros, with the standardization folded
    in, against the dense solver on the standardized matrix."""

    @pytest.mark.parametrize("seed,standardize,bias_scale,max_epochs", [
        (0, True, 1.0, 1000),
        (1, False, 1.0, 1000),
        (2, True, 2.5, 1000),
        (3, False, 0.5, 1000),
        (4, True, 1.0, 3),  # stops unconverged
        (5, False, 3.0, 2),  # stops unconverged
    ])
    def test_matches_dense_reference(self, seed, standardize, bias_scale, max_epochs):
        rng = np.random.default_rng(seed)
        n, d = 40, 30
        X = np.where(rng.random((n, d)) < 0.15, rng.normal(2.0, 1.5, (n, d)), 0.0)
        X[[3, 17]] = 0.0  # all-zero rows
        X[:, 5] = 4.0  # constant columns, one non-zero and one zero
        X[:, 11] = 0.0
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        assert_matches_dense_svm(X, y, standardize, bias_scale, max_epochs)

    @pytest.mark.parametrize("n,standardize,bias_scale,max_epochs", [
        (15, True, 1.0, 1000),
        (16, True, 1.0, 1000),
        (17, False, 1.0, 1000),
        (40, True, 2.5, 1000),
        (40, False, 1.0, 1000),
        (40, True, 1.0, 3),  # stops unconverged
    ])
    def test_blocks_match_dense_reference(self, n, standardize, bias_scale, max_epochs):
        # the solver steps 16 rows at a time: a block may be short, a block
        # boundary falls between two all-zero rows, and a block holds two
        # copies of a row (same labels, then opposite ones)
        rng = np.random.default_rng(n)
        d = 25
        X = np.where(rng.random((n, d)) < 0.2, rng.normal(1.0, 2.0, (n, d)), 0.0)
        X[[14, 15, 16][:n - 14]] = 0.0
        X[[4, 9]] = X[2]
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        y[4], y[9] = y[2], 1 - y[2]
        assert_matches_dense_svm(X, y, standardize, bias_scale, max_epochs)

    def test_blocks_match_row_by_row_steps(self):
        # 200 x 4,000 at 1.5 % density, the shape of a tf-idf fold
        rng = np.random.default_rng(3)
        n, d = 200, 4000
        X = np.where(rng.random((n, d)) < 0.015, rng.random((n, d)), 0.0)
        y = rng.integers(0, 2, n)
        X = CsrMatrix.from_dense(X)
        scaler = Standardizer.fit(X)
        hp = SvmHyperparams(C=0.5, tolerance=1e-3, max_epochs=500)
        blocked, rowwise = _train_svm(X, y, hp, scaler), row_svm(X, y, hp, scaler)
        assert len(blocked.objective_history) == len(rowwise.objective_history) > 2
        assert blocked.converged and rowwise.converged
        scale = np.abs(rowwise.w).max()
        assert np.abs(blocked.w - rowwise.w).max() <= 1e-9 * scale
        assert abs(blocked.b - rowwise.b) <= 1e-9 * scale
        assert np.allclose(blocked.objective_history, rowwise.objective_history,
                           rtol=1e-9, atol=0.0)

    def test_fit_logs_one_debug_line(self, caplog):
        X, y = blob_data(0)
        with caplog.at_level("DEBUG", logger="metacomment.classifiers"):
            model = train("linear_svm", X, y, SvmHyperparams(tolerance=1e-3))
        [record] = caplog.records
        assert record.levelname == "DEBUG"
        history = model.inner.objective_history
        assert record.getMessage() == (f"linear SVM: 60 rows, {len(history)} epochs, "
                                       f"dual objective {history[-1]:.6g}, converged True")

    def test_fit_holds_no_dense_copy_of_the_matrix(self):
        # 400 x 20,000, 1.5 % non-zero: only Standardizer.fit's std temporary
        # is as large as the matrix (epochs do not change the peak)
        rng = np.random.default_rng(0)
        X = np.zeros((400, 20_000))
        k = X.size * 3 // 200
        X.flat[rng.integers(0, X.size, size=k)] = rng.normal(size=k)
        y = rng.integers(0, 2, len(X))
        _, peak = traced_peak(train, "linear_svm", X, y, {"max_epochs": 3})
        assert peak < 1.5 * X.nbytes


class TestTrainValidation:
    def test_single_class_is_error(self):
        with pytest.raises(TrainingError, match="both classes"):
            train("linear_svm", np.ones((4, 2)), [1, 1, 1, 1])

    def test_empty_matrix_is_error(self):
        with pytest.raises(TrainingError, match="non-empty"):
            train("linear_svm", np.empty((0, 2)), [])

    def test_unknown_kind(self):
        with pytest.raises(TrainingError, match="unknown classifier"):
            train("perceptron", np.ones((2, 1)), [0, 1])


class TestDecisionTree:
    def test_fits_xor_with_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 4)
        y = np.array([0, 1, 1, 0] * 4)
        model = train("decision_tree", X, y, TreeHyperparams(max_depth=3, min_leaf=1))
        assert np.array_equal(model.predict_many(X), y)

    def test_max_depth_one_is_a_stump(self):
        X, y = blob_data(3)
        model = train("decision_tree", X, y, TreeHyperparams(max_depth=1, min_leaf=1))
        root = model.inner.root
        assert root.left.is_leaf and root.right.is_leaf

    def test_deterministic(self):
        X, y = blob_data(4)
        m1 = train("decision_tree", X, y)
        m2 = train("decision_tree", X, y)
        assert m1.inner.root.to_dict() == m2.inner.root.to_dict()


class TestRandomForest:
    def test_unanimous_trees_predict_that_label(self):
        X, y = blob_data(5, gap=6.0)  # trivially separable: all trees agree
        model = train("random_forest", X, y, ForestHyperparams(n_trees=9))
        votes = [np.where(t.leaf_p_pos(X) >= 0.5, 1, 0) for _, t in model.inner.members]
        assert np.array_equal(np.min(votes, axis=0), np.max(votes, axis=0))
        assert np.array_equal(model.predict_many(X), y)

    def test_reproducible_given_seed(self):
        X, y = blob_data(6, gap=1.0)
        hp = ForestHyperparams(n_trees=12, seed=99)
        m1 = train("random_forest", X, y, hp)
        m2 = train("random_forest", X, y, hp)
        assert [t.root.to_dict() for _, t in m1.inner.members] \
            == [t.root.to_dict() for _, t in m2.inner.members]

    def test_parallel_training_matches_serial(self):
        X, y = blob_data(7, gap=1.0)
        serial = train("random_forest", X, y, ForestHyperparams(n_trees=8, seed=3, jobs=1))
        threaded = train("random_forest", X, y, ForestHyperparams(n_trees=8, seed=3, jobs=4))
        assert [t.root.to_dict() for _, t in serial.inner.members] \
            == [t.root.to_dict() for _, t in threaded.inner.members]


class TestAdaBoost:
    def test_single_stump_ensemble_equals_stump(self):
        X, y = blob_data(8)
        boost = train("adaboost", X, y, BoostHyperparams(n_rounds=1))
        stump = train("decision_tree", X, y, TreeHyperparams(max_depth=1, min_leaf=1))
        probe = np.random.default_rng(0).normal(size=(40, 3))
        assert np.array_equal(boost.predict_many(probe), stump.predict_many(probe))

    def test_boosting_improves_on_hard_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)  # stumps can't do XOR alone
        boost = train("adaboost", X, y, BoostHyperparams(n_rounds=100))
        stump = train("decision_tree", X, y, TreeHyperparams(max_depth=1, min_leaf=1))
        acc_boost = (boost.predict_many(X) == y).mean()
        acc_stump = (stump.predict_many(X) == y).mean()
        assert acc_boost > acc_stump

    def test_decision_values_bounded(self):
        X, y = blob_data(10)
        model = train("adaboost", X, y, BoostHyperparams(n_rounds=20))
        values = model.decision_values(X)
        assert np.all(values >= -1.0 - 1e-9) and np.all(values <= 1.0 + 1e-9)


def split_gains(X, y, w, min_leaf=1):
    """{(feature, threshold): gain} of every weighted-Gini split, by brute
    force with each child's weight summed exactly; a child of weight 0 adds 0."""
    def impurity(members):
        total = math.fsum(w[i] for i in members)
        pos = math.fsum(w[i] for i in members if y[i] == 1)
        return 0.0 if total == 0.0 else total - (pos ** 2 + (total - pos) ** 2) / total

    everyone = range(len(y))
    total_w = math.fsum(w)
    parent = impurity(everyone) / total_w
    gains = {}
    for feat in range(X.shape[1]):
        values = sorted(set(X[:, feat]))
        for lo, hi in zip(values, values[1:]):
            threshold = 0.5 * (lo + hi)
            left = [i for i in everyone if X[i, feat] <= threshold]
            right = [i for i in everyone if X[i, feat] > threshold]
            if min(len(left), len(right)) >= min_leaf:
                gains[feat, threshold] = \
                    parent - (impurity(left) + impurity(right)) / total_w
    return gains


class TestBestSplit:
    def assert_matches_oracle(self, X, y, w, min_leaf=1):
        """The split found is a best one, and its gain is the oracle's."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain, feat, threshold = _best_split(X, y, w, np.arange(X.shape[1]), min_leaf)
        gains = split_gains(X, y, w, min_leaf)
        assert abs(gain - gains[feat, threshold]) <= 1e-12
        assert abs(gain - max(gains.values())) <= 1e-12
        return feat, threshold

    def test_child_whose_weight_rounds_to_zero(self):
        # AdaBoost-like weights: right of every feature-0 split, the total
        # minus the cumulative weight rounds to 0, which made a NaN gain
        # that argmax picked over feature 1's clean split
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        w = np.array([0.5, 0.5, 1e-20, 1e-20])
        assert w.sum() - w[:2].sum() == 0.0
        assert self.assert_matches_oracle(X, y, w) == (1, 0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_weighted_data(self, seed):
        rng = np.random.default_rng(seed)
        X, y = blob_data(seed, n=30)
        w = rng.exponential(size=len(y)) ** 6
        self.assert_matches_oracle(X, y, w / w.sum(), min_leaf=1 + seed % 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_adaboost_fit_warns_nothing(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train("adaboost", *blob_data(seed))


class TestKnn:
    def test_k1_training_accuracy_is_one(self):
        X, y = blob_data(11, gap=0.5)
        model = train("knn", X, y, KnnHyperparams(k=1))
        assert np.array_equal(model.predict_many(X), y)

    def test_majority_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0]])
        y = np.array([1, 1, 1, 0])
        model = train("knn", X, y, KnnHyperparams(k=3), standardize=False)
        assert model.predict(np.array([0.05])) == 1


class TestStandardization:
    def test_svm_standardizes_by_default(self):
        X, y = blob_data(12)
        model = train("linear_svm", X, y)
        assert model.standardizer is not None

    def test_tree_consumes_raw_features(self):
        X, y = blob_data(13)
        model = train("decision_tree", X, y)
        assert model.standardizer is None

    def test_constant_column_safe(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        scaler = Standardizer.fit(X)
        assert np.all(np.isfinite(scaler.transform(X)))


class TestCalibration:
    def _calibrated(self, seed=14):
        X, y = blob_data(seed, n=120, gap=1.5)
        model = train("linear_svm", X[:80], y[:80])
        return calibrate(model, X[80:], y[80:]), X, y

    def test_confidence_in_unit_interval(self):
        model, X, _ = self._calibrated()
        conf = model.confidences(X)
        assert np.all(conf > 0.0) and np.all(conf < 1.0)

    def test_monotone_in_decision_value(self):
        model, X, _ = self._calibrated()
        f = model.decision_values(X)
        conf = model.confidences(X)
        order = np.argsort(f)
        assert np.all(np.diff(conf[order]) >= -1e-12)

    def test_symmetric_values_give_half_at_zero(self):
        rng = np.random.default_rng(15)
        f = np.concatenate([rng.normal(-1.0, 0.5, 200), rng.normal(1.0, 0.5, 200)])
        y = np.array([0] * 200 + [1] * 200)
        base = TrainedModel(kind="linear_svm",
                            inner=LinearSvm(np.array([1.0]), 0.0, SvmHyperparams()),
                            hyperparams=SvmHyperparams())
        model = calibrate(base, f[:, None], y)
        assert model.confidence(np.array([0.0])) == pytest.approx(0.5, abs=0.05)

    def test_single_class_holdout_is_error(self):
        X, y = blob_data(16)
        model = train("linear_svm", X, y)
        with pytest.raises(TrainingError, match="both classes"):
            calibrate(model, X, np.ones(len(y), dtype=int))

    def test_uncalibrated_confidence_is_error(self):
        X, y = blob_data(17)
        model = train("linear_svm", X, y)
        with pytest.raises(TrainingError, match="not calibrated"):
            model.confidence(X[0])


class TestPersistence:
    @pytest.mark.parametrize("kind,params", [
        ("linear_svm", SvmHyperparams(C=0.5)),
        ("decision_tree", TreeHyperparams(max_depth=4)),
        ("random_forest", ForestHyperparams(n_trees=5)),
        ("adaboost", BoostHyperparams(n_rounds=5)),
        ("knn", KnnHyperparams(k=3)),
    ])
    def test_round_trip_preserves_predictions(self, tmp_path, kind, params):
        X, y = blob_data(18, gap=1.0)
        model = train(kind, X, y, params, registry=("f0", "f1", "f2"),
                      registry_hash="abc123")
        model = calibrate(model, X, y)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        assert path.read_bytes() == json_dump_bytes(json.loads(path.read_text("utf-8")))
        loaded = load_model(path)
        probe = np.random.default_rng(1).normal(size=(30, 3))
        assert np.array_equal(model.predict_many(probe), loaded.predict_many(probe))
        assert np.allclose(model.confidences(probe), loaded.confidences(probe))
        assert model.decision_values(probe).tobytes() == loaded.decision_values(probe).tobytes()
        resaved = tmp_path / f"{kind}.resaved.json"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_write_json_bytes_equal_json_dump(self, tmp_path):
        data = {"z": [0.1, -0.0, 1e-300, 2.5e17, 1 / 3, np.float64(0.7)],
                "ä": {"ß": "naïve „zitiert“ \\ \"x\"\n", "a": None},
                "b": (True, False, 3, -7, 2 ** 70), "registry": ["f0", "é"], "": []}
        path = tmp_path / "data.json"
        write_json(path, data)
        assert path.read_bytes() == json_dump_bytes(data)

    @pytest.mark.parametrize("kind", ["linear_svm", "knn"])
    def test_model_file_v1_loads_the_same_arrays(self, tmp_path, kind):
        X, y = blob_data(18, gap=1.0)
        path, old = tmp_path / "m.json", tmp_path / "old.json"
        save_model(calibrate(train(kind, X, y), X, y), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["format"] == "metacomment-model/2"
        write_json(old, as_v1_model(data))
        new_model, old_model = load_model(path), load_model(old)

        def arrays(model):
            inner = model.inner
            return [model.standardizer.mean, model.standardizer.std,
                    inner.w if kind == "linear_svm" else inner.X]

        for new_a, old_a in zip(arrays(new_model), arrays(old_model)):
            assert new_a.tobytes() == old_a.tobytes()
        assert old_model.calibration == new_model.calibration
        assert np.array_equal(old_model.decision_values(X), new_model.decision_values(X))

    @pytest.mark.parametrize("kind", ["linear_svm", "decision_tree", "adaboost"])
    def test_file_with_the_removed_seed_loads(self, tmp_path, kind):
        X, y = blob_data(18, gap=1.0)
        path = tmp_path / "m.json"
        save_model(train(kind, X, y), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert "seed" not in data["hyperparams"]
        data["hyperparams"]["seed"] = 1641157899988612663
        old = tmp_path / "old.json"
        write_json(old, data)
        assert np.array_equal(load_model(old).decision_values(X),
                              load_model(path).decision_values(X))

    @pytest.mark.parametrize("name,value,message", [
        ("C", 0, "C must be positive, got 0"),
        ("max_epochs", True, "max_epochs must be an integer >= 1, got True"),
    ])
    def test_bad_stored_hyperparameter_names_file(self, tmp_path, name, value, message):
        X, y = blob_data(21)
        path = tmp_path / "m.json"
        save_model(train("linear_svm", X, y), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["hyperparams"][name] = value
        write_json(path, data)
        with pytest.raises(TrainingError, match=f"m.json: {message}"):
            load_model(path)

    def test_stored_array_length_must_match_registry(self, tmp_path):
        X, y = blob_data(19)
        path = tmp_path / "m.json"
        save_model(train("knn", X, y, registry=("a", "b")), path)
        with pytest.raises(ValueError, match=r"m.json: lengths differ: "
                           r"'standardizer.mean' 3, 'standardizer.std' 3, "
                           r"'payload.X' 3, 'registry' 2"):
            load_model(path)

    def test_registry_hash_mismatch_rejected(self, tmp_path):
        X, y = blob_data(19)
        model = train("linear_svm", X, y, registry=("a", "b", "c"), registry_hash="hash1")
        path = tmp_path / "m.json"
        save_model(model, path)
        with pytest.raises(RegistryMismatch):
            load_model(path, registry_hash="other")
        assert load_model(path, registry_hash="hash1").registry == ("a", "b", "c")


# bit patterns the float codec must keep: -0.0, the smallest and the largest
# subnormal, +-1e308, infinities, a quiet nan, and a nan with the sign bit
# and a payload
_SPECIAL_BITS = [int(np.array(v).view(np.uint64)) for v in
                 (-0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308, np.inf, -np.inf,
                  np.nan)] + [0xFFF8000000000001]


class TestFloatCodec:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS),
                                   st.integers(0, 2 ** 64 - 1)), max_size=24),
           columns=st.sampled_from([0, 1, 3]))
    @example(bits=[], columns=0)
    @example(bits=[], columns=3)
    @example(bits=_SPECIAL_BITS, columns=0)
    def test_round_trip_keeps_every_bit(self, bits, columns):
        # columns 0: a 1-D array; else 2-D rows, as a k-NN model stores
        a = np.array(bits, dtype=np.uint64).view(np.float64)
        if columns:
            a = a[:len(a) // columns * columns].reshape(-1, columns)
        stored = json.loads(json.dumps(encode_floats(a)))
        assert stored["dtype"] == "<f8" and stored["shape"] == list(a.shape)
        decoded = decode_floats(stored)
        assert decoded.dtype == np.float64 and decoded.dtype.isnative
        assert decoded.flags.writeable and decoded.flags.c_contiguous
        assert decoded.shape == a.shape
        assert decoded.tobytes() == a.tobytes()

    @pytest.mark.parametrize("change,message", [
        ({"dtype": "<f4"}, "dtype '<f4' is not '<f8'"),
        ({"shape": [2.0]}, r"shape \[2.0\] is not a list of sizes"),
        ({"base64": "AAAA!AAAAAA="}, "invalid base64"),
        ({"base64": 5}, "invalid base64"),
        ({"shape": [3]}, r"16 bytes for shape \[3\], which holds 24"),
    ])
    def test_decode_rejects(self, change, message):
        with pytest.raises(ValueError, match=message):
            decode_floats({**encode_floats(np.array([1.0, 2.0])), **change})
