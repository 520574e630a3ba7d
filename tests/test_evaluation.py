from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacomment.classifiers import (
    LinearSvm,
    RegistryMismatch,
    SvmHyperparams,
    TrainedModel,
    train as train_classifier,
)
from metacomment.corpus import ADDRESSEE_LABELS
from metacomment.evaluation import (
    CvResult,
    EvaluationError,
    GridSpec,
    LeakError,
    Metrics,
    cross_dataset_eval,
    cross_validate,
    f_beta,
    grid_search,
    stratified_k_fold,
    two_step_classify,
    write_score_table,
)


class TestFBeta:
    def test_equal_precision_recall_is_identity(self):
        assert f_beta(0.91, 0.91, 0.5) == pytest.approx(0.91, abs=1e-12)

    def test_hand_value(self):
        assert f_beta(0.8, 0.4, 0.5) == pytest.approx(2 / 3, abs=1e-4)

    def test_zero_recall(self):
        assert f_beta(0.9, 0.0, 0.5) == 0.0

    def test_zero_both(self):
        assert f_beta(0.0, 0.0, 0.5) == 0.0

    def test_oracle_over_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, fp, fn = rng.integers(0, 200, size=3)
            m = Metrics.from_counts(int(tp), int(fp), int(fn), 0, beta=0.5)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            denom = 0.25 * p + r
            oracle = 1.25 * p * r / denom if denom else 0.0
            assert abs(m.f_beta - oracle) <= 1e-12

    def test_beta_overvalues_precision(self):
        # for p > r the order is F_0.5 > F_1 > F_2; it reverses for p < r
        for p, r in [(0.9, 0.3), (0.8, 0.5), (0.7, 0.69)]:
            assert f_beta(p, r, 0.5) > f_beta(p, r, 1.0) > f_beta(p, r, 2.0)
            assert f_beta(r, p, 0.5) < f_beta(r, p, 1.0) < f_beta(r, p, 2.0)


class TestStratifiedKFold:
    def test_balanced_five_five(self):
        y = [1] * 5 + [0] * 5
        folds = stratified_k_fold(y, 5, seed=0)
        for _, test_idx in folds:
            labels = [y[i] for i in test_idx]
            assert sorted(labels) == [0, 1]

    def test_ten_pos_three_neg(self):
        y = [1] * 10 + [0] * 3
        folds = stratified_k_fold(y, 3, seed=1)
        for _, test_idx in folds:
            assert sum(1 for i in test_idx if y[i] == 0) == 1

    def test_class_smaller_than_k_is_error(self):
        with pytest.raises(EvaluationError, match="fewer than k"):
            stratified_k_fold([1, 0, 0, 0], 2)

    def test_partition_and_proportionality_over_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(20, 500))
            pos_share = float(rng.uniform(0.15, 0.85))
            y = (rng.random(n) < pos_share).astype(int)
            k = int(rng.integers(2, 11))
            counts = np.bincount(y, minlength=2)
            if counts.min() < k:
                continue
            folds = stratified_k_fold(y, k, seed=int(rng.integers(1 << 31)))
            all_test = np.concatenate([test for _, test in folds])
            assert len(all_test) == n
            assert len(np.unique(all_test)) == n
            for train_idx, test_idx in folds:
                assert len(np.intersect1d(train_idx, test_idx)) == 0
                for cls in (0, 1):
                    exact = counts[cls] / k
                    got = int(np.sum(y[test_idx] == cls))
                    assert abs(got - exact) <= 1.0

    def test_deterministic_given_seed(self):
        y = [0, 1] * 20
        a = stratified_k_fold(y, 4, seed=3)
        b = stratified_k_fold(y, 4, seed=3)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)


class ConstantPipeline:
    def __init__(self, value: int):
        self.value = value

    def fit(self, items, y):
        return self

    def predict(self, items):
        return np.full(len(items), self.value, dtype=int)


class VectorSvmPipeline:
    def __init__(self):
        self.model = None

    def fit(self, items, y):
        self.model = train_classifier("linear_svm", np.asarray(items), y,
                                      SvmHyperparams(C=0.5, tolerance=1e-8))
        return self

    def predict(self, items):
        return self.model.predict_many(np.asarray(items))


class TestCrossValidate:
    def _items(self, n=40, gap=4.0, seed=0):
        rng = np.random.default_rng(seed)
        y = np.array([0, 1] * (n // 2))
        X = rng.normal(size=(n, 2)) + gap * y[:, None]
        return X, y

    def test_constant_positive_pipeline_has_recall_one(self):
        X, y = self._items()
        result = cross_validate(lambda seed: ConstantPipeline(1), list(X), y, k=4)
        for m in result.fold_metrics:
            assert m.recall == 1.0

    def test_constant_negative_pipeline_has_recall_zero(self):
        X, y = self._items()
        result = cross_validate(lambda seed: ConstantPipeline(0), list(X), y, k=4)
        for m in result.fold_metrics:
            assert m.recall == 0.0

    def test_separable_svm_perfect_f(self):
        X, y = self._items(n=60, gap=6.0)
        result = cross_validate(lambda seed: VectorSvmPipeline(), list(X), y, k=10)
        assert result.mean.f_beta == pytest.approx(1.0)

    def test_aggregate_is_mean_of_folds(self):
        X, y = self._items(n=40, gap=1.0, seed=3)
        result = cross_validate(lambda seed: VectorSvmPipeline(), list(X), y, k=4)
        assert result.mean.precision == pytest.approx(
            np.mean([m.precision for m in result.fold_metrics]))
        assert result.mean.f_beta == pytest.approx(
            np.mean([m.f_beta for m in result.fold_metrics]))

    def test_fold_assignment_partitions(self):
        X, y = self._items()
        result = cross_validate(lambda seed: ConstantPipeline(1), list(X), y, k=4)
        assignment = np.array(result.fold_assignment)
        assert len(assignment) == len(y)
        assert set(assignment) == set(range(4))

    def test_leaking_transformer_rejected(self):
        items = [SimpleNamespace(id=f"c{i}") for i in range(20)]
        y = np.array([0, 1] * 10)
        all_ids = frozenset(item.id for item in items)

        class LeakyPipeline(ConstantPipeline):
            def __init__(self):
                super().__init__(1)

            def fitted_ids(self):
                return all_ids  # pretends to have seen the whole dataset

        with pytest.raises(LeakError, match="test-fold"):
            cross_validate(lambda seed: LeakyPipeline(), items, y, k=4)

    def test_honest_fitted_ids_accepted(self):
        items = [SimpleNamespace(id=f"c{i}") for i in range(20)]
        y = np.array([0, 1] * 10)

        class HonestPipeline(ConstantPipeline):
            def __init__(self):
                super().__init__(1)
                self._seen = None

            def fit(self, items, y):
                self._seen = frozenset(item.id for item in items)
                return self

            def fitted_ids(self):
                return self._seen

        result = cross_validate(lambda seed: HonestPipeline(), items, y, k=4)
        assert len(result.fold_metrics) == 4

    def test_pipeline_error_names_fold(self):
        class FailingPipeline(ConstantPipeline):
            def fit(self, items, y):
                raise RuntimeError("boom")

        X, y = self._items()
        with pytest.raises(EvaluationError, match="fold 0"):
            cross_validate(lambda seed: FailingPipeline(1), list(X), y, k=4)


class FlippablePipeline:
    """Grid-search probe: flip=True inverts every prediction."""

    def __init__(self, params, seed=0):
        self.flip = params.get("flip", False)
        self.inner = VectorSvmPipeline()

    def fit(self, items, y):
        self.inner.fit(items, y)
        return self

    def predict(self, items):
        pred = self.inner.predict(items)
        return 1 - pred if self.flip else pred


class CoinPipeline(ConstantPipeline):
    """Grid-search probe: coin-flip predictions drawn from the fold seed, so
    its scores depend on both the split and the seed."""

    def __init__(self, seed):
        self.seed = seed

    def predict(self, items):
        return np.random.default_rng(self.seed).integers(0, 2, len(items))


class TestGridSearch:
    def _items(self, n=36, gap=5.0, seed=2):
        rng = np.random.default_rng(seed)
        y = np.array([0, 1] * (n // 2))
        X = rng.normal(size=(n, 2)) + gap * y[:, None]
        return list(X), y

    def test_identical_configurations_score_identically(self):
        items, y = self._items(n=60)
        grid = GridSpec(params={"C": [1.0, 1.0, 1.0]})
        result = grid_search(lambda p, s: CoinPipeline(s), grid, items, y, k=3, seed=4)
        rows = [{k: v for k, v in row.items() if k != "config"} for row in result.rows]
        assert len(rows) == 12
        assert rows[:4] == rows[4:8] == rows[8:]

    def test_one_configuration_scores_as_cross_validate(self):
        items, y = self._items(n=60)
        result = grid_search(lambda p, s: CoinPipeline(s), GridSpec(params={"C": [1.0]}),
                             items, y, k=3, seed=4)
        cv = cross_validate(CoinPipeline, items, y, k=3, seed=4)
        assert result.best_result == cv
        assert [row["f_beta"] for row in result.rows[:3]] \
            == [m.f_beta for m in cv.fold_metrics]

    def test_single_configuration_returned(self):
        items, y = self._items()
        grid = GridSpec(params={"flip": [False]})
        result = grid_search(lambda p, s: FlippablePipeline(p, s), grid, items, y, k=3)
        assert result.best_params == {"flip": False, "select_k": "all"}

    def test_planted_value_wins(self):
        items, y = self._items()
        grid = GridSpec(params={"flip": [True, False]})
        result = grid_search(lambda p, s: FlippablePipeline(p, s), grid, items, y, k=3)
        assert result.best_params["flip"] is False
        assert result.best_score == pytest.approx(1.0)

    def test_tie_broken_by_enumeration_order(self):
        items, y = self._items()
        grid = GridSpec(params={"tag": ["first", "second"]})

        class TaggedPipeline(ConstantPipeline):
            def __init__(self, params, seed):
                super().__init__(1)

        result = grid_search(lambda p, s: TaggedPipeline(p, s), grid, items, y, k=3)
        assert result.best_params["tag"] == "first"

    def test_score_table_has_fold_and_mean_rows(self, tmp_path):
        items, y = self._items()
        grid = GridSpec(params={"flip": [False, True]})
        result = grid_search(lambda p, s: FlippablePipeline(p, s), grid, items, y, k=3)
        mean_rows = [r for r in result.rows if r["fold"] == "mean"]
        fold_rows = [r for r in result.rows if r["fold"] != "mean"]
        assert len(mean_rows) == 2
        assert len(fold_rows) == 6
        out = tmp_path / "scores.csv"
        write_score_table(result.rows, out)
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert "precision" in header and "f_beta" in header

    def test_empty_grid_is_error(self):
        items, y = self._items()
        with pytest.raises(EvaluationError, match="empty grid"):
            grid_search(lambda p, s: FlippablePipeline(p, s),
                        GridSpec(params={"flip": []}), items, y)

    def test_feature_count_options_enumerated(self):
        grid = GridSpec(params={"C": [0.5, 1.0]}, feature_counts=(10, 50, "all"))
        combos = grid.combinations()
        assert len(combos) == 6
        assert {c["select_k"] for c in combos} == {10, 50, "all"}


def _threshold_model(w, b, calibration=None, registry_hash=None):
    return TrainedModel(kind="linear_svm", inner=LinearSvm(np.array(w), b, SvmHyperparams()),
                        hyperparams=SvmHyperparams(), calibration=calibration,
                        registry_hash=registry_hash)


class TestTwoStepClassify:
    def test_nonmeta_gate_short_circuits(self):
        meta = _threshold_model([1.0], -10.0)  # always predicts non-meta
        addressee = {"Media": _threshold_model([1.0], 10.0, calibration=(-1.0, -10.0))}
        result = two_step_classify(meta, addressee, np.array([0.0]))
        assert result.is_meta is False
        assert result.addressees == ()
        assert result.confidences == {}

    def test_confident_addressee_assigned(self):
        meta = _threshold_model([1.0], 10.0)  # always meta
        # calibration (-6, 0): confidence(f=1) = sigmoid(6) ~ 0.9975
        addressee = {"Moderator": _threshold_model([1.0], 0.0, calibration=(-6.0, 0.0))}
        result = two_step_classify(meta, addressee, np.array([1.0]), threshold=0.8)
        assert result.is_meta is True
        assert result.addressees == ("Moderator",)
        assert result.confidences["Moderator"] > 0.99

    def test_threshold_one_always_empty(self):
        meta = _threshold_model([1.0], 10.0)
        addressee = {label: _threshold_model([1.0], 5.0, calibration=(-8.0, 0.0))
                     for label in ("Media", "Journalist", "Moderator")}
        result = two_step_classify(meta, addressee, np.array([3.0]), threshold=1.0)
        assert result.is_meta is True
        assert result.addressees == ()

    def test_threshold_is_strict(self):
        meta = _threshold_model([1.0], 10.0)
        addressee = {"Media": _threshold_model([1.0], 0.0, calibration=(0.0, 0.0))}
        # constant confidence exactly 0.5: not greater than threshold 0.5
        result = two_step_classify(meta, addressee, np.array([1.0]), threshold=0.5)
        assert result.addressees == ()

    @settings(max_examples=200, deadline=None)
    @given(meta_b=st.floats(-3.0, 3.0), x=st.floats(-3.0, 3.0),
           labels=st.lists(st.sampled_from(ADDRESSEE_LABELS), unique=True),
           models=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                                     st.floats(-10.0, 0.0), st.floats(-5.0, 5.0)),
                           min_size=3, max_size=3),
           thresholds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_raising_threshold_shrinks_addressees(self, meta_b, x, labels, models,
                                                  thresholds):
        # calibrated addressee models, some of them skipped
        meta = _threshold_model([1.0], meta_b)
        addressees = {label: _threshold_model([w], b, calibration=(a, c))
                      for label, (w, b, a, c) in zip(labels, models)}
        low, high = (two_step_classify(meta, addressees, np.array([x]), threshold=t)
                     for t in sorted(thresholds))
        assert high.is_meta == low.is_meta
        assert set(high.addressees) <= set(low.addressees)

    def test_registry_mismatch_rejected(self):
        meta = _threshold_model([1.0], 10.0, registry_hash="h1")
        addressee = {"Media": _threshold_model([1.0], 0.0, calibration=(-1.0, 0.0),
                                               registry_hash="h2")}
        with pytest.raises(RegistryMismatch):
            two_step_classify(meta, addressee, np.array([1.0]))


class TestCrossDatasetEval:
    def test_same_dataset_equals_in_sample(self, small_dataset):
        class MajorityPipeline(ConstantPipeline):
            def __init__(self):
                super().__init__(1)

        results = cross_dataset_eval(small_dataset, small_dataset,
                                     lambda seed: MajorityPipeline(), classes=("Meta",))
        in_sample = MajorityPipeline().fit(list(small_dataset), None) \
            .predict(list(small_dataset))
        y = np.array([1 if "Meta" in ls else 0 for _, ls in small_dataset])
        expected = Metrics.from_predictions(y, in_sample, 0.5)
        assert results["Meta"] == expected

    def test_missing_class_is_error(self, small_dataset):
        from metacomment.corpus import LabeledDataset
        no_moderator = LabeledDataset(
            tuple(e for e in small_dataset if "Moderator" not in e[1]), "sub")
        with pytest.raises(EvaluationError, match="missing"):
            cross_dataset_eval(no_moderator, small_dataset,
                               lambda seed: ConstantPipeline(1),
                               classes=("Meta", "Moderator"))
