"""CsrMatrix, and the feature route's sparse steps against the dense
computations they replaced."""

import numpy as np
import pytest

from metacomment.classifiers import Standardizer, calibrate, train
from metacomment.features import anova_f_matrix
from metacomment.sparse import CsrMatrix, as_csr

from oracles import dense_anova_f, traced_peak


def random_matrix(seed, n=40, d=30, density=0.15):
    """Mostly zeros, with all-zero rows, a constant non-zero column and an
    all-zero column."""
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, d)) < density, rng.normal(2.0, 1.5, (n, d)), 0.0)
    X[[3, 17]] = 0.0
    X[:, 5] = 4.0
    X[:, 11] = 0.0
    return X


class TestCsrMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_dense_round_trip(self, seed):
        X = random_matrix(seed)
        A = CsrMatrix.from_dense(X)
        assert np.array_equal(A.toarray(), X)
        assert len(A.data) == np.count_nonzero(X) and np.all(A.data != 0.0)
        for row in range(len(X)):
            cols = A.indices[A.indptr[row]:A.indptr[row + 1]]
            assert np.array_equal(cols, np.flatnonzero(X[row]))

    def test_rows(self):
        X = random_matrix(1)
        A = CsrMatrix.from_dense(X)
        for rows in ([5, 3, 3, 0, 39], slice(2, 9), slice(None, None, -3), 7,
                     np.array([], dtype=int)):
            want = np.atleast_2d(X[rows])
            got = A[rows]
            assert got.shape == want.shape
            assert np.array_equal(got.toarray(), want)
            assert np.array_equal(got.indptr, CsrMatrix.from_dense(want).indptr)

    def test_columns_in_any_order(self):
        X = random_matrix(2)
        cols = np.array([29, 5, 0, 11, 17, 3])
        got = CsrMatrix.from_dense(X).columns(cols)
        assert np.array_equal(got.toarray(), X[:, cols])
        assert np.array_equal(got.indices, CsrMatrix.from_dense(X[:, cols]).indices)

    def test_triplets_in_any_order_drop_zeros(self):
        X = random_matrix(3)
        rows, cols = np.nonzero(np.ones_like(X))
        order = np.random.default_rng(0).permutation(len(rows))
        A = CsrMatrix.from_triplets(rows[order], cols[order], X[rows, cols][order], X.shape)
        assert np.array_equal(A.toarray(), X)
        assert np.all(A.data != 0.0)
        assert np.array_equal(A.indices, CsrMatrix.from_dense(X).indices)

    def test_product_rows_do_not_depend_on_their_batch(self):
        X = random_matrix(4)
        w = np.random.default_rng(4).normal(size=X.shape[1])
        A = CsrMatrix.from_dense(X)
        batch = A @ w
        assert np.allclose(batch, X @ w, rtol=0, atol=1e-12)
        assert [float((A[i] @ w)[0]) for i in range(len(X))] == batch.tolist()

    def test_as_csr(self):
        A = CsrMatrix.from_dense(random_matrix(5))
        assert as_csr(A) is A
        assert as_csr(np.array([0.0, 2.0])).shape == (1, 2)
        with pytest.raises(ValueError, match="2-D"):
            as_csr(np.zeros((2, 2, 2)))


class TestStandardizer:
    @pytest.mark.parametrize("seed", range(6))
    def test_moments_match_the_dense_ones(self, seed):
        X = random_matrix(seed, n=50 + seed, d=25)
        scaler = Standardizer.fit(CsrMatrix.from_dense(X))
        assert np.array_equal(scaler.mean, X.mean(axis=0))  # bit for bit
        std = X.std(axis=0)
        assert np.all(np.abs(scaler.std - np.where(std == 0.0, 1.0, std))
                      <= 1e-12 * scaler.std)


class TestSparseDecisionValues:
    @pytest.mark.parametrize("seed,standardize", [(0, True), (1, False), (2, True),
                                                  (3, False)])
    def test_match_the_dense_standardized_product(self, seed, standardize):
        X = random_matrix(seed)
        y = np.random.default_rng(seed).integers(0, 2, len(X))
        y[:2] = [0, 1]
        model = train("linear_svm", CsrMatrix.from_dense(X), y,
                      {"C": 0.8, "tolerance": 1e-8}, standardize=standardize)
        scaler = model.standardizer
        Xs = (X - scaler.mean) / scaler.std if standardize else X
        dense = Xs @ model.inner.w + model.inner.b
        A = CsrMatrix.from_dense(X)
        got = model.decision_values(A)
        assert np.abs(got - dense).max() <= 1e-9
        # a 1 x n slice, and a dense input through the one as_csr call
        assert np.abs(model.decision_values(A[7:8]) - dense[7:8]).max() <= 1e-9
        assert np.array_equal(model.decision_values(X), got)
        assert [float(model.decision_values(A[i])[0]) for i in range(len(X))] == \
            got.tolist()


class TestSparseAnova:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = random_matrix(seed, n=60, d=20)
        y = rng.integers(0, 2, len(X))
        y[:2] = [0, 1]
        X[:, 7] = np.where(y == 1, 3.5, 0.0)  # perfectly separated
        X[:, 8] = np.where(y == 1, 2.0, -1.0)  # separated, no zeros
        X[:, 9] = -0.3  # constant, no zeros
        got = anova_f_matrix(CsrMatrix.from_dense(X), y)
        want = dense_anova_f(X, y)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert got[7] == got[8] == np.inf and got[5] == got[9] == got[11] == 0.0
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.abs(want[finite]))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match="labels"):
            anova_f_matrix(np.ones((3, 2)), [0, 1])


def test_svm_route_holds_no_dense_matrix():
    """train, calibrate and decision_values on a 2,000 x 100,000 matrix with
    about 60 non-zeros per row: dense, it would take 1.6 GB."""
    rng = np.random.default_rng(0)
    n, d = 2000, 100_000
    cols = np.sort(rng.integers(0, d, size=(n, 60)), axis=1)
    first = np.ones(cols.shape, dtype=bool)
    first[:, 1:] = cols[:, 1:] != cols[:, :-1]
    indptr = np.concatenate(([0], np.cumsum(first.sum(axis=1))))
    X = CsrMatrix(rng.normal(size=indptr[-1]), cols[first], indptr, (n, d))
    y = (X @ rng.normal(size=d) > 0).astype(int)
    nnz = len(X.data)

    def fit_and_score():
        model = train("linear_svm", X[:1500], y[:1500], {"max_epochs": 10})
        return calibrate(model, X[1500:], y[1500:]).decision_values(X)

    values, peak = traced_peak(fit_and_score)
    assert values.shape == (n,)
    assert peak < 64 * nnz + 64 * d
