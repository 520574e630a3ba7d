"""Compressed sparse row (CSR) matrices of floats, in numpy alone.

The feature route's matrices are mostly zeros, the tf-idf columns above all,
so they are built, sliced, standardized and classified from their non-zeros.
A CsrMatrix keeps each row's column indices ascending and stores no zeros.
It has no __array__: densifying is always an explicit toarray().
"""

from __future__ import annotations

import numpy as np


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """Row pointers of values sorted by row."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


class CsrMatrix:
    """Row i's values are data[indptr[i]:indptr[i + 1]], in the columns
    indices[indptr[i]:indptr[i + 1]]."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_triplets(cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                      shape: tuple) -> "CsrMatrix":
        """The matrix of (row, column, value) cells at distinct positions, in
        any order; zero values are not stored."""
        kept = values != 0.0
        rows, cols, values = rows[kept], cols[kept], values[kept]
        # positions are distinct, so an unstable sort of one key orders them
        order = np.argsort(rows * shape[1] + cols)
        return cls(values[order], cols[order], _indptr(rows, shape[0]), shape)

    @classmethod
    def from_dense(cls, X) -> "CsrMatrix":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"a dense matrix must be 2-D, got {X.ndim} dimensions")
        rows, cols = np.nonzero(X)
        return cls(X[rows, cols], cols, _indptr(rows, len(X)), X.shape)

    def row_ids(self) -> np.ndarray:
        """The row of each stored value."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        X = np.zeros(self.shape)
        X[self.row_ids(), self.indices] = self.data
        return X

    def __getitem__(self, rows) -> "CsrMatrix":
        """The rows that an index, a slice or an index array selects, in
        that order."""
        rows = np.arange(self.shape[0])[rows].reshape(-1)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # each selected value's position: its row's start plus its rank in the row
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrMatrix(self.data[at], self.indices[at], indptr,
                         (len(rows), self.shape[1]))

    def columns(self, cols: np.ndarray) -> "CsrMatrix":
        """The distinct columns cols, in that order."""
        new = np.full(self.shape[1], -1, dtype=np.intp)
        new[cols] = np.arange(len(cols))
        mapped = new[self.indices]
        kept = mapped >= 0
        return CsrMatrix.from_triplets(self.row_ids()[kept], mapped[kept], self.data[kept],
                                       (self.shape[0], len(cols)))

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """X @ w for a vector w. Each row's products are summed in column
        order, so a row's value depends on that row alone."""
        return np.bincount(self.row_ids(), weights=self.data * w[self.indices],
                           minlength=self.shape[0])


def as_csr(X) -> CsrMatrix:
    """X when it is a CsrMatrix, else the CSR form of the dense array X, of
    which a vector is one row."""
    if isinstance(X, CsrMatrix):
        return X
    return CsrMatrix.from_dense(np.atleast_2d(np.asarray(X, dtype=float)))
