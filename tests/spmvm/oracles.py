"""Reference oracles for the spMVM tests: exact answers that no part of
the library computes for itself."""

import numpy as np

from repro.spmvm import CSRMatrix


def from_dense(dense, tol=0.0):
    """The CSR matrix of a dense array's entries larger than ``tol``."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(np.abs(dense) > tol)
    return CSRMatrix.from_coo(rows, cols, dense[rows, cols], dense.shape,
                              sum_duplicates=False)


def to_dense(matrix):
    """The dense array of a CSR matrix: the tests' dense reference."""
    dense = np.zeros(matrix.shape)
    row_of = np.repeat(np.arange(matrix.n_rows, dtype=np.int64),
                       matrix.row_nnz())
    dense[row_of, matrix.col_idx] = matrix.values  # no dups post-CSR
    return dense


def is_symmetric(matrix, tol=1e-12):
    """Numeric symmetry check in O(nnz log nnz) time and O(nnz) memory.

    Forms ``A - A^T`` as merged COO triplets (``from_coo`` sorts and
    sums duplicates, so matching ``(i, j)``/``(j, i)`` pairs cancel and
    unmatched entries survive with their value) and tests that nothing
    larger than ``tol`` remains, without densifying the matrix.
    """
    if matrix.n_rows != matrix.n_cols:
        return False
    if matrix.nnz == 0:
        return True
    row_of = np.repeat(np.arange(matrix.n_rows, dtype=np.int64),
                       matrix.row_nnz())
    diff = CSRMatrix.from_coo(
        np.concatenate([row_of, matrix.col_idx]),
        np.concatenate([matrix.col_idx, row_of]),
        np.concatenate([matrix.values, -matrix.values]),
        matrix.shape,
    )
    return diff.nnz == 0 or bool(np.abs(diff.values).max() <= tol)


def laplacian2d_eigenvalues(gen):
    """All eigenvalues of a :class:`Laplacian2D`, ascending: the classic
    ``4 - 2cos(kx·h) - 2cos(ky·h)`` family."""
    kx = np.arange(1, gen.nx_grid + 1) * np.pi / (gen.nx_grid + 1)
    ky = np.arange(1, gen.ny_grid + 1) * np.pi / (gen.ny_grid + 1)
    lam = (4.0 - 2.0 * np.cos(kx)[:, None] - 2.0 * np.cos(ky)[None, :]).ravel()
    return np.sort(lam)


def symmetrized_full(gen):
    """``(A + A^T) / 2`` of a generator's whole matrix (test sizes only)."""
    dense = to_dense(gen.full())
    return from_dense((dense + dense.T) / 2.0)
