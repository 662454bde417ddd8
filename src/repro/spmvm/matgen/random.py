"""Reproducible random sparse matrices (hash-based, block-independent)."""

from __future__ import annotations

import numpy as np

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.matgen.base import RowGenerator, hash_uniform


class RandomSparse(RowGenerator):
    """Fixed-degree random sparse matrix with hash-derived pattern.

    Row ``r`` has ``nnz_per_row`` entries at pseudo-random columns (plus a
    dominant diagonal if requested, which keeps the symmetrised matrix
    positive definite for CG tests).  Entry positions/values depend only on
    ``(r, k, seed)``.
    """

    def __init__(self, n: int, nnz_per_row: int = 8, seed: int = 0,
                 diagonal: float = 0.0) -> None:
        if n < 1:
            raise ValueError("matrix must have at least one row")
        if not (0 < nnz_per_row <= n):
            raise ValueError("nnz_per_row must be in [1, n]")
        self.n = n
        self.nnz_per_row = nnz_per_row
        self.seed = seed
        self.diagonal = float(diagonal)

    @property
    def n_rows(self) -> int:
        return self.n

    def generate_rows(self, r0: int, r1: int) -> CSRMatrix:
        self._check_range(r0, r1)
        n_block = r1 - r0
        k = self.nnz_per_row
        row_ids = np.repeat(np.arange(r0, r1, dtype=np.int64), k)
        slot_ids = np.tile(np.arange(k, dtype=np.int64), n_block)
        flat = row_ids * k + slot_ids
        cols = (hash_uniform(flat, self.seed, stream=1) * self.n).astype(np.int64)
        vals = hash_uniform(flat, self.seed, stream=2) * 2.0 - 1.0
        rows = np.repeat(np.arange(n_block, dtype=np.int64), k)
        if self.diagonal:
            rows = np.concatenate([rows, np.arange(n_block, dtype=np.int64)])
            cols = np.concatenate([cols, np.arange(r0, r1, dtype=np.int64)])
            vals = np.concatenate([vals, np.full(n_block, self.diagonal)])
        return CSRMatrix.from_coo(rows, cols, vals, (n_block, self.n),
                                  sum_duplicates=True)
