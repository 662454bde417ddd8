"""Discrete Laplacian generators (1D tridiagonal, 2D five-point stencil)."""

from __future__ import annotations

import numpy as np

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.matgen.base import RowGenerator, stencil_block


class Laplacian1D(RowGenerator):
    """Tridiagonal ``[-1, 2, -1]`` operator with Dirichlet boundaries."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one grid point")
        self.n = n

    @property
    def n_rows(self) -> int:
        return self.n

    def generate_rows(self, r0: int, r1: int) -> CSRMatrix:
        self._check_range(r0, r1)
        cols = np.arange(r0, r1, dtype=np.int64)[:, None] + np.arange(-1, 2)
        keep = (0 <= cols) & (cols < self.n)
        return stencil_block(cols, [-1.0, 2.0, -1.0], keep, self.n)


class Laplacian2D(RowGenerator):
    """Five-point stencil on an ``nx × ny`` grid, Dirichlet boundaries.

    Row index is ``x * ny + y``; eigenvalues are the classic
    ``4 - 2cos(kx·h) - 2cos(ky·h)`` family, handy for solver validation.
    """

    def __init__(self, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("grid must be at least 1x1")
        self.nx_grid = nx
        self.ny_grid = ny

    @property
    def n_rows(self) -> int:
        return self.nx_grid * self.ny_grid

    def generate_rows(self, r0: int, r1: int) -> CSRMatrix:
        self._check_range(r0, r1)
        ny = self.ny_grid
        r = np.arange(r0, r1, dtype=np.int64)
        x, y = np.divmod(r, ny)
        # centre, then the (x-1,y), (x+1,y), (x,y-1), (x,y+1) neighbours
        cols = np.stack([r, r - ny, r + ny, r - 1, r + 1], axis=1)
        keep = np.stack([np.ones_like(r, dtype=bool), x > 0,
                         x < self.nx_grid - 1, y > 0, y < ny - 1], axis=1)
        return stencil_block(cols, [4.0, -1.0, -1.0, -1.0, -1.0], keep,
                             self.n_rows)
