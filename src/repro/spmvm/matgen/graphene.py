"""Graphene tight-binding Hamiltonian generator.

The paper's matrix "arises from the quantum-mechanical description of
electron transport properties in graphene".  We generate the standard
nearest-neighbour tight-binding Hamiltonian of a honeycomb sheet of
``nx × ny`` unit cells (two atoms, A and B, per cell):

* hopping ``-t`` between an A atom and its (up to) three B neighbours —
  B(i,j), B(i-1,j) and B(i,j-1) with open boundaries (optionally periodic);
* an on-site term ``eps + W·(u(site) - 1/2)`` with Anderson disorder of
  strength ``W`` drawn from a decomposition-independent hash, the standard
  model for transport studies.

Site index: ``2*(i*ny + j) + a`` with ``a = 0`` for A, ``1`` for B.  The
resulting matrix is real symmetric, as the Lanczos solver requires.
"""

from __future__ import annotations

import numpy as np

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.matgen.base import RowGenerator, hash_uniform, stencil_block


class GrapheneSheet(RowGenerator):
    """Honeycomb-lattice tight-binding Hamiltonian, generated by row block."""

    def __init__(self, nx: int, ny: int, t: float = 1.0, onsite: float = 0.0,
                 disorder: float = 0.0, seed: int = 0, periodic: bool = False) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("lattice must have at least one unit cell")
        if periodic and (nx < 2 or ny < 2):
            raise ValueError("periodic boundaries need nx, ny >= 2")
        self.nx = nx
        self.ny = ny
        self.t = float(t)
        self.onsite = float(onsite)
        self.disorder = float(disorder)
        self.seed = seed
        self.periodic = periodic

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return 2 * self.nx * self.ny

    def site(self, i: int, j: int, a: int) -> int:
        """Global index of sublattice-``a`` atom in unit cell ``(i, j)``."""
        return 2 * (i * self.ny + j) + a

    def onsite_energy(self, sites: np.ndarray) -> np.ndarray:
        """Deterministic per-site on-site energies (Anderson disorder)."""
        eps = np.full(len(sites), self.onsite)
        if self.disorder:
            eps += self.disorder * (hash_uniform(sites, self.seed) - 0.5)
        return eps

    # ------------------------------------------------------------------
    def generate_rows(self, r0: int, r1: int) -> CSRMatrix:
        """Rows ``[r0, r1)``: per row the on-site term (dropped when zero)
        and the three neighbour couplings, built as one padded block."""
        self._check_range(r0, r1)
        sites = np.arange(r0, r1, dtype=np.int64)
        cell, a = np.divmod(sites, 2)
        i, j = np.divmod(cell, self.ny)
        # A couples to B in cells (i,j), (i-1,j), (i,j-1);
        # B couples to A in cells (i,j), (i+1,j), (i,j+1)
        step = 2 * a - 1
        ci = np.stack([i, i + step, i], axis=1)
        cj = np.stack([j, j, j + step], axis=1)
        if self.periodic:
            ci %= self.nx
            cj %= self.ny
            in_range = np.ones(ci.shape, dtype=bool)
        else:
            in_range = (0 <= ci) & (ci < self.nx) & (0 <= cj) & (cj < self.ny)
        energies = self.onsite_energy(sites)
        cols = np.column_stack([sites, 2 * (ci * self.ny + cj) + (1 - a)[:, None]])
        vals = np.column_stack([energies, np.full(ci.shape, -self.t)])
        keep = np.column_stack([energies != 0.0, in_range])
        return stencil_block(cols, vals, keep, self.n_rows)
