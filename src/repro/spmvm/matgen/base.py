"""Generator interface and decomposition-independent hashing utilities."""

from __future__ import annotations

import abc

import numpy as np
from numpy.typing import ArrayLike

from repro.spmvm.csr import CSRMatrix


class RowGenerator(abc.ABC):
    """Produces row blocks of a fixed global matrix on demand.

    Implementations must be *decomposition-independent*: the values of row
    ``r`` may depend only on ``r`` (and the generator's parameters), never
    on which block ``r`` was requested in — otherwise redo-work after a
    recovery would silently change the matrix.
    """

    @property
    @abc.abstractmethod
    def n_rows(self) -> int:
        """Global matrix dimension (matrices here are square)."""

    @abc.abstractmethod
    def generate_rows(self, r0: int, r1: int) -> CSRMatrix:
        """Rows ``[r0, r1)`` as a local CSR block with *global* columns."""

    # ------------------------------------------------------------------
    def full(self) -> CSRMatrix:
        """The whole matrix (test-sized inputs only)."""
        return self.generate_rows(0, self.n_rows)

    def _check_range(self, r0: int, r1: int) -> None:
        if not (0 <= r0 <= r1 <= self.n_rows):
            raise ValueError(f"bad row range [{r0}, {r1}) for {self.n_rows} rows")


def stencil_block(cols: np.ndarray, vals: ArrayLike, keep: np.ndarray,
                  n_cols: int) -> CSRMatrix:
    """CSR block from a padded ``(rows, width)`` stencil: row ``r`` keeps
    ``cols[r, k]``/``vals[r, k]`` where ``keep[r, k]``, in slot order — the
    COO order of a per-row loop, so ``from_coo`` (stable sort, duplicates
    summed in input order) returns the same bytes.  ``vals`` broadcasts."""
    rows = np.broadcast_to(np.arange(len(cols))[:, None], cols.shape)
    vals = np.broadcast_to(vals, cols.shape)
    return CSRMatrix.from_coo(rows[keep], cols[keep], vals[keep],
                              (len(cols), n_cols))


def hash_uniform(index: np.ndarray, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic uniform [0, 1) numbers keyed by integer index.

    A counter-based (splitmix64-style) hash: the draw for an index is a
    pure function of ``(index, seed, stream)``, so any row block reproduces
    the same entries regardless of decomposition — unlike a sequential RNG.
    """
    x = np.asarray(index, dtype=np.uint64).copy()
    # modular 2**64 arithmetic is the point of the mixer — silence overflow
    with np.errstate(over="ignore"):
        x += np.uint64((seed * 0x9E3779B97F4A7C15) % 2**64)
        x += np.uint64(((stream + 1) * 0xD1342543DE82EF95) % 2**64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2**64)
