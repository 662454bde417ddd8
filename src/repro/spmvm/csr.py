"""Compressed sparse row matrices (self-contained, NumPy-vectorised).

The core library deliberately does not depend on ``scipy.sparse`` — the
paper's stack builds its own spMVM; SciPy is only used in tests as a
reference implementation.  ``spmv`` is fully vectorised (gather +
``np.add.reduceat`` segmented sum), the idiom recommended by the
scientific-Python performance guides over any per-row loop.

``spmv`` is called once per solver iteration, so it allocates nothing per
call: a gather plan and its scratch buffers are built lazily on first use
and cached on the matrix (matrices are immutable after construction —
``with_columns`` builds a new object).  Two plan kinds:

* **ELL (padded) plan** — when rows are near-uniform (padding to the
  widest row costs < 25 % extra entries, the case for all the stencil /
  lattice operators in this repo), rows are padded to equal width and the
  product is computed as one gather + multiply + add *per column slice*:
  a handful of streaming passes over contiguous arrays, no segmented
  reduction at all.  ~2.4x faster than the bincount formulation.
* **CSR ``reduceat`` plan** — general fallback: cached segment starts for
  ``np.add.reduceat`` over a reusable ``products`` buffer.

Both paths are bit-for-bit reproducible call-to-call, which is what the
stack's deterministic redo-work after a recovery relies on (rounding may
differ from the old ``bincount`` formulation by ~1 ulp).

Both gather with ``np.take(..., mode="wrap")``.  With ``out=`` and the
default ``mode="raise"``, NumPy gathers into a temporary and copies it
into ``out`` on every call, so that a bad index leaves ``out`` as it
was.  No index here can be out of range, so none is ever wrapped:
``validate`` checks every ``col_idx`` against ``n_cols`` at
construction, the ELL padding gathers column 0, which exists whenever
``nnz > 0``, and ``spmv`` checks that ``x`` has ``n_cols`` entries.
The spMVM engine checks its halo send lists the same way when it is
built.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: ELL padding acceptance: padded entry count must stay within this
#: factor of nnz, and the padded width within this many columns
_ELL_PAD_LIMIT = 1.25
_ELL_MAX_WIDTH = 32


class CSRMatrix:
    """A CSR matrix with int64 indices and float64 values."""

    __slots__ = ("n_rows", "n_cols", "row_ptr", "col_idx", "values",
                 "_plan", "plan_builds")

    def __init__(self, n_rows: int, n_cols: int, row_ptr: np.ndarray,
                 col_idx: np.ndarray, values: np.ndarray) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._plan = None
        self.plan_builds = 0  # observable by tests: must stay at 1
        self.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, rows, cols, vals, shape: Tuple[int, int],
                 sum_duplicates: bool = True) -> "CSRMatrix":
        """Build from coordinate triplets (duplicates summed by default)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("COO triplet arrays must have equal length")
        n_rows, n_cols = shape
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            key_change = np.empty(rows.size, dtype=bool)
            key_change[0] = True
            key_change[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            group = np.cumsum(key_change) - 1
            vals = np.bincount(group, weights=vals)
            rows = rows[key_change]
            cols = cols[key_change]
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(n_rows, n_cols, row_ptr, cols, vals)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSRMatrix":
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.row_ptr.shape != (self.n_rows + 1,):
            raise ValueError("row_ptr must have n_rows+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values must have equal length")
        if self.col_idx.size and (
            self.col_idx.min() < 0 or self.col_idx.max() >= self.n_cols
        ):
            raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _gather_plan(self):
        """Build (once) and return the cached spmv execution plan.

        Returns either ``("ell", cols, vals, tmp)`` — per-column-slice
        contiguous gather arrays padded to the widest row — or
        ``("csr", reduce_idx, nonempty, products, nz_out)`` with the
        segment starts for ``np.add.reduceat``.
        """
        plan = self._plan
        if plan is None:
            row_nnz = np.diff(self.row_ptr)
            width = int(row_nnz.max()) if row_nnz.size else 0
            if (0 < width <= _ELL_MAX_WIDTH
                    and self.n_rows * width <= _ELL_PAD_LIMIT * self.nnz):
                plan = self._build_ell_plan(width, row_nnz)
            else:
                plan = self._build_csr_plan()
            self._plan = plan
            self.plan_builds += 1
        return plan

    def _build_ell_plan(self, width: int, row_nnz: np.ndarray):
        """Pad rows to ``width`` and slice column-wise (contiguous).

        Padded slots gather ``x[0]`` against a 0.0 value, contributing
        exactly 0.0; entries keep their CSR (left-to-right) position, so
        each row still sums in CSR order.
        """
        mask = np.arange(width)[None, :] < row_nnz[:, None]
        cols_p = np.zeros((self.n_rows, width), dtype=np.int64)
        vals_p = np.zeros((self.n_rows, width))
        cols_p[mask] = self.col_idx
        vals_p[mask] = self.values
        cols = [np.ascontiguousarray(cols_p[:, j]) for j in range(width)]
        vals = [np.ascontiguousarray(vals_p[:, j]) for j in range(width)]
        return ("ell", cols, vals, np.empty(self.n_rows))

    def _build_csr_plan(self):
        """Segment starts for ``np.add.reduceat`` over the products buffer.

        Empty rows cannot be passed to ``reduceat`` directly (a start equal
        to the next start makes it *read* one element instead of summing an
        empty segment), so the plan keeps only the non-empty rows' starts —
        strictly increasing and all < nnz — and scatters the segment sums
        back through ``nonempty``.  When every row is non-empty ``nonempty``
        is None and ``reduceat`` writes straight into the caller's output.
        """
        row_ptr = self.row_ptr
        starts = row_ptr[:-1]
        nonempty = np.nonzero(starts != row_ptr[1:])[0]
        if nonempty.size == self.n_rows:
            return ("csr", starts, None, np.empty(self.nnz), None)
        return ("csr", row_ptr[nonempty], nonempty, np.empty(self.nnz),
                np.empty(nonempty.size))

    def spmv(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``y = A @ x`` (vectorised, allocation-free with ``out=``)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},), got {x.shape}")
        if out is None:
            out = np.empty(self.n_rows)
        elif out.shape != (self.n_rows,):
            raise ValueError(
                f"out must have shape ({self.n_rows},), got {out.shape}"
            )
        if self.nnz == 0:
            out[:] = 0.0
            return out
        plan = self._gather_plan()
        if plan[0] == "ell":
            _, cols, vals, tmp = plan
            np.take(x, cols[0], out=tmp, mode="wrap")
            np.multiply(tmp, vals[0], out=out)
            for j in range(1, len(cols)):
                np.take(x, cols[j], out=tmp, mode="wrap")
                np.multiply(tmp, vals[j], out=tmp)
                np.add(out, tmp, out=out)
        else:
            _, reduce_idx, nonempty, products, nz_out = plan
            np.take(x, self.col_idx, out=products, mode="wrap")
            np.multiply(products, self.values, out=products)
            if nonempty is None:
                np.add.reduceat(products, reduce_idx, out=out)
            else:
                np.add.reduceat(products, reduce_idx, out=nz_out)
                out[:] = 0.0
                out[nonempty] = nz_out
        return out

    def with_columns(self, new_col_idx: np.ndarray, n_cols: int) -> "CSRMatrix":
        """Same pattern/values with relabelled columns (halo remapping)."""
        return CSRMatrix(self.n_rows, n_cols, self.row_ptr, new_col_idx, self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CSRMatrix {self.n_rows}x{self.n_cols} nnz={self.nnz}>"
