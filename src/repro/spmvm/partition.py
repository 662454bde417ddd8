"""Row-block partitioning of the global matrix across logical worker ranks."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class RowPartition:
    """Contiguous, balanced row blocks: block ``i`` gets rows
    ``[offsets[i], offsets[i+1])``; the first ``n_rows % n_parts`` blocks
    are one row larger."""

    __slots__ = ("n_rows", "n_parts", "offsets")

    def __init__(self, n_rows: int, n_parts: int) -> None:
        if n_parts <= 0:
            raise ValueError("need at least one part")
        if n_rows < 0:
            raise ValueError("negative row count")
        self.n_rows = int(n_rows)
        self.n_parts = int(n_parts)
        base, extra = divmod(self.n_rows, self.n_parts)
        sizes = np.full(self.n_parts, base, dtype=np.int64)
        sizes[:extra] += 1
        self.offsets = np.zeros(self.n_parts + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])

    # ------------------------------------------------------------------
    def range_of(self, part: int) -> Tuple[int, int]:
        """Global row range ``[r0, r1)`` of logical rank ``part``."""
        self._check(part)
        return int(self.offsets[part]), int(self.offsets[part + 1])

    def owner(self, row) -> np.ndarray:
        """Owning logical rank(s) of global row index/array ``row``."""
        row = np.asarray(row, dtype=np.int64)
        if row.size and (row.min() < 0 or row.max() >= max(self.n_rows, 1)):
            raise ValueError("row index out of range")
        return np.searchsorted(self.offsets, row, side="right") - 1

    def to_local(self, part: int, rows) -> np.ndarray:
        """Translate global rows owned by ``part`` to part-local indices."""
        r0, r1 = self.range_of(part)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < r0 or rows.max() >= r1):
            raise ValueError(f"rows not owned by part {part}")
        return rows - r0

    def sizes(self) -> List[int]:
        return list(np.diff(self.offsets).astype(int))

    def _check(self, part: int) -> None:
        if not (0 <= part < self.n_parts):
            raise ValueError(f"part {part} outside [0, {self.n_parts})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RowPartition {self.n_rows} rows over {self.n_parts} parts>"
