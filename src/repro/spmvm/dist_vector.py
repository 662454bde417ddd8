"""Distributed vectors: local NumPy blocks + team-wide reductions.

Local operations (axpy, scale, copy) are plain vectorised NumPy; global
reductions (dot, norm) are the team's guarded allreduce.
"""

from __future__ import annotations

import math
from typing import Any, Generator

import numpy as np

from repro.gaspi.constants import AllreduceOp
from repro.spmvm.team import Team


class DistVector:
    """One rank's block of a globally distributed vector."""

    __slots__ = ("team", "local")

    def __init__(self, team: Team, local: np.ndarray) -> None:
        self.team = team
        self.local = np.asarray(local, dtype=np.float64)

    # ------------------------------------------------------------------
    # local (embarrassingly parallel) operations
    # ------------------------------------------------------------------
    def scale(self, alpha: float) -> "DistVector":
        self.local *= alpha
        return self

    def axpy(self, alpha: float, x: "DistVector") -> "DistVector":
        """``self += alpha * x``."""
        self.local += alpha * x.local
        return self

    # ------------------------------------------------------------------
    # global reductions (generators)
    # ------------------------------------------------------------------
    def _allreduce_sum(self, partial: float) -> Generator[Any, Any, float]:
        total = yield from self.team.allreduce(np.array([partial]),
                                               AllreduceOp.SUM)
        return float(total[0])

    def dot(self, other: "DistVector") -> Generator[Any, Any, float]:
        """Generator: global inner product."""
        partial = float(self.local @ other.local)
        total = yield from self._allreduce_sum(partial)
        return total

    def norm(self) -> Generator[Any, Any, float]:
        """Generator: global 2-norm."""
        partial = float(self.local @ self.local)
        total = yield from self._allreduce_sum(partial)
        return math.sqrt(total)

    def __len__(self) -> int:
        return len(self.local)
