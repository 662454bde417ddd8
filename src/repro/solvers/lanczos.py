"""The Lanczos eigenvalue iteration (paper Algorithm 1).

``lanczos_sequential`` is the single-process reference used by tests;
:class:`DistributedLanczos` runs the identical recurrence on the spMVM
substrate — one distributed matrix-vector product, one global dot and one
global norm per step, exactly the communication pattern whose fault
tolerance the paper studies.

The solver's entire restartable state (two Lanczos vectors, the alpha/beta
coefficients and the step counter) is exposed as a checkpoint payload —
this *is* the paper's periodic checkpoint content: "two consecutive
Lanczos vectors, alpha, and beta".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.dist_vector import DistVector
from repro.spmvm.spmv import SpMVMEngine
from repro.solvers.tridiag import lanczos_matrix_eigenvalues

#: below this norm the Krylov space is exhausted (lucky breakdown)
BREAKDOWN_TOL = 1e-14


def starting_vector(n: int, offset: int = 0) -> np.ndarray:
    """Deterministic, decomposition-independent start vector block.

    Entry for global index ``g`` is ``0.5 + u(g)`` with a hash-derived
    uniform draw: generic enough to overlap all eigenvectors (no accidental
    alignment with lattice symmetries, which would cause early breakdown),
    yet reproducible across any row distribution — required for
    deterministic redo-work after a recovery.
    """
    from repro.spmvm.matgen.base import hash_uniform

    g = np.arange(offset, offset + n, dtype=np.int64)
    return 0.5 + hash_uniform(g, seed=0x1A5C205)


def lanczos_sequential(matrix: CSRMatrix, n_steps: int,
                       v0: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Reference Lanczos: returns ``(alpha[0..m), beta[0..m))``.

    ``beta[k]`` is the recurrence's ``beta_{k+2}`` — the coupling produced
    *by* step ``k`` (so ``beta[:m-1]`` are the off-diagonals of ``T_m``).
    """
    n = matrix.n_rows
    v = starting_vector(n) if v0 is None else np.asarray(v0, dtype=float).copy()
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    beta_j = 0.0
    alphas: List[float] = []
    betas: List[float] = []
    for _ in range(n_steps):
        w = matrix.spmv(v)
        a = float(w @ v)
        w -= a * v + beta_j * v_prev
        b = float(np.linalg.norm(w))
        alphas.append(a)
        betas.append(b)
        if b < BREAKDOWN_TOL:
            break
        v_prev, v = v, w / b
        beta_j = b
    return np.array(alphas), np.array(betas)


@dataclass
class LanczosState:
    """Restartable state of one rank's share of the iteration."""

    v_prev: np.ndarray
    v_cur: np.ndarray
    alpha: List[float] = field(default_factory=list)
    beta: List[float] = field(default_factory=list)

    @property
    def step(self) -> int:
        return len(self.alpha)

    @property
    def last_beta(self) -> float:
        return self.beta[-1] if self.beta else 0.0

    @property
    def broke_down(self) -> bool:
        return bool(self.beta) and self.beta[-1] < BREAKDOWN_TOL

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, np.ndarray]:
        return {
            "lz.v_prev": self.v_prev,
            "lz.v_cur": self.v_cur,
            "lz.alpha": np.array(self.alpha),
            "lz.beta": np.array(self.beta),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray]) -> "LanczosState":
        return cls(
            v_prev=np.array(payload["lz.v_prev"], dtype=np.float64),
            v_cur=np.array(payload["lz.v_cur"], dtype=np.float64),
            alpha=[float(a) for a in payload["lz.alpha"]],
            beta=[float(b) for b in payload["lz.beta"]],
        )

    def eigenvalue_estimates(self) -> np.ndarray:
        """Eigenvalues of the current projected matrix ``T_j`` (QL method)."""
        return lanczos_matrix_eigenvalues(np.array(self.alpha), np.array(self.beta))

    def min_eigenvalue(self) -> float:
        est = self.eigenvalue_estimates()
        return float(est[0]) if est.size else float("nan")


class DistributedLanczos:
    """One rank's executor of the distributed Lanczos recurrence."""

    def __init__(self, engine: SpMVMEngine,
                 state: Optional[LanczosState] = None,
                 time_model: Any = None) -> None:
        self.engine = engine
        self.time_model = time_model
        if state is None:
            n_local = engine.n_local
            offset, _ = engine.matrix.partition().range_of(engine.team.logical_rank)
            state = LanczosState(
                v_prev=np.zeros(n_local),
                v_cur=starting_vector(n_local, offset),
            )
            self._normalized = False
        else:
            self._normalized = True  # restored states are mid-iteration
        self.state = state
        # spMVM output scratch; after each step the retired v_prev buffer is
        # recycled into it, so steady-state iteration allocates nothing.
        self._w: Optional[np.ndarray] = None

    def _vec(self, data: np.ndarray) -> DistVector:
        return DistVector(self.engine.team, data)

    # ------------------------------------------------------------------
    def step(self) -> Generator[Any, Any, Tuple[float, float]]:
        """Generator: one Lanczos step (Algorithm 1's LANCZOS-STEP)."""
        from repro.sim import Sleep

        st = self.state
        if not self._normalized:
            v = self._vec(st.v_cur)
            norm = yield from v.norm()
            v.scale(1.0 / norm)
            self._normalized = True

        j = st.step
        v_cur = self._vec(st.v_cur)
        v_prev = self._vec(st.v_prev)
        scratch = self._w
        if scratch is None or scratch.shape != st.v_cur.shape:
            scratch = np.empty_like(st.v_cur)
        self._w = None
        w_local = yield from self.engine.multiply(st.v_cur, out=scratch, tag=j)
        w = self._vec(w_local)
        a = yield from w.dot(v_cur)
        w.axpy(-a, v_cur)
        w.axpy(-st.last_beta, v_prev)
        b = yield from w.norm()
        st.alpha.append(float(a))
        st.beta.append(float(b))
        if self.time_model is not None:
            yield Sleep(self.time_model.vector_ops_time(len(st.v_cur)))
        if b >= BREAKDOWN_TOL:
            np.multiply(w.local, 1.0 / b, out=w.local)
            self._w = st.v_prev  # retire the old v_prev into the scratch slot
            st.v_prev = st.v_cur
            st.v_cur = w.local
        return (float(a), float(b))

    def run(self, n_steps: int) -> Generator[Any, Any, LanczosState]:
        """Generator: iterate up to ``n_steps`` (or to breakdown).

        Returns the final :class:`LanczosState`.
        """
        while self.state.step < n_steps:
            yield from self.step()
            if self.state.broke_down:
                break
        return self.state
