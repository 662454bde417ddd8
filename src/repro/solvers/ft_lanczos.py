"""The paper's showcase application: a fault-tolerant Lanczos eigensolver.

Sect. V restructuring, item by item:

* pre-processing (matrix generation + halo plan exchange) runs once and is
  checkpointed immediately ("each process writes a checkpoint after the
  pre-processing stage ... the rescue process is informed about the
  communicating partners") — rescues restore it instead of redoing setup;
* the periodic checkpoint holds "two consecutive Lanczos vectors, alpha,
  and beta" (plus, implicitly, the iteration count) every
  ``FTConfig.checkpoint_interval`` iterations (paper: 500);
* every blocking communication call checks the failure-ack flag and backs
  off into recovery (handled by the guard the FT layer installs on the
  team, which the spMVM library and the reductions read);
* after recovery, the program resumes from the agreed checkpoint version
  and redoes the lost iterations.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.ft.app import FTContext, FTProgram
from repro.spmvm.dist_matrix import DistMatrix, distribute_matrix
from repro.spmvm.matgen.base import RowGenerator
from repro.spmvm.spmv import SpMVMEngine
from repro.solvers.lanczos import DistributedLanczos, LanczosState
from repro.solvers.tridiag import lanczos_matrix_eigenvalues

#: the world attribute that holds the run's one-entry estimates memo
_ESTIMATES_MEMO = "_lanczos_estimates"


def _world_estimates(world: Any, state: LanczosState) -> np.ndarray:
    """``state.eigenvalue_estimates()``, solved once per world.

    Every worker ends with the same ``alpha``/``beta``, because each entry
    comes from a global reduction, so the first worker to finish solves
    ``T_j`` and the others reuse its read-only result.  The memo holds one
    entry, keyed by the exact coefficient bytes (a worker whose
    coefficients differ in any bit solves its own), and lives on the
    world, so no result outlives its run.
    """
    alpha = np.array(state.alpha)
    beta = np.array(state.beta)
    key = (alpha.tobytes(), beta.tobytes())
    memo = getattr(world, _ESTIMATES_MEMO, None)
    if memo is None or memo[0] != key:
        estimates = lanczos_matrix_eigenvalues(alpha, beta)
        estimates.flags.writeable = False
        memo = (key, estimates)
        setattr(world, _ESTIMATES_MEMO, memo)
    return memo[1]


class FTLanczos(FTProgram):
    """Fault-tolerant Lanczos for the low-lying spectrum of a sparse matrix."""

    def __init__(self, generator: RowGenerator, n_steps: int,
                 time_model: Any = None) -> None:
        self.generator = generator
        self.n_steps = n_steps
        self.time_model = time_model

    # ------------------------------------------------------------------
    def _build_solver(self, ftx: FTContext, dmat: DistMatrix,
                      state: Optional[LanczosState]):
        engine = yield from SpMVMEngine.create(ftx.team, dmat, self.time_model)
        return DistributedLanczos(engine, state=state, time_model=self.time_model)

    def setup(self, ftx: FTContext) -> Generator[Any, Any, DistributedLanczos]:
        dmat = yield from distribute_matrix(ftx.team, self.generator)
        yield from ftx.write_setup_checkpoint(dmat.to_payload())
        solver = yield from self._build_solver(ftx, dmat, None)
        return solver

    def restore(self, ftx: FTContext, state_payload: Optional[Dict[str, Any]],
                ) -> Generator[Any, Any, DistributedLanczos]:
        setup_payload = yield from ftx.read_setup_checkpoint()
        if setup_payload is None:
            # no consistent setup checkpoint: redo the pre-processing
            dmat = yield from distribute_matrix(ftx.team, self.generator)
            yield from ftx.write_setup_checkpoint(dmat.to_payload())
        else:
            dmat = DistMatrix.from_payload(setup_payload)
        state = None
        if state_payload is not None:
            state = LanczosState.from_payload(state_payload)
        solver = yield from self._build_solver(ftx, dmat, state)
        return solver

    def run(self, ftx: FTContext, solver: DistributedLanczos,
            ) -> Generator[Any, Any, Dict[str, Any]]:
        interval = ftx.cfg.checkpoint_interval
        tracer = ftx.ctx.tracer
        while solver.state.step < self.n_steps:
            t0 = ftx.now
            yield from solver.step()
            step = solver.state.step
            if tracer.enabled:
                tracer.emit(ftx.now, ftx.ctx.rank, "solver_iter",
                            dur=ftx.now - t0, step=step)
            if step % interval == 0:
                yield from ftx.checkpoint(step // interval,
                                          solver.state.to_payload())
            if solver.state.broke_down:
                break
        estimates = _world_estimates(ftx.ctx.world, solver.state)
        return {
            "steps": solver.state.step,
            "min_eigenvalue": float(estimates[0]) if estimates.size else None,
            "eigenvalues": [float(v) for v in estimates[:5]],
            "alpha": list(solver.state.alpha),
            "beta": list(solver.state.beta),
        }
