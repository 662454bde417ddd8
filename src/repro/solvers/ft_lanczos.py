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
  off into recovery (handled by the guard plumbed through the spMVM
  library and the reductions);
* after recovery, the program resumes from the agreed checkpoint version
  and redoes the lost iterations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.ft.app import FTContext, FTProgram
from repro.spmvm.dist_matrix import DistMatrix, distribute_matrix
from repro.spmvm.matgen.base import RowGenerator
from repro.spmvm.spmv import SpMVMEngine
from repro.solvers.lanczos import DistributedLanczos, LanczosState


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
        engine = yield from SpMVMEngine.create(
            ftx.team, dmat, guard=ftx.guard,
            comm_timeout=ftx.cfg.comm_timeout,
            time_model=self.time_model,
        )
        return DistributedLanczos(
            ftx.team, engine, state=state, guard=ftx.guard,
            comm_timeout=ftx.cfg.comm_timeout, time_model=self.time_model,
        )

    def setup(self, ftx: FTContext):
        dmat = yield from distribute_matrix(
            ftx.team, self.generator, guard=ftx.guard,
            comm_timeout=ftx.cfg.comm_timeout,
        )
        yield from ftx.write_setup_checkpoint(dmat.to_payload())
        solver = yield from self._build_solver(ftx, dmat, None)
        return solver

    def restore(self, ftx: FTContext, state_payload: Optional[Dict[str, Any]]):
        setup_payload = yield from ftx.read_setup_checkpoint()
        if setup_payload is None:
            # no consistent setup checkpoint: redo the pre-processing
            dmat = yield from distribute_matrix(
                ftx.team, self.generator, guard=ftx.guard,
                comm_timeout=ftx.cfg.comm_timeout,
            )
            yield from ftx.write_setup_checkpoint(dmat.to_payload())
        else:
            dmat = DistMatrix.from_payload(setup_payload)
        state = None
        if state_payload is not None:
            state = LanczosState.from_payload(state_payload)
        solver = yield from self._build_solver(ftx, dmat, state)
        return solver

    def run(self, ftx: FTContext, solver: DistributedLanczos):
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
        estimates = solver.state.eigenvalue_estimates()
        return {
            "steps": solver.state.step,
            "min_eigenvalue": float(estimates[0]) if estimates.size else None,
            "eigenvalues": [float(v) for v in estimates[:5]],
            "alpha": list(solver.state.alpha),
            "beta": list(solver.state.beta),
        }
