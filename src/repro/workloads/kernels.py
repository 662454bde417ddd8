"""The model kernel: paper-scale Lanczos control flow, declared sizes.

:class:`ModelLanczosProgram` drives the *identical* fault-tolerance
machinery as the numeric :class:`~repro.solvers.ft_lanczos.FTLanczos` —
setup checkpoint, guarded per-iteration global reduction (the alpha dot
product's synchronisation), periodic neighbor-level checkpoints with the
paper's byte volumes, failure acknowledgment, recovery, redo-work — but
replaces the numerical payload with its calibrated time cost, so the
3500-iteration 256-worker runs of Figure 4 simulate in seconds.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.sim import Sleep
from repro.ft.app import FTContext, FTProgram
from repro.workloads.spec import WorkloadSpec


class ModelLanczosProgram(FTProgram):
    """Timing-faithful stand-in for the paper-scale Lanczos application."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def setup(self, ftx: FTContext):
        yield Sleep(self.spec.setup_time)
        yield from ftx.write_setup_checkpoint(
            {"spec": np.int64(self.spec.n_rows)},
            nominal_bytes=self.spec.setup_bytes_per_worker,
        )
        return {"step": 0}

    def restore(self, ftx: FTContext, state_payload: Optional[Dict[str, Any]]):
        setup_payload = yield from ftx.read_setup_checkpoint()
        if setup_payload is None:
            yield Sleep(self.spec.setup_time)
            yield from ftx.write_setup_checkpoint(
                {"spec": np.int64(self.spec.n_rows)},
                nominal_bytes=self.spec.setup_bytes_per_worker,
            )
        step = int(state_payload["step"]) if state_payload is not None else 0
        return {"step": step}

    def run(self, ftx: FTContext, work: Dict[str, int]):
        spec = self.spec
        step = work["step"]
        tracer = ftx.ctx.tracer
        compute = Sleep(spec.iteration_time)
        while step < spec.n_iterations:
            # the alpha reduction: the iteration's (guarded) global sync
            t0 = ftx.now if tracer.enabled else 0.0
            yield from ftx.agree_min(step)
            yield compute
            step += 1
            ftx.count("iterations")
            if tracer.enabled:
                tracer.emit(ftx.now, ftx.ctx.rank, "solver_iter",
                            dur=ftx.now - t0, step=step)
            if step % spec.checkpoint_interval == 0:
                yield from ftx.checkpoint(
                    step // spec.checkpoint_interval,
                    {"step": np.int64(step)},
                    nominal_bytes=spec.checkpoint_bytes_per_worker,
                )
        return {"steps": step}

