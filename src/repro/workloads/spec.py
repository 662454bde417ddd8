"""Workload specifications (the paper's benchmark case and scaled variants).

The paper's measured workload anchors (Sect. V-VI) live here as plain
constants: the model kernel sleeps ``iteration_time`` per step, so the
3500-iteration baseline reproduces the measured 1450 s by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: Figure 4 baseline ('w/o HC, w/o CP'), seconds
PAPER_BASELINE_RUNTIME = 1450.0
#: fixed iteration count used for benchmarking (paper Sect. VI)
PAPER_ITERATIONS = 3500
#: derived per-iteration anchor (~0.414 s)
PAPER_ITERATION_TIME = PAPER_BASELINE_RUNTIME / PAPER_ITERATIONS
#: paper workload dimensions: graphene matrix on 256 worker processes
PAPER_WORKERS = 256
PAPER_MATRIX_ROWS = 120_000_000
PAPER_MATRIX_NNZ = 1_500_000_000
#: paper's global checkpoint volume (two Lanczos vectors + coefficients)
PAPER_CHECKPOINT_BYTES = int(1.9e9)


@dataclass(frozen=True)
class WorkloadSpec:
    """Dimensions + timing anchors of one Lanczos benchmark workload."""

    name: str
    n_rows: int
    nnz: int
    n_workers: int
    n_iterations: int
    checkpoint_interval: int
    #: global periodic-checkpoint volume across all workers
    checkpoint_bytes_global: int
    #: anchored per-iteration wall time (one worker, whole step)
    iteration_time: float
    #: modeled pre-processing (matrix generation + comm setup) per rank
    setup_time: float = 10.0

    # ------------------------------------------------------------------
    @property
    def nnz_per_worker(self) -> int:
        return self.nnz // self.n_workers

    @property
    def checkpoint_bytes_per_worker(self) -> int:
        return self.checkpoint_bytes_global // self.n_workers

    @property
    def setup_bytes_per_worker(self) -> int:
        """Setup-checkpoint volume per rank: the matrix chunk at ~12 B
        per nonzero, plan metadata included."""
        return 12 * self.nnz_per_worker

    @property
    def baseline_runtime(self) -> float:
        """Failure-free compute time (excl. setup) the spec implies."""
        return self.n_iterations * self.iteration_time

    def time_of_iteration(self, iteration: int) -> float:
        """Seconds after setup at which ``iteration`` completes."""
        return iteration * self.iteration_time


#: the paper's benchmark case (Sect. V-VI): graphene transport matrix,
#: 256 worker processes, 3500 iterations, checkpoint every 500
PAPER_GRAPHENE = WorkloadSpec(
    name="paper-graphene-256",
    n_rows=PAPER_MATRIX_ROWS,
    nnz=PAPER_MATRIX_NNZ,
    n_workers=PAPER_WORKERS,
    n_iterations=PAPER_ITERATIONS,
    checkpoint_interval=500,
    checkpoint_bytes_global=PAPER_CHECKPOINT_BYTES,
    iteration_time=PAPER_ITERATION_TIME,
    setup_time=20.0,
)


def scaled_spec(base: WorkloadSpec = PAPER_GRAPHENE, workers: int = 32,
                iterations: int = 350, name: str = "") -> WorkloadSpec:
    """A smaller instance with identical per-worker shape.

    Rows/nnz/checkpoint volume scale with the worker count so that
    per-worker quantities — and hence the anchored iteration time — stay
    those of the base workload; the iteration count shrinks the runtime.
    """
    factor = workers / base.n_workers
    return dataclasses.replace(
        base,
        name=name or f"{base.name}-x{workers}w{iterations}i",
        n_rows=int(base.n_rows * factor),
        nnz=int(base.nnz * factor),
        n_workers=workers,
        n_iterations=iterations,
        checkpoint_interval=max(1, int(base.checkpoint_interval *
                                       iterations / base.n_iterations)),
        checkpoint_bytes_global=int(base.checkpoint_bytes_global * factor),
    )
