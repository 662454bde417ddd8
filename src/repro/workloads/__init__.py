"""Workload specifications and the two interchangeable kernels.

The *numeric* kernel is :class:`repro.solvers.ft_lanczos.FTLanczos` on a
real (small) matrix — it proves numerical correctness.  The *model* kernel
(:class:`ModelLanczosProgram`) replays a paper-scale workload through the
identical FT control flow with declared sizes and calibrated per-iteration
times, which is how the paper-scale experiments (Figure 4, Table I) run in
seconds of wall time.
"""

from repro.workloads.spec import WorkloadSpec, PAPER_GRAPHENE, scaled_spec
from repro.workloads.kernels import ModelLanczosProgram

__all__ = [
    "WorkloadSpec",
    "PAPER_GRAPHENE",
    "scaled_spec",
    "ModelLanczosProgram",
]
