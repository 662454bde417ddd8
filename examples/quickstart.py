#!/usr/bin/env python
"""Quickstart: a fault-tolerant Lanczos run that survives a killed rank.

Eight worker processes (one per simulated node) compute the low-lying
eigenvalues of a disordered graphene sheet; three spare processes idle and
one acts as the dedicated fault detector.  At t = 2 s we `kill -9` worker
rank 3.  The FD detects the broken channel, designates spare rank 8 as the
rescue, every rank rebuilds the worker group, and the run completes with
eigenvalues identical to the failure-free reference.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cluster import FaultPlan, MachineSpec
from repro.ft import FTConfig, run_ft_application
from repro.solvers import lanczos_sequential
from repro.solvers.ft_lanczos import FTLanczos
from repro.solvers.tridiag import lanczos_matrix_eigenvalues
from repro.spmvm.matgen import GrapheneSheet


class StepTime:
    """Pace each Lanczos step at ~0.1 s so the failure lands mid-run."""

    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, n):
        return 0.05


def main():
    matrix = GrapheneSheet(4, 6, disorder=1.0, seed=7)  # 48 sites
    n_steps = 48

    cfg = FTConfig(
        n_workers=8,
        n_spares=4,            # 3 idle rescues + the FD process
        fd_scan_period=1.0,    # paper default is 3 s; shorter for the demo
        comm_timeout=0.5,
        checkpoint_interval=10,
    )
    program = FTLanczos(
        generator=matrix,
        n_steps=n_steps,
        time_model=StepTime(),
    )
    plan = FaultPlan().kill_process(2.0, rank=3)

    print(f"Running {cfg.n_workers} workers + {cfg.n_spares} spares; "
          f"killing rank 3 at t=2.0 s ...")
    result = run_ft_application(
        cfg, program,
        machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
        fault_plan=plan,
    )

    workers = result.worker_results()
    assert result.status == "done", result.status
    stats = result.fd_stats
    detection = stats.detections[0]
    print(f"\nFD detected failure of ranks {detection.failed} at "
          f"t={detection.t_detected:.2f} s; rescues: {detection.rescues}")
    # the run's failure record: one FailureRecord per recovery epoch
    record = result.failures()[0]
    rescue = record.rescues[0]
    print(f"Rescue timeline (rank {rescue} as logical rank 3): promoted in "
          f"{record.promote_dur:.3f} s, restore version agreed "
          f"{record.reinit[rescue] * 1e3:.3f} ms later, solver resumed at "
          f"t={record.t_rollback:.3f} s")

    got = workers[0]["result"]["eigenvalues"]

    # reference 1: the same distributed run without any failure
    clean = run_ft_application(
        cfg, program, machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
    )
    ref_dist = clean.worker_results()[0]["result"]["eigenvalues"]
    # reference 2: a sequential Lanczos for the converged minimum
    a, b = lanczos_sequential(matrix.full(), n_steps)
    ref_seq_min = lanczos_matrix_eigenvalues(a, b)[0]

    print(f"\nlowest eigenvalues (fault-tolerant run):       "
          f"{np.round(got, 8).tolist()}")
    print(f"lowest eigenvalues (failure-free distributed): "
          f"{np.round(ref_dist, 8).tolist()}")
    # Converged eigenvalues agree to full precision.  (Entire lists need
    # not be bit-identical: the rescue occupies a different physical rank,
    # so reduction order — hence floating-point rounding — changes after
    # recovery, exactly as on real GPI-2; unconverged Lanczos "ghosts" can
    # shift under that rounding.)
    assert abs(got[0] - ref_dist[0]) < 1e-12
    assert abs(got[1] - ref_dist[1]) < 1e-9
    assert abs(got[0] - ref_seq_min) < 1e-9
    print(f"\nOK — recovered run reproduces the converged eigenvalues "
          f"(virtual runtime {result.elapsed:.1f} s vs "
          f"{clean.elapsed:.1f} s failure-free).")


if __name__ == "__main__":
    main()
