"""Failure-injection matrix: kind x phase, all must recover correctly.

Crosses the failure kind (process kill, node crash, FD-side link cut)
with the phase it strikes (during setup, early compute, straight after a
checkpoint, right before completion) — every cell must finish with the
correct minimum eigenvalue.
"""

import pytest

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.ft import FTConfig, run_ft_application
from repro.solvers import lanczos_sequential
from repro.solvers.ft_lanczos import FTLanczos
from repro.solvers.tridiag import lanczos_matrix_eigenvalues
from repro.spmvm.matgen import GrapheneSheet

GEN = GrapheneSheet(3, 4, disorder=1.0, seed=1)
N_STEPS = 40


class StepTime:
    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, n):
        return 0.05


@pytest.fixture(scope="module")
def reference_min():
    a, b = lanczos_sequential(GEN.full(), N_STEPS)
    return float(lanczos_matrix_eigenvalues(a, b)[0])


def cfg():
    return FTConfig(n_workers=4, n_spares=3, fd_scan_period=1.0,
                    comm_timeout=0.5, idle_poll=0.05, checkpoint_interval=10)


def inject(kind: str, time: float, rank: int, c: FTConfig) -> FaultPlan:
    plan = FaultPlan()
    if kind == "process":
        plan.kill_process(time, rank)
    elif kind == "node":
        plan.kill_node(time, rank)  # 1 rank/node: node id == rank
    elif kind == "link":
        plan.break_link(time, rank, c.fd_rank)
    return plan


# phases: t=0.3 (during setup/distribute), t=1.05 (~step 10, right after a
# checkpoint), t=2.55 (~step 25, mid-interval), t=3.95 (~last iterations)
PHASES = {"setup": 0.3, "after-cp": 1.05, "mid": 2.55, "late": 3.95}


@pytest.mark.parametrize("kind", ["process", "node", "link"])
@pytest.mark.parametrize("phase", list(PHASES))
def test_failure_matrix(kind, phase, reference_min):
    c = cfg()
    plan = inject(kind, PHASES[phase], rank=2, c=c)
    program = FTLanczos(GEN, n_steps=N_STEPS, time_model=StepTime())
    result = run_ft_application(
        c, program,
        machine_spec=MachineSpec(
            n_nodes=c.n_ranks,
            transport_params=TransportParams(error_timeout=1.0),
        ),
        fault_plan=plan,
        until=600.0,
    )
    workers = result.worker_results()
    assert result.status == "done", f"{kind}/{phase}: {result.status}"
    assert sorted(workers) == [0, 1, 2, 3]
    for w in workers.values():
        assert w["result"]["min_eigenvalue"] == pytest.approx(
            reference_min, abs=1e-9
        ), f"{kind}/{phase}"
    if kind == "link" and phase == "late":
        # a link cut does not stop the victim; this late in the run the
        # application completes before the FD's notice takes effect, so
        # whether a (false-positive) recovery happened is a race — only
        # correctness of the results is required (asserted above)
        return
    # the victim really is gone and a recovery happened
    assert not result.run.machine.alive(2)
    stats = result.fd_stats
    assert stats is not None and len(stats.detections) == 1
