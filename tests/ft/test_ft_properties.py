"""End-to-end property test: random failure schedules always recover.

For any failure schedule within the spare budget — random victims, random
times, process or node kills — the fault-tolerant Lanczos run must
complete with the correct minimum eigenvalue.  This is the system-level
completeness property of the paper's design.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.ft import FTConfig, run_ft_application
from repro.solvers import lanczos_sequential
from repro.solvers.ft_lanczos import FTLanczos
from repro.solvers.tridiag import lanczos_matrix_eigenvalues
from repro.spmvm.matgen import GrapheneSheet

GEN = GrapheneSheet(3, 3, disorder=1.0, seed=2)  # 18 sites
N_STEPS = 18
N_WORKERS = 3
N_SPARES = 3  # 2 idle rescues + FD


class StepTime:
    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, n):
        return 0.05


@pytest.fixture(scope="module")
def reference_min():
    a, b = lanczos_sequential(GEN.full(), N_STEPS)
    return float(lanczos_matrix_eigenvalues(a, b)[0])


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=st.lists(
        st.tuples(
            st.floats(0.3, 4.0),            # injection time
            st.integers(0, N_WORKERS - 1),  # victim worker
            st.booleans(),                  # node kill instead of process
        ),
        min_size=1, max_size=2,             # within the 2-rescue budget
    ),
)
def test_any_failure_schedule_recovers(schedule, reference_min):
    # distinct victims only (a rank can only die once)
    victims = {rank for _, rank, _ in schedule}
    plan = FaultPlan()
    used = set()
    for t, rank, node_kill in schedule:
        if rank in used:
            continue
        used.add(rank)
        if node_kill:
            plan.kill_node(t, rank)  # 1 rank per node
        else:
            plan.kill_process(t, rank)

    cfg = FTConfig(n_workers=N_WORKERS, n_spares=N_SPARES,
                   fd_scan_period=0.7, comm_timeout=0.4, idle_poll=0.05,
                   checkpoint_interval=5)
    program = FTLanczos(GEN, n_steps=N_STEPS, time_model=StepTime())
    result = run_ft_application(
        cfg, program,
        machine_spec=MachineSpec(
            n_nodes=cfg.n_ranks,
            transport_params=TransportParams(error_timeout=0.8),
        ),
        fault_plan=plan,
        until=900.0,
    )
    workers = result.worker_results()
    assert result.status == "done", f"schedule={schedule}"
    assert sorted(workers) == list(range(N_WORKERS))
    for w in workers.values():
        assert w["result"]["min_eigenvalue"] == pytest.approx(
            reference_min, abs=1e-8), f"schedule={schedule}"
    for _, rank, _ in schedule:
        assert not result.run.machine.alive(rank)
