"""The closing QL solve of an FT Lanczos run happens once per world.

Every worker ends with the same ``alpha``/``beta`` (each entry comes from
a global reduction), so ``FTLanczos.run`` takes its estimates from a
one-entry memo on the run's world: the first worker to finish solves,
the others reuse its result, and no result outlives its world.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import FaultPlan, MachineSpec
from repro.ft import FTConfig, run_ft_application
from repro.solvers import ft_lanczos, lanczos, tridiag
from repro.solvers.ft_lanczos import FTLanczos, _world_estimates
from repro.solvers.lanczos import LanczosState
from repro.spmvm.matgen import GrapheneSheet

#: two worker kills, both mid-run (the run ends at ~28 s virtual)
KILLS = [(8.0, 1), (14.0, 2)]


class _StepTime:
    """Fixed per-step costs, so the kills land mid-run."""

    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, rows):
        return 0.05


@contextmanager
def counted_solves():
    """Count every ``lanczos_matrix_eigenvalues`` call, wherever bound."""
    real = tridiag.lanczos_matrix_eigenvalues
    calls = []

    def counting(alpha, beta):
        calls.append(len(alpha))
        return real(alpha, beta)

    modules = (tridiag, lanczos, ft_lanczos)
    for module in modules:
        module.lanczos_matrix_eigenvalues = counting
    try:
        yield calls
    finally:
        for module in modules:
            module.lanczos_matrix_eigenvalues = real


def _run(kills, n_steps=120, nx=24):
    cfg = FTConfig(n_workers=16, n_spares=4, fd_scan_period=3.0,
                   comm_timeout=1.0, checkpoint_interval=20)
    plan = FaultPlan()
    for t, rank in kills:
        plan.kill_process(t, rank)
    program = FTLanczos(generator=GrapheneSheet(nx, nx, disorder=1.0),
                        n_steps=n_steps, time_model=_StepTime())
    return run_ft_application(cfg, program,
                              machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
                              fault_plan=plan)


@pytest.fixture(scope="module")
def two_kill_run():
    with counted_solves() as calls:
        result = _run(KILLS)
    return result, calls


def test_sixteen_workers_through_two_kills_solve_once(two_kill_run):
    result, calls = two_kill_run
    workers = result.worker_results()
    assert result.status == "done"
    assert len(workers) == 16
    assert sum(len(d.failed) for d in result.fd_stats.detections) == 2
    assert calls == [120]


def test_every_worker_gets_its_own_coefficients_eigenvalues(two_kill_run):
    result, _ = two_kill_run
    for out in (w["result"] for w in result.worker_results().values()):
        state = LanczosState(v_prev=np.zeros(0), v_cur=np.zeros(0),
                             alpha=out["alpha"], beta=out["beta"])
        own = state.eigenvalue_estimates()
        assert np.array(out["eigenvalues"]).tobytes() == own[:5].tobytes()
        assert out["min_eigenvalue"] == float(own[0])


def test_two_runs_in_one_process_solve_once_each():
    """Identical runs give identical coefficients: a memo that outlived
    its world would serve the second run without a solve."""
    with counted_solves() as calls:
        first = _run([], n_steps=30, nx=12)
        assert calls == [30]
        second = _run([], n_steps=30, nx=12)
    assert calls == [30, 30]
    assert (first.worker_results()[0]["result"]
            == second.worker_results()[0]["result"])


def test_memo_is_keyed_by_exact_coefficient_bytes():
    world = SimpleNamespace()
    alpha = [0.5, -1.25, 2.0]
    state = LanczosState(np.zeros(0), np.zeros(0), alpha, [0.75, 0.5, 0.1])
    with counted_solves() as calls:
        first = _world_estimates(world, state)
        again = _world_estimates(world, LanczosState(
            np.zeros(0), np.zeros(0), list(alpha), [0.75, 0.5, 0.1]))
        assert again is first and calls == [3]
        # one ulp in one coefficient is a different T_j: solved afresh
        nudged = [np.nextafter(alpha[0], 1.0), *alpha[1:]]
        other = _world_estimates(world, LanczosState(
            np.zeros(0), np.zeros(0), nudged, [0.75, 0.5, 0.1]))
    assert calls == [3, 3]
    assert other is not first
    assert not first.flags.writeable
    assert first.tobytes() == state.eigenvalue_estimates().tobytes()
