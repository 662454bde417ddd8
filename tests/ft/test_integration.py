"""End-to-end tests: fault-tolerant Lanczos surviving injected failures.

These are the behavioural claims of the paper, verified on small numeric
workloads: failures are detected, rescues adopt failed identities, the
worker group is rebuilt, state is restored from neighbor-level checkpoints
and the final eigenvalues are *identical* to the failure-free run.
"""

import dataclasses

import pytest

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.ft import FTConfig, run_ft_application
from repro.solvers.ft_lanczos import FTLanczos
from repro.spmvm.matgen import GrapheneSheet


class StepTime:
    """Paces iterations so failures land mid-run (0.1 s per step)."""

    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, n):
        return 0.05


def make_program(n_steps=40, gen=None):
    return FTLanczos(
        generator=gen or GrapheneSheet(3, 4, disorder=1.0, seed=1),
        n_steps=n_steps,
        time_model=StepTime(),
    )


def machine(cfg, error_timeout=1.0):
    return MachineSpec(
        n_nodes=cfg.n_ranks,
        transport_params=TransportParams(error_timeout=error_timeout),
    )


def run_case(cfg, program, plan=None, until=600.0):
    return run_ft_application(
        cfg, program,
        machine_spec=machine(cfg),
        fault_plan=plan,
        until=until,
    )


def reference_eigs(gen, n_steps):
    from repro.solvers import lanczos_sequential
    from repro.solvers.tridiag import lanczos_matrix_eigenvalues
    a, b = lanczos_sequential(gen.full(), n_steps)
    return lanczos_matrix_eigenvalues(a, b)


@pytest.fixture
def cfg():
    return FTConfig(n_workers=4, n_spares=3, fd_scan_period=1.0,
                    comm_timeout=0.5, idle_poll=0.05, checkpoint_interval=10)


class TestFailureFree:
    def test_completes_with_correct_eigenvalues(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        result = run_case(cfg, make_program(gen=gen))
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        ref = reference_eigs(gen, 40)
        for w in workers.values():
            assert w["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)

    def test_fd_reports_scans_and_no_detections(self, cfg):
        result = run_case(cfg, make_program())
        stats = result.fd_stats
        assert stats is not None
        assert stats.outcome == "stopped"
        assert len(stats.scan_times) >= 1
        assert stats.detections == []

    def test_idles_exit_cleanly(self, cfg):
        result = run_case(cfg, make_program())
        for rank in cfg.idle_ranks:
            assert result.rank_result(rank) == {"status": "idle-exit"}

    def test_failure_log_stays_empty(self, cfg):
        """The lifecycle sites run only on failure paths: a failure-free
        run folds nothing into its failure log."""
        result = run_case(cfg, make_program())
        log = result.run.sim.failure_log
        assert log.folded == 0
        assert result.failures() == []


class TestSingleFailure:
    def test_process_kill_recovered(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = FaultPlan().kill_process(2.05, 1)
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        # all four logical ranks completed, logical 1 now on a rescue rank
        assert sorted(workers) == [0, 1, 2, 3]
        ref = reference_eigs(gen, 40)
        for w in workers.values():
            assert w["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)
        stats = result.fd_stats
        assert len(stats.detections) == 1
        assert stats.detections[0].failed == (1,)
        assert stats.detections[0].rescues == (4,)

    def test_detection_latency_within_model_bounds(self, cfg):
        plan = FaultPlan().kill_process(2.05, 1)
        result = run_case(cfg, make_program(), plan)
        det = result.fd_stats.detections[0]
        # scan period 1 s + error timeout 1 s (+ slack)
        assert 0.9 <= det.t_detected - 2.05 <= 3.0
        assert det.t_acknowledged >= det.t_detected

    def test_node_kill_restores_from_neighbor(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = FaultPlan().kill_node(2.05, 2)  # node 2 hosts rank 2
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        ref = reference_eigs(gen, 40)
        assert workers[2]["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)

    def test_rescue_timeline_shows_restore(self, cfg):
        plan = FaultPlan().kill_process(2.05, 1)
        result = run_case(cfg, make_program(), plan)
        (record,) = result.failures()
        (rescue,) = record.rescues
        assert rescue in result.worker_ranks()
        # promoted, then its reinit span closed at the agreed version
        assert record.promote_dur is not None
        assert rescue in record.reinit and rescue not in record.acks
        assert record.t_restored is not None and record.complete

    def test_failure_before_first_checkpoint_restarts_from_scratch(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        # checkpoint every 30 steps; kill at step ~20 (t=2.05)
        cfg = dataclasses.replace(cfg, checkpoint_interval=30)
        program = make_program(n_steps=40, gen=gen)
        plan = FaultPlan().kill_process(2.05, 0)
        result = run_case(cfg, program, plan)
        workers = result.worker_results()
        assert result.status == "done"
        ref = reference_eigs(gen, 40)
        for w in workers.values():
            assert w["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)


class TestMultipleFailures:
    def test_two_sequential_failures(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = FaultPlan().kill_process(1.55, 1).kill_process(3.55, 2)
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        stats = result.fd_stats
        assert len(stats.detections) == 2
        ref = reference_eigs(gen, 40)
        for w in workers.values():
            assert w["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)

    def test_rescue_rank_failing_is_rescued_again(self, cfg):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        # rank 1 dies; rank 4 rescues it; then rank 4 dies too
        plan = FaultPlan().kill_process(1.55, 1).kill_process(8.0, 4)
        result = run_case(cfg, make_program(n_steps=120, gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]

    def test_simultaneous_failures_detected_in_one_scan(self):
        cfg = FTConfig(n_workers=4, n_spares=4, fd_scan_period=1.0,
                       comm_timeout=0.5, idle_poll=0.05,
                       checkpoint_interval=10, fd_threads=8)
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = (FaultPlan()
                .kill_process(2.05, 0)
                .kill_process(2.05, 1)
                .kill_process(2.05, 2))
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        stats = result.fd_stats
        assert len(stats.detections) == 1  # one scan caught all three
        assert stats.detections[0].failed == (0, 1, 2)

    def test_spares_exhausted_fd_joins(self):
        cfg = FTConfig(n_workers=3, n_spares=2, fd_scan_period=1.0,
                       comm_timeout=0.5, idle_poll=0.05, checkpoint_interval=10)
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = FaultPlan().kill_process(1.55, 0).kill_process(5.05, 1)
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2]
        # second detection must have used the FD itself as rescue
        stats = None
        for w in workers.values():
            if "fd_stats" in w:
                stats = w["fd_stats"]
        assert stats is not None
        assert stats.detections[-1].fd_joined

    def test_unrecoverable_when_too_many_simultaneous(self):
        cfg = FTConfig(n_workers=4, n_spares=1, fd_scan_period=1.0,
                       comm_timeout=0.5, idle_poll=0.05, checkpoint_interval=10)
        plan = FaultPlan().kill_process(2.05, 0).kill_process(2.05, 1)
        result = run_case(cfg, make_program(), plan, until=100.0)
        workers = result.worker_results()
        statuses = {w["status"] for w in workers.values()}
        assert statuses == {"unrecoverable"}


class TestNetworkAndFDFailures:
    def test_false_positive_link_failure_handled_by_kill(self, cfg):
        """A healthy-but-unreachable process is force-killed and replaced."""
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        # cut worker 1 off from the FD's node only: the FD sees it failed
        # although it is alive (accuracy violated, paper Sect. IV-A a)
        plan = FaultPlan().break_link(2.05, 1, cfg.fd_rank)
        result = run_case(cfg, make_program(gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        # the false positive was really killed by the survivors
        assert not result.run.machine.alive(1)
        ref = reference_eigs(gen, 40)
        for w in workers.values():
            assert w["result"]["min_eigenvalue"] == pytest.approx(ref[0], abs=1e-9)

    def test_fd_death_without_redundancy_app_still_finishes(self, cfg):
        plan = FaultPlan().kill_process(2.05, cfg.fd_rank)
        result = run_case(cfg, make_program(), plan)
        workers = result.worker_results()
        # no failures among workers: the run completes, FT capability gone
        assert {w["status"] for w in workers.values()} == {"done"}

    def test_fd_watchdog_takes_over_and_recovers_later_failure(self):
        cfg = FTConfig(n_workers=4, n_spares=3, fd_scan_period=1.0,
                       comm_timeout=0.5, idle_poll=0.05,
                       checkpoint_interval=10, fd_redundancy=True)
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        plan = (FaultPlan()
                .kill_process(1.55, cfg.fd_rank)   # kill the FD first
                .kill_process(4.55, 1))            # then a worker
        result = run_case(cfg, make_program(n_steps=120, gen=gen), plan)
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        # the watchdog (rank 5) must have detected the worker failure
        stats = result.fd_stats
        assert stats is not None
        assert any(d.failed == (1,) for d in stats.detections)
