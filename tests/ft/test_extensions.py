"""Tests for extensions: multi-rank nodes."""

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.ft import FTConfig, run_ft_application
from repro.solvers.ft_lanczos import FTLanczos
from repro.spmvm.matgen import GrapheneSheet


class StepTime:
    def spmv_time(self, nnz, rows):
        return 0.05

    def vector_ops_time(self, n):
        return 0.05


def machine(cfg, procs_per_node=1):
    assert cfg.n_ranks % procs_per_node == 0
    return MachineSpec(
        n_nodes=cfg.n_ranks // procs_per_node,
        procs_per_node=procs_per_node,
        transport_params=TransportParams(error_timeout=1.0),
    )


class TestMultiRankNodes:
    def test_node_crash_kills_two_ranks_two_rescues(self):
        """procs_per_node=2: a node crash is a *simultaneous* 2-rank loss."""
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        cfg = FTConfig(n_workers=4, n_spares=4, fd_scan_period=1.0,
                       comm_timeout=0.5, idle_poll=0.05,
                       checkpoint_interval=10, fd_threads=4)
        program = FTLanczos(gen, n_steps=40, time_model=StepTime())
        # node 1 hosts ranks 2 and 3 (both workers)
        plan = FaultPlan().kill_node(2.05, 1)
        result = run_ft_application(
            cfg, program, machine_spec=machine(cfg, procs_per_node=2),
            fault_plan=plan, until=600.0,
        )
        workers = result.worker_results()
        assert result.status == "done"
        assert sorted(workers) == [0, 1, 2, 3]
        det = result.fd_stats.detections[0]
        assert det.failed == (2, 3)
        assert len(det.rescues) == 2

    def test_checkpoint_neighbor_on_different_node(self):
        """With 2 ranks/node the checkpoint neighbor must skip the co-host."""
        from repro.checkpoint import neighbor_map
        from repro.sim import Simulator
        from repro.cluster import Machine

        sim = Simulator()
        m = Machine(sim, MachineSpec(n_nodes=3, procs_per_node=2))
        neighbors = neighbor_map([0, 1, 2, 3, 4, 5], m.node_of)
        assert neighbors[0] == 2
        assert neighbors[5] == 0
