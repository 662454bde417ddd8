"""Tests for machine assembly and fault injection."""

import numpy as np
import pytest

from repro.sim import Simulator, Sleep
from repro.cluster import (
    FaultInjector,
    FaultPlan,
    KillNode,
    KillProcess,
    Machine,
    MachineSpec,
    exponential_node_failures,
)


def test_rank_placement_round_robin_by_node():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=3, procs_per_node=2))
    assert m.n_ranks == 6
    assert m.node_of(0) == 0 and m.node_of(1) == 0
    assert m.node_of(2) == 1 and m.node_of(5) == 2
    assert m.ranks_on(1) == [2, 3]


def test_kill_process_marks_dead_and_kills_coroutine():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=2))
    stages = []

    def worker():
        stages.append("start")
        yield Sleep(100.0)
        stages.append("unreachable")

    p = sim.spawn(worker())
    m.bind_process(1, p)
    sim.schedule(1.0, lambda: m.kill_process(1))
    sim.run()
    assert stages == ["start"]
    assert not m.alive(1)
    assert m.alive(0)
    assert m.alive_ranks() == [0]


def test_kill_process_idempotent():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=2))
    m.kill_process(1)
    m.kill_process(1)
    assert not m.alive(1)
    assert m.alive_ranks() == [0]


def test_kill_node_kills_all_ranks_and_wipes_store():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=2, procs_per_node=3))
    m.node(1).local_store["ckpt"] = b"data"
    m.kill_node(1)
    assert not m.node(1).alive
    assert m.node(1).local_store == {}
    assert m.alive_ranks() == [0, 1, 2]


def test_fault_plan_builder_and_ordering():
    plan = (
        FaultPlan()
        .kill_node(5.0, 1)
        .kill_process(2.0, 3)
        .break_link(1.0, 0, 1)
        .heal_link(4.0, 0, 1)
    )
    times = [e.time for e in plan.sorted_events()]
    assert times == [1.0, 2.0, 4.0, 5.0]
    assert len(plan) == 4


def test_fault_injector_applies_at_exact_times():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=4))
    plan = FaultPlan().kill_process(2.0, 1).kill_node(5.0, 3)
    inj = FaultInjector(sim, m, plan)
    inj.arm()
    sim.run(until=2.0 - 1e-9)
    assert inj.injected == [] and m.alive(1)
    sim.run(until=2.0)
    assert [type(e) for e in inj.injected] == [KillProcess]
    assert not m.alive(1)
    sim.run(until=5.0 - 1e-9)
    assert len(inj.injected) == 1 and m.alive(3)
    sim.run()
    assert sim.now == 5.0
    assert not m.node(3).alive
    assert [type(e) for e in inj.injected] == [KillProcess, KillNode]


def test_link_fault_via_injector_breaks_reachability():
    sim = Simulator()
    m = Machine(sim, MachineSpec(n_nodes=4))
    plan = FaultPlan().break_link(1.0, 0, 2).heal_link(3.0, 0, 2)
    FaultInjector(sim, m, plan).arm()
    sim.run(until=2.0)
    assert not m.network.reachable(0, 2)
    sim.run()
    assert m.network.reachable(0, 2)


def test_exponential_failures_reproducible_and_bounded():
    def gen(seed):
        rng = np.random.default_rng(seed)
        return exponential_node_failures(rng, n_nodes=100, mttf_node=50.0,
                                         horizon=10.0, max_failures=3)

    a, b = gen(1), gen(1)
    assert [(e.time, e.node_id) for e in a.events] == [(e.time, e.node_id) for e in b.events]
    assert len(a) <= 3
    assert all(e.time < 10.0 for e in a.events)
    times = [e.time for e in a.sorted_events()]
    assert times == sorted(times)


def test_exponential_failures_rejects_bad_mttf():
    with pytest.raises(ValueError):
        exponential_node_failures(np.random.default_rng(0), 4, 0.0, 1.0)


def test_fault_event_describe_strings():
    assert "rank=3" in KillProcess(time=1.0, rank=3).describe()
    assert "node" in KillNode(time=2.0, node_id=1).describe()
