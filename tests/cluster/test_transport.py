"""Tests for the transport layer: RDMA, ping, control, kill semantics."""

import pytest

from repro.sim import Simulator, Sleep, WaitEvent
from repro.cluster import Machine, MachineSpec, TransportParams


def make_machine(n_nodes=4, procs_per_node=1, error_timeout=3.5):
    sim = Simulator()
    spec = MachineSpec(
        n_nodes=n_nodes,
        procs_per_node=procs_per_node,
        transport_params=TransportParams(error_timeout=error_timeout),
    )
    return sim, Machine(sim, spec)


def test_rdma_applies_at_target_and_completes():
    sim, m = make_machine()
    target_memory = {"x": 0}

    def writer():
        ev = m.transport.post_rdma(0, 1, 1024, lambda: target_memory.__setitem__("x", 99))
        ok, (success, _) = yield WaitEvent(ev, timeout=1.0)
        return (ok, success, target_memory["x"])

    p = sim.spawn(writer())
    sim.run()
    assert p.result == (True, True, 99)


def test_rdma_to_dead_process_never_completes():
    sim, m = make_machine()
    m.kill_process(1)

    def writer():
        ev = m.transport.post_rdma(0, 1, 1024, lambda: None)
        ok, _ = yield WaitEvent(ev, timeout=2.0)
        return ok

    p = sim.spawn(writer())
    sim.run()
    assert p.result is False  # only timeouts, no error — paper's worker view


def test_rdma_target_dies_in_flight_not_applied():
    sim, m = make_machine()
    applied = []

    def writer():
        ev = m.transport.post_rdma(0, 1, 10**9, lambda: applied.append(1))
        ok, _ = yield WaitEvent(ev, timeout=5.0)
        return ok

    p = sim.spawn(writer())
    # the 1 GB transfer takes ~0.3s; kill the target at 0.1s, mid-flight
    sim.schedule(0.1, lambda: m.kill_process(1))
    sim.run()
    assert p.result is False
    assert applied == []


def test_ping_healthy_returns_quickly():
    sim, m = make_machine()

    def pinger():
        ev = m.transport.post_ping(0, 1)
        ok, (alive, _) = yield WaitEvent(ev, timeout=1.0)
        return (ok, alive, sim.now)

    p = sim.spawn(pinger())
    sim.run()
    ok, alive, t = p.result
    assert ok and alive
    assert 0.001 <= t < 0.01  # ~1 ms ping overhead dominates


def test_ping_dead_process_errors_after_error_timeout():
    sim, m = make_machine(error_timeout=3.5)
    m.kill_process(2)

    def pinger():
        ev = m.transport.post_ping(0, 2)
        ok, (alive, _) = yield WaitEvent(ev, timeout=10.0)
        return (ok, alive, sim.now)

    p = sim.spawn(pinger())
    sim.run()
    ok, alive, t = p.result
    assert ok and not alive
    assert t == pytest.approx(3.5, abs=0.1)


def test_second_ping_to_broken_target_fails_fast():
    sim, m = make_machine()
    m.kill_process(2)
    times = []

    def pinger():
        for _ in range(2):
            t0 = sim.now
            ev = m.transport.post_ping(0, 2)
            yield WaitEvent(ev, timeout=10.0)
            times.append(sim.now - t0)

    sim.spawn(pinger())
    sim.run()
    assert times[0] == pytest.approx(3.5, abs=0.1)
    assert times[1] < 0.01


def test_ping_across_broken_link_errors_false_positive_case():
    """A healthy process behind a cut link looks failed to the pinger."""
    sim, m = make_machine()
    m.network.break_link(m.node_of(0), m.node_of(3))

    def pinger():
        ev = m.transport.post_ping(0, 3)
        ok, (alive, _) = yield WaitEvent(ev, timeout=10.0)
        return alive

    p = sim.spawn(pinger())
    sim.run()
    assert p.result is False
    assert m.alive(3)  # ... but the process is actually alive


def test_control_message_delivered_to_channel():
    sim, m = make_machine()
    got = []

    def receiver():
        ep = m.transport.endpoint(1)
        ok, msg = yield from ep.inbox("hello").get(timeout=1.0)
        got.append((ok, msg.src, msg.kind, msg.payload))

    def sender():
        ev = m.transport.post_control(0, 1, "hello", {"a": 1})
        ok, _ = yield WaitEvent(ev, timeout=1.0)
        return ok

    sim.spawn(receiver())
    p = sim.spawn(sender())
    sim.run()
    assert p.result is True
    assert got == [(True, 0, "hello", {"a": 1})]


def test_control_to_dead_process_never_acks():
    sim, m = make_machine()
    m.kill_process(1)

    def sender():
        ev = m.transport.post_control(0, 1, "hello", None)
        ok, _ = yield WaitEvent(ev, timeout=2.0)
        return ok

    p = sim.spawn(sender())
    sim.run()
    assert p.result is False


def test_kill_request_fail_stops_target():
    sim, m = make_machine()

    def victim():
        yield Sleep(100.0)

    vp = sim.spawn(victim())
    m.bind_process(2, vp)

    def killer():
        ev = m.transport.post_kill(0, 2)
        ok, _ = yield WaitEvent(ev, timeout=1.0)
        return ok

    p = sim.spawn(killer())
    sim.run()
    assert p.result is True
    assert not m.alive(2)
    assert not vp.alive


def test_kill_already_dead_is_success():
    sim, m = make_machine()
    m.kill_process(2)

    def killer():
        ev = m.transport.post_kill(0, 2)
        ok, _ = yield WaitEvent(ev, timeout=1.0)
        return ok

    p = sim.spawn(killer())
    sim.run()
    assert p.result is True


def test_kill_across_broken_link_does_not_kill():
    sim, m = make_machine()
    m.network.break_link(m.node_of(0), m.node_of(3))

    def killer():
        ev = m.transport.post_kill(0, 3)
        ok, _ = yield WaitEvent(ev, timeout=1.0)
        return ok

    sim.spawn(killer())
    sim.run()
    assert m.alive(3)  # unreachable: this source cannot enforce the kill


def test_duplicate_rank_registration_rejected():
    sim, m = make_machine()
    with pytest.raises(ValueError):
        m.transport.register(0, 0)
