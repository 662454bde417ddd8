"""Batched ping-sweep equivalence: the single-callback round-priced sweep
must reproduce a sequential oracle — single probes (``ping_oracle``) in
groups of ``width``, each group posted when the previous one resolved — exactly:
same per-probe timings, same dead sets, same completion time, including
when targets die mid-sweep; and its lazy result sequence must behave
like the oracle's tuple list."""

import pytest

from repro.sim import Simulator, WaitEvent
from repro.cluster import Machine, MachineSpec, TransportParams
from repro.cluster.transport import SweepResults
from tests.cluster.ping_oracle import post_ping


def make_machine(n_nodes=8, error_timeout=3.5):
    sim = Simulator()
    spec = MachineSpec(
        n_nodes=n_nodes,
        procs_per_node=1,
        transport_params=TransportParams(error_timeout=error_timeout),
    )
    return sim, Machine(sim, spec)


def sequential_sweep(sim, transport, src, targets, width):
    """Generator: the reference sweep built from single pings.

    Returns ``(True, [(target, alive, t_start, t_end), ...])`` like the
    batched sweep's completion value.
    """
    out = []
    for g0 in range(0, len(targets), width):
        t_start = sim.now
        group = targets[g0:g0 + width]
        resolved = {}
        events = [post_ping(transport, src, dst) for dst in group]
        for dst, ev in zip(group, events):
            ev.add_callback(lambda e, dst=dst: resolved.__setitem__(
                dst, (dst, e.value[0], t_start, sim.now)))
        for ev in events:
            ok, _ = yield WaitEvent(ev, timeout=120.0)
            assert ok
        out.extend(resolved[dst] for dst in group)
    return True, out


def run_sweep(batched=True, n_nodes=8, width=1, kills=(), pre_broken=(),
              targets=None):
    """One sweep from rank 0 — the batched transport sweep, or the
    sequential oracle with ``batched=False``; returns (ok, [tuples],
    end_time)."""
    sim, m = make_machine(n_nodes=n_nodes)
    for rank in pre_broken:
        m.kill_process(rank)
    for t, rank in kills:
        sim.schedule(t, lambda r=rank: m.kill_process(r))
    if targets is None:
        targets = list(range(1, n_nodes))

    def prober():
        if pre_broken:
            # one earlier probe per pre-broken target teaches rank 0's
            # transport the channel is broken (the fast-fail case)
            for rank in pre_broken:
                ev = (m.transport.post_ping_sweep(0, [rank]) if batched
                      else post_ping(m.transport, 0, rank))
                yield WaitEvent(ev, timeout=10.0)
        if not batched:
            success, results = yield from sequential_sweep(
                sim, m.transport, 0, targets, width)
            return success, results, sim.now
        ev = m.transport.post_ping_sweep(0, targets, width=width)
        ok, (success, results) = yield WaitEvent(ev, timeout=120.0)
        return ok and success, list(results), sim.now

    p = sim.spawn(prober())
    sim.run()
    return p.result


@pytest.mark.parametrize("width", [1, 3])
def test_all_alive_matches_sequential(width):
    assert (run_sweep(batched=True, width=width)
            == run_sweep(batched=False, width=width))


@pytest.mark.parametrize("width", [1, 3])
def test_dead_before_sweep_matches_sequential(width):
    kw = dict(width=width, kills=[(0.0, 3), (0.0, 5)])
    batched = run_sweep(batched=True, **kw)
    sequential = run_sweep(batched=False, **kw)
    assert batched == sequential
    dead = [r for r, alive, _t0, _t1 in batched[1] if not alive]
    assert dead == [3, 5]


@pytest.mark.parametrize("width", [1, 3])
def test_mid_sweep_death_matches_sequential(width):
    # rank 6 dies while its own probe is in flight: the batched fixed
    # point must stretch the schedule exactly like the sequential chain
    # does (death re-arms the finalize past the first estimate).  The
    # kill time is read off an all-alive run so it always lands inside
    # rank 6's probe window regardless of the timing parameters.
    _, alive_results, _ = run_sweep(batched=True, width=width)
    t0, t1 = next((s, e) for r, _a, s, e in alive_results if r == 6)
    kw = dict(width=width, kills=[((t0 + t1) / 2, 6)])
    batched = run_sweep(batched=True, **kw)
    sequential = run_sweep(batched=False, **kw)
    assert batched == sequential
    assert [r for r, alive, _, _ in batched[1] if not alive] == [6]


def test_known_broken_channel_fast_fails_identically():
    kw = dict(kills=[(0.0, 2)], pre_broken=(2,))
    assert run_sweep(batched=True, **kw) == run_sweep(batched=False, **kw)


def test_partitioned_target_counts_as_dead():
    sim, m = make_machine()
    m.network.isolate_node(4)

    def prober():
        ev = m.transport.post_ping_sweep(0, [1, 4, 6])
        ok, (success, results) = yield WaitEvent(ev, timeout=60.0)
        return ok and success, [(r, alive) for r, alive, _, _ in results]

    p = sim.spawn(prober())
    sim.run()
    ok, flags = p.result
    assert ok and flags == [(1, True), (4, False), (6, True)]


def test_empty_sweep_succeeds_immediately():
    ok, results, end = run_sweep(targets=[])
    assert ok and results == [] and end == 0.0


def test_sweep_results_sequence_protocol():
    sim, m = make_machine()
    sim.schedule(0.0, lambda: m.kill_process(2))
    holder = []

    def prober():
        ev = m.transport.post_ping_sweep(0, [1, 2, 3])
        _ok, (_success, results) = yield WaitEvent(ev, timeout=60.0)
        holder.append(results)

    sim.spawn(prober())
    sim.run()
    res = holder[0]
    assert isinstance(res, SweepResults)
    assert len(res) == 3
    assert res.failed == [2]
    assert res[0][0] == 1 and res[-1][0] == 3
    assert res[1][1] is False
    assert res[0:2] == list(res)[0:2]
    assert res == list(res)  # equal to its own tuple materialization
