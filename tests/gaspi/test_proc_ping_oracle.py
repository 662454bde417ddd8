"""``proc_ping`` is a one-target sweep; the per-probe ping it replaced is
the oracle.

Each case runs rank 0's probes of rank 1 once through
``GaspiContext.proc_ping`` and once through the old single-ping body on
the oracle transport ping (``tests.cluster.ping_oracle``); both must
give the same return code, completion time and state-vector mark.
"""

import pytest

from repro.cluster import FaultPlan
from repro.gaspi import (GASPI_BLOCK, GaspiUsageError, HealthState,
                         ReturnCode, run_gaspi)
from repro.gaspi.context import _clip_timeout
from repro.sim import Sleep, WaitEvent
from tests.cluster.ping_oracle import post_ping

T_PING = 1.0


def oracle_proc_ping(ctx, dst_rank, timeout=GASPI_BLOCK):
    """Generator: ``gaspi_proc_ping`` on one probe of its own."""
    ctx._remote(dst_rank)
    done = post_ping(ctx.world.transport, ctx.rank, dst_rank)
    ok, res = yield WaitEvent(done, _clip_timeout(timeout))
    if not ok:
        return ReturnCode.TIMEOUT
    alive, _ = res
    if alive:
        return ReturnCode.SUCCESS
    ctx.state_vector.mark_corrupt(dst_rank)
    return ReturnCode.ERROR


def probe(oracle, plan=None, pings=1, timeout=GASPI_BLOCK, cut=False):
    """Rank 0's ``pings`` chained probes of rank 1 from ``T_PING`` on;
    per probe, ``(return code, completion time, rank 1's mark)``."""
    def main(ctx):
        if ctx.rank == 1:
            yield Sleep(100.0)
            return None
        if cut:
            machine = ctx.world.machine
            machine.network.break_link(machine.node_of(0), machine.node_of(1))
        yield Sleep(T_PING)
        seen = []
        for _ in range(pings):
            if oracle:
                ret = yield from oracle_proc_ping(ctx, 1, timeout)
            else:
                ret = yield from ctx.proc_ping(1, timeout)
            seen.append((ret, ctx.now, ctx.health_of(1)))
        return seen

    return run_gaspi(main, n_ranks=2, fault_plan=plan).result(0)


def rtt():
    """One healthy probe's round trip."""
    [(_, t_end, _)] = probe(oracle=True)
    return t_end - T_PING


CASES = {
    "live": lambda: dict(),
    "dead-before": lambda: dict(plan=FaultPlan().kill_process(0.2, 1)),
    "dying-during-rtt": lambda: dict(
        plan=FaultPlan().kill_process(T_PING + rtt() / 2, 1)),
    # the second probe finds the channel known broken: it fails fast
    "known-broken": lambda: dict(plan=FaultPlan().kill_process(0.2, 1),
                                 pings=2),
    "cut-link": lambda: dict(cut=True, pings=2),
    "patience-out": lambda: dict(plan=FaultPlan().kill_process(0.2, 1),
                                 timeout=0.5),
}

EXPECTED = {
    "live": [ReturnCode.SUCCESS],
    "dead-before": [ReturnCode.ERROR],
    "dying-during-rtt": [ReturnCode.ERROR],
    "known-broken": [ReturnCode.ERROR, ReturnCode.ERROR],
    "cut-link": [ReturnCode.ERROR, ReturnCode.ERROR],
    "patience-out": [ReturnCode.TIMEOUT],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_proc_ping_matches_the_single_probe_oracle(case):
    kwargs = CASES[case]()
    seen = probe(oracle=False, **kwargs)
    assert seen == probe(oracle=True, **kwargs)
    assert [ret for ret, _, _ in seen] == EXPECTED[case]
    for ret, _, mark in seen:
        healthy = ret is not ReturnCode.ERROR
        assert mark is (HealthState.HEALTHY if healthy else HealthState.CORRUPT)


def test_proc_ping_range_checks_like_every_remote_call():
    def main(ctx):
        yield from ctx.proc_ping(2)

    with pytest.raises(GaspiUsageError, match=r"rank 2 outside \[0, 2\)"):
        run_gaspi(main, n_ranks=2)
