"""Rechecked kernel waits against the retry loops they replaced.

A guarded call used to return ``TIMEOUT`` every ``comm_timeout`` to a
caller-side loop, which re-read the failure flag and called again with
the same parameters.  The kernel now re-arms the wait itself
(``recheck``) and resumes the rank only when the call succeeds or the
flag trips.  The oracle here is that retry loop: swapped in for
``GaspiContext.group_commit`` under both commit callers
(``perform_recovery`` and the team's commit), and run verbatim in place
of the team's guarded barrier and allreduce and the spMVM engine's queue
flush.  Each must behave identically under it: same outcome, same resume
time and order, same kernel event count.  Also here: a kill in the
middle of a re-armed wait leaves nothing behind, and one recovery's
per-rank host work stays flat as the group grows.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPlan
from repro.experiments.common import run_ft_scenario
from repro.ft import app, rankstate
from repro.ft.control import FailureNotice
from repro.ft.recovery import perform_recovery
from repro.gaspi import run_gaspi
from repro.gaspi.collectives import CollectiveCosts
from repro.gaspi.config import GaspiConfig
from repro.gaspi.constants import GASPI_BLOCK, AllreduceOp, ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.sim import Simulator, Sleep
from repro.spmvm import SpMVMEngine, Team
from repro.spmvm.ft_hooks import FailureAcknowledged
from repro.workloads.spec import scaled_spec

_rearmed_group_commit = GaspiContext.group_commit


def looping_group_commit(self, group, timeout=GASPI_BLOCK, recheck=None):
    """The oracle: the caller-side retry loop the re-armed wait replaced.

    Every timeout returns to the caller's frame, which re-reads the
    check and, while it passes, commits again with the same parameters.
    """
    while True:
        ret = yield from _rearmed_group_commit(self, group, timeout)
        if (ret is ReturnCode.SUCCESS or recheck is None
                or recheck() is not None):
            return ret


def retry_loop(team, call, *args):
    """The oracle of a guarded team call and of the engine flush: the
    caller-side loop it replaced — read the flag, call, and on
    ``TIMEOUT`` do both again with the same parameters."""
    while True:
        team.assert_healthy()
        ret = yield from call(*args)
        if (ret[0] if type(ret) is tuple else ret) is ReturnCode.SUCCESS:
            return ret


class _Block:
    """A control block reduced to its failure flag: the newest notice."""

    def __init__(self) -> None:
        self.notice = None

    def check_failure(self, seen_epoch):
        notice = self.notice
        if notice is None or notice.epoch <= seen_epoch:
            return None
        return notice


def _notice(epoch, n):
    return FailureNotice(epoch=epoch, failed=(), rescues=(),
                         rank_map={r: r for r in range(n)})


def _boundary(t0, timeout, k):
    """A waiter's k-th timeout, summed the way the kernel sums it."""
    t = t0
    for _ in range(k):
        t = t + timeout
    return t


#: callers whose wait is a group commit lasting ``periods`` timeouts
COMMIT_CALLERS = ["recovery", "guard"]
#: the team's guarded collectives (lasting ``periods`` timeouts per
#: dissemination round) and the engine flush (never done: its writes
#: target a dead rank)
TEAM_CALLERS = ["barrier", "allreduce-int", "allreduce-array", "flush"]


def _team_call(caller, team, oracle):
    """Generator: one guarded call of ``caller`` — under ``oracle``, the
    retry loop it replaced (a commit's is swapped in below the team);
    what the rank saw."""
    ctx, timeout = team.ctx, team.comm_timeout
    rank = ctx.rank
    if caller == "guard":
        yield from team.commit()
        return "committed"
    if caller == "barrier":
        if oracle:
            yield from retry_loop(team, ctx.barrier, team.group, timeout)
        else:
            yield from team.barrier()
        return "passed"
    if caller.startswith("allreduce"):
        if caller == "allreduce-int":
            values, op = rank + 1, AllreduceOp.MIN
        else:
            values, op = np.array([rank, 0.5]), AllreduceOp.SUM
        if oracle:
            _, total = yield from retry_loop(team, ctx.allreduce, values,
                                             op, team.group, timeout)
        else:
            total = yield from team.allreduce(values, op)
        return total if type(total) is int else tuple(total.tolist())
    # one op stuck on even ranks (the wait takes the op's own event),
    # two on odd ones (an aggregate drain event)
    for i in range(1 + rank % 2):
        ctx.write(0, 8 * i, 8, team.n_workers, 8 * i, 0)
    if oracle:
        yield from retry_loop(team, ctx.wait, 0, timeout)
    else:
        yield from SpMVMEngine._flush(SimpleNamespace(team=team))
    return "flushed"


def run_wait(case, oracle):
    """One guarded wait of every rank under ``case``; what they observed.

    Returns per-rank ``(outcome, resume time)``, the resume order and
    the kernel's scheduled-entry count.
    """
    caller, timeout, arrivals, periods, writer = case
    n = len(arrivals)
    cost = periods * timeout
    if caller in COMMIT_CALLERS:
        costs = CollectiveCosts(commit_base=cost, commit_per_rank=0.0)
        duration = cost
    else:
        # commits are free; each dissemination round lasts ``cost``, and
        # an allreduce prices like a barrier at infinite bandwidth
        costs = CollectiveCosts(commit_base=0.0, commit_per_rank=0.0,
                                round_latency=cost, bandwidth=math.inf)
        duration = costs.barrier(n)
    sim = Simulator()
    block = _Block()
    newer = _notice(2, n)

    def write():
        block.notice = newer

    # the notice write: strictly between two timeouts of one rank,
    # exactly on one (by the kernel's own repeated addition) or exactly
    # at completion; ``hop`` schedules it after, not before, the kernel
    # entries already due at that instant
    mode, rank, k, hop = writer
    if mode == "between":
        sim.schedule(arrivals[rank] + (k + 0.5) * timeout, write)
    elif mode in ("boundary", "completion"):
        if mode == "boundary":
            t_pre, delay = _boundary(arrivals[rank], timeout, k - 1), timeout
        else:
            t_pre, delay = max(arrivals), duration

        def arm():
            sim.schedule(delay, write)

        sim.schedule(t_pre, (lambda: sim.schedule(0.0, arm)) if hop else arm)

    members = _Members.of(range(n))
    rank_map = {r: r for r in range(n)}
    seen = {}
    order = []

    def main(ctx):
        if caller == "flush":
            ctx.segment_create(0, 16)
            if ctx.rank == n:
                return  # the flush's write target, killed at t = 0
        if caller == "recovery":
            yield Sleep(arrivals[ctx.rank])
            # like the worker loop: a rank whose commit succeeded still
            # joins the recovery of a notice that superseded it elsewhere
            notice, old = _notice(1, n), None
            while notice is not None:
                team = yield from perform_recovery(
                    ctx, SimpleNamespace(comm_timeout=timeout), block,
                    notice, old_group=old)
                old = team.group
                notice = block.check_failure(team.group.tag)
            outcome = team.group.tag
        else:
            group = ctx.group_create(tag=0)
            group.adopt_members(members)
            if caller in ("barrier", "allreduce-int", "allreduce-array"):
                yield from ctx.group_commit(group)  # free, at t = 0
            yield Sleep(arrivals[ctx.rank])
            team = Team(ctx=ctx, group=group, logical_rank=ctx.rank,
                        rank_map=rank_map,
                        guard=lambda: block.check_failure(0),
                        comm_timeout=timeout)
            try:
                outcome = yield from _team_call(caller, team, oracle)
            except FailureAcknowledged as ack:
                outcome = f"ack {ack.notice.epoch}"
        seen[ctx.rank] = (outcome, ctx.now)
        order.append(ctx.rank)

    config = GaspiConfig(collective_costs=costs)
    plan = FaultPlan().kill_process(0.0, n) if caller == "flush" else None
    commit = looping_group_commit if oracle else _rearmed_group_commit
    with mock.patch.object(GaspiContext, "group_commit", commit):
        # the horizon only bounds a regression that would wait forever
        run_gaspi(main, n_ranks=n + (caller == "flush"), config=config,
                  sim=sim, fault_plan=plan, until=1000.0)
    assert len(seen) == n
    return seen, order, sim.scheduled_count


@st.composite
def wait_cases(draw, callers):
    caller = draw(st.sampled_from(callers))
    timeout = draw(st.sampled_from([1.0, 0.3, 0.1]))
    # few distinct arrival offsets, so ranks often share t0
    arrivals = draw(st.lists(
        st.sampled_from([0.0, 0.25, 1.0, 2.5]).map(lambda t: t * timeout),
        min_size=2, max_size=5))
    periods = draw(st.one_of(st.integers(0, 40).map(float),
                             st.floats(0.0, 40.0)))
    # a flush never completes: only a notice ends it
    modes = (["between", "boundary"] if caller == "flush"
             else ["none", "between", "boundary", "completion"])
    mode = draw(st.sampled_from(modes))
    writer = (mode, draw(st.integers(0, len(arrivals) - 1)),
              draw(st.integers(1, 42)), draw(st.booleans()))
    return caller, timeout, arrivals, periods, writer


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wait_cases(COMMIT_CALLERS))
def test_rearmed_commit_matches_the_retry_loop(case):
    assert run_wait(case, oracle=False) == run_wait(case, oracle=True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wait_cases(TEAM_CALLERS))
def test_rechecked_team_waits_match_the_retry_loop(case):
    assert run_wait(case, oracle=False) == run_wait(case, oracle=True)


@pytest.mark.parametrize("hop", [False, True])
@pytest.mark.parametrize("caller", COMMIT_CALLERS + TEAM_CALLERS)
def test_notice_on_a_boundary_trips_there_or_one_period_later(caller, hop):
    """Pinned case: a notice written exactly at a rank's third timeout is
    seen at that timeout if it lands first, else one period later."""
    case = (caller, 1.0, [0.0, 0.0, 0.0], 40.0, ("boundary", 0, 3, hop))
    seen, order, _ = run_wait(case, oracle=False)
    assert run_wait(case, oracle=True)[:2] == (seen, order)
    tripped = 4.0 if hop else 3.0
    if caller == "recovery":
        # superseded at the trip, then epoch 2 commits 40 s later
        assert seen == {r: (2, tripped + 40.0) for r in range(3)}
    else:
        assert seen == {r: ("ack 2", tripped) for r in range(3)}
    assert order == [0, 1, 2]


@pytest.mark.parametrize("caller", ["guard"] + TEAM_CALLERS)
def test_a_rank_arriving_after_the_notice_acknowledges_at_once(caller):
    """Pinned case: the flag is read before the first wait, so a rank that
    arrives after the notice landed never joins the call."""
    case = (caller, 1.0, [0.0, 0.0, 5.0], 40.0, ("between", 0, 1, False))
    seen, order, _ = run_wait(case, oracle=False)
    assert run_wait(case, oracle=True)[:2] == (seen, order)
    assert seen == {0: ("ack 2", 2.0), 1: ("ack 2", 2.0), 2: ("ack 2", 5.0)}
    assert order == [0, 1, 2]


def _assert_kill_leaves_nothing(wait):
    """Ranks 0 and 1 block in a rechecked ``wait`` that rank 2 never
    joins; rank 0, killed at 3.5 s, leaves no live timer, timeout record
    or callback."""
    checks = []
    state = {}

    def main(ctx):
        group = ctx.group_create(tag=0)
        group.adopt_members(_Members.of(range(3)))
        state[ctx.rank] = group
        if wait == "barrier":
            yield from ctx.group_commit(group)  # free, at t = 0
        if ctx.rank == 2:
            return  # never arrives: the instance stays pending
        call = ctx.group_commit if wait == "commit" else ctx.barrier
        yield from call(
            group, 1.0, recheck=lambda: checks.append((ctx.rank, ctx.now)))

    config = GaspiConfig(collective_costs=CollectiveCosts(
        commit_base=0.0, commit_per_rank=0.0))
    run = run_gaspi(main, n_ranks=3, config=config, until=6.5,
                    fault_plan=FaultPlan().kill_process(3.5, 0))
    sim, proc = run.world.sim, run.procs[0]
    assert [t for r, t in checks if r == 0] == [1.0, 2.0, 3.0]
    assert [t for r, t in checks if r == 1] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    group = state[0]
    pending = run.world.engine._instances[
        (wait, group.identity(), group.coll_seq)]
    assert pending.events[0]._callbacks == []
    assert len(pending.events[1]._callbacks) == 1  # rank 1 still waits
    entries = list(sim._heap) + list(sim._runq) + [sim._next]
    live = [e for e in entries if e is not None and (
        e[3] is proc
        or getattr(getattr(e[2], "__self__", None), "proc", None) is proc)]
    assert live == []
    # the timeout FIFOs hold rank 1's current record, and none of rank 0
    records = [r for fifo in sim._timeouts.values() for r in fifo
               if r[2] is not None]
    assert [r[2].proc for r in records] == [run.procs[1]]


def test_kill_mid_wait_leaves_no_timer_or_callback():
    """A rank killed after several re-arms leaves no live timer, no live
    timeout record and no callback on its commit event: the kill voids
    the current record."""
    _assert_kill_leaves_nothing("commit")


def test_kill_mid_rechecked_barrier_leaves_no_timer_or_callback():
    """The same for a rechecked barrier."""
    _assert_kill_leaves_nothing("barrier")


class _RebuildSpy:
    """Counts calls of the O(n) membership derivations made while any
    rank runs a recovery rebuild (``perform_recovery``, then a survivor's
    ``FTContext.rebind`` or a rescue's new ``FTContext``), and
    ``group_commit`` calls overall."""

    DERIVATIONS = ("map_members", "intern", "fromiter")

    def __init__(self, monkeypatch) -> None:
        self.active = 0
        self.counts = dict.fromkeys(self.DERIVATIONS, 0)
        self.commits = 0
        map_members, intern = rankstate.map_members, _Members.intern
        fromiter, commit = np.fromiter, GaspiContext.group_commit
        rebuild = app._rebuild_context

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_commit(*args, **kwargs):
            self.commits += 1
            return commit(*args, **kwargs)

        def rebuild_span(*args, **kwargs):
            gen = rebuild(*args, **kwargs)
            value = None
            while True:
                self.active += 1
                try:
                    request = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.active -= 1
                value = yield request

        monkeypatch.setattr(rankstate, "map_members",
                            counted("map_members", map_members))
        counted_intern = counted("intern", intern)
        monkeypatch.setattr(_Members, "intern", classmethod(
            lambda cls, ranks: counted_intern(ranks)))
        monkeypatch.setattr(np, "fromiter", counted("fromiter", fromiter))
        monkeypatch.setattr(GaspiContext, "group_commit", counted_commit)
        monkeypatch.setattr(app, "_rebuild_context", rebuild_span)

    def run(self, workers):
        self.counts = dict.fromkeys(self.DERIVATIONS, 0)
        self.commits = 0
        spec = scaled_spec(workers=workers, iterations=25,
                           name=f"growth-{workers}")
        out = run_ft_scenario(f"growth-{workers}", spec,
                              kill_times=[(10.5, 3)], n_spares=4)
        assert out.n_recoveries == 1
        return dict(self.counts), self.commits


def test_recovery_host_work_stays_flat_as_ranks_grow(monkeypatch):
    spy = _RebuildSpy(monkeypatch)
    small, _ = spy.run(64)
    large, commits = spy.run(256)
    # one derivation per epoch, however many ranks rebuild
    assert small == large
    assert large["map_members"] == 1
    # 256 workers commit twice (startup, then recovery); each commit
    # costs 6.96 s, about seven timeouts, yet a rank enters it at most
    # twice per commit
    assert commits <= 2 * 256 * 2
