"""The re-armed group-commit wait against the retry loop it replaced.

A rank blocked in ``group_commit`` used to return ``TIMEOUT`` every
``comm_timeout``, re-read its failure flag and commit again.  The kernel
now re-arms the wait itself (``recheck``) and resumes the rank only when
the commit succeeds or the flag trips.  The oracle here is that retry
loop, swapped in for ``GaspiContext.group_commit``: both production
callers (``perform_recovery`` and the initial commit) must behave
identically under it — same outcome, same resume time and order, same
kernel event count.  Also here: a kill in the middle of a re-armed wait
leaves nothing behind, and one recovery's per-rank host work stays flat
as the group grows.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPlan
from repro.experiments.common import run_ft_scenario
from repro.ft import app, rankstate
from repro.ft.app import _commit_initial_group
from repro.ft.control import FailureNotice
from repro.ft.recovery import perform_recovery
from repro.gaspi import run_gaspi
from repro.gaspi.collectives import CollectiveCosts
from repro.gaspi.config import GaspiConfig
from repro.gaspi.constants import GASPI_BLOCK, ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.sim import Simulator, Sleep
from repro.spmvm.ft_hooks import CommGuard, FailureAcknowledged
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
    return FailureNotice(epoch=epoch, failed=(), rescues=(), status=(),
                         rank_map={r: r for r in range(n)})


def _boundary(t0, timeout, k):
    """A waiter's k-th timeout, summed the way the kernel sums it."""
    t = t0
    for _ in range(k):
        t = t + timeout
    return t


def run_commit(case, oracle):
    """One commit of every rank under ``case``; what the ranks observed.

    Returns per-rank ``(outcome, resume time)``, the resume order and
    the kernel's scheduled-entry count.
    """
    caller, timeout, arrivals, periods, writer = case
    n = len(arrivals)
    cost = periods * timeout
    sim = Simulator()
    block = _Block()
    newer = _notice(2, n)

    def write():
        block.notice = newer

    # the notice write: strictly between two timeouts of one rank,
    # exactly on one (by the kernel's own repeated addition) or exactly
    # at commit completion; ``hop`` schedules it after, not before, the
    # kernel entries already due at that instant
    mode, rank, k, hop = writer
    if mode == "between":
        sim.schedule(arrivals[rank] + (k + 0.5) * timeout, write)
    elif mode in ("boundary", "completion"):
        if mode == "boundary":
            t_pre, delay = _boundary(arrivals[rank], timeout, k - 1), timeout
        else:
            t_pre, delay = max(arrivals), cost

        def arm():
            sim.schedule(delay, write)

        sim.schedule(t_pre, (lambda: sim.schedule(0.0, arm)) if hop else arm)

    members = _Members.of(range(n))
    seen = {}
    order = []

    def main(ctx):
        yield Sleep(arrivals[ctx.rank])
        if caller == "recovery":
            # like the worker loop: a rank whose commit succeeded still
            # joins the recovery of a notice that superseded it elsewhere
            notice, old = _notice(1, n), None
            while notice is not None:
                result = yield from perform_recovery(
                    ctx, SimpleNamespace(comm_timeout=timeout), block,
                    notice, old_group=old)
                old = result.team.group
                notice = block.check_failure(result.notice.epoch)
            outcome = result.notice.epoch
        else:
            group = ctx.group_create(tag=0)
            group.adopt_members(members)
            ftx = SimpleNamespace(
                guard=CommGuard(lambda: block.check_failure(0)),
                team=SimpleNamespace(group=group))
            try:
                yield from _commit_initial_group(
                    ctx, SimpleNamespace(comm_timeout=timeout), ftx)
                outcome = "committed"
            except FailureAcknowledged as ack:
                outcome = f"ack {ack.notice.epoch}"
        seen[ctx.rank] = (outcome, ctx.now)
        order.append(ctx.rank)

    config = GaspiConfig(collective_costs=CollectiveCosts(
        commit_base=cost, commit_per_rank=0.0))
    commit = looping_group_commit if oracle else _rearmed_group_commit
    with mock.patch.object(GaspiContext, "group_commit", commit):
        # the horizon only bounds a regression that would wait forever
        run_gaspi(main, n_ranks=n, config=config, sim=sim, until=1000.0)
    assert len(seen) == n
    return seen, order, sim.scheduled_count


@st.composite
def commit_cases(draw):
    caller = draw(st.sampled_from(["recovery", "guard"]))
    timeout = draw(st.sampled_from([1.0, 0.3, 0.1]))
    # few distinct arrival offsets, so ranks often share t0
    arrivals = draw(st.lists(
        st.sampled_from([0.0, 0.25, 1.0, 2.5]).map(lambda t: t * timeout),
        min_size=2, max_size=5))
    periods = draw(st.one_of(st.integers(0, 40).map(float),
                             st.floats(0.0, 40.0)))
    mode = draw(st.sampled_from(["none", "between", "boundary",
                                 "completion"]))
    writer = (mode, draw(st.integers(0, len(arrivals) - 1)),
              draw(st.integers(1, 42)), draw(st.booleans()))
    return caller, timeout, arrivals, periods, writer


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(commit_cases())
def test_rearmed_commit_matches_the_retry_loop(case):
    assert run_commit(case, oracle=False) == run_commit(case, oracle=True)


@pytest.mark.parametrize("hop", [False, True])
@pytest.mark.parametrize("caller", ["recovery", "guard"])
def test_notice_on_a_boundary_trips_there_or_one_period_later(caller, hop):
    """Pinned case: a notice written exactly at a rank's third timeout is
    seen at that timeout if it lands first, else one period later."""
    case = (caller, 1.0, [0.0, 0.0, 0.0], 40.0, ("boundary", 0, 3, hop))
    seen, order, _ = run_commit(case, oracle=False)
    assert run_commit(case, oracle=True)[:2] == (seen, order)
    tripped = 4.0 if hop else 3.0
    if caller == "recovery":
        # superseded at the trip, then epoch 2 commits 40 s later
        assert seen == {r: (2, tripped + 40.0) for r in range(3)}
    else:
        assert seen == {r: ("ack 2", tripped) for r in range(3)}
    assert order == [0, 1, 2]


def test_kill_mid_wait_leaves_no_timer_or_callback():
    """A rank killed after several re-arms leaves no live timer and no
    callback on its commit event: the kill cancels the current timer."""
    checks = []
    state = {}

    def main(ctx):
        if ctx.rank == 2:
            return  # never arrives: the commit stays pending
        group = ctx.group_create(tag=0)
        group.adopt_members(_Members.of(range(3)))
        state[ctx.rank] = group
        yield from ctx.group_commit(
            group, 1.0, recheck=lambda: checks.append((ctx.rank, ctx.now)))

    run = run_gaspi(main, n_ranks=3, until=6.5,
                    fault_plan=FaultPlan().kill_process(3.5, 0))
    sim, proc = run.world.sim, run.procs[0]
    assert [t for r, t in checks if r == 0] == [1.0, 2.0, 3.0]
    assert [t for r, t in checks if r == 1] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    group = state[0]
    pending = run.world.engine._instances[("commit", group.identity(), 0)]
    assert pending.events[0]._callbacks == []
    assert len(pending.events[1]._callbacks) == 1  # rank 1 still waits
    entries = list(sim._heap) + list(sim._runq) + [sim._next]
    live = [e for e in entries if e is not None and e[2] is not None
            and getattr(getattr(e[2], "__self__", None), "proc", None)
            is proc]
    assert live == []


class _RebuildSpy:
    """Counts calls of the O(n) membership derivations made while any
    rank runs a recovery rebuild (``perform_recovery`` then
    ``FTContext.build``), and ``group_commit`` calls overall."""

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
