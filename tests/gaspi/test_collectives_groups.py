"""Tests for groups, barrier, allreduce, group_commit semantics and costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import FaultPlan
from repro.gaspi import (
    AllreduceOp,
    GaspiUsageError,
    Group,
    ReturnCode,
    run_gaspi,
)
from repro.sim import Sleep


def test_group_membership_api():
    g = Group(tag=5)
    g.add(2)
    g.add(0)
    assert g.members == (0, 2)
    assert 2 in g and 1 not in g
    assert g.size == 2
    assert g.identity() == (5, (0, 2))


def test_group_add_duplicate_and_invalid_rejected():
    g = Group()
    g.add(1)
    with pytest.raises(GaspiUsageError):
        g.add(1)
    with pytest.raises(GaspiUsageError):
        g.add(-1)


def test_group_add_after_commit_rejected():
    g = Group()
    g.add(0)
    g.committed = True
    with pytest.raises(GaspiUsageError):
        g.add(1)


def test_uncommitted_group_unusable_for_barrier():
    def main(ctx):
        g = ctx.group_create()
        g.add(ctx.rank)
        yield from ctx.barrier(g)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=1)


def test_barrier_synchronises_all_ranks():
    def main(ctx):
        yield Sleep(float(ctx.rank))  # staggered arrival: 0,1,2,3 s
        ret = yield from ctx.barrier()
        return (ret, ctx.now)

    run = run_gaspi(main, n_ranks=4)
    times = [run.result(r)[1] for r in range(4)]
    assert all(r[0] is ReturnCode.SUCCESS for r in run.results.values())
    # everyone leaves at the same instant, just after the last arrival (3 s)
    assert len(set(times)) == 1
    assert times[0] >= 3.0
    assert times[0] < 3.1


def test_barrier_timeout_then_retry_succeeds():
    def main(ctx):
        if ctx.rank == 1:
            yield Sleep(2.0)  # late
        attempts = 0
        while True:
            ret = yield from ctx.barrier(timeout=0.5)
            attempts += 1
            if ret is ReturnCode.SUCCESS:
                return (attempts, ctx.now)

    run = run_gaspi(main, n_ranks=2)
    a0, t0 = run.result(0)
    a1, t1 = run.result(1)
    assert a0 > 1      # rank 0 had to retry after timeouts
    assert a1 == 1
    assert t0 == t1


def test_consecutive_barriers_are_distinct_instances():
    def main(ctx):
        for _ in range(5):
            ret = yield from ctx.barrier()
            assert ret is ReturnCode.SUCCESS
        return ctx.now

    run = run_gaspi(main, n_ranks=3)
    assert run.world.engine.pending == 0


def test_allreduce_min_max_sum():
    def main(ctx):
        vals = np.array([float(ctx.rank), -float(ctx.rank)])
        ret, mn = yield from ctx.allreduce(vals, AllreduceOp.MIN)
        ret2, mx = yield from ctx.allreduce(vals, AllreduceOp.MAX)
        ret3, sm = yield from ctx.allreduce(vals, AllreduceOp.SUM)
        assert ReturnCode.SUCCESS is ret is ret2 is ret3
        return (list(mn), list(mx), list(sm))

    run = run_gaspi(main, n_ranks=4)
    for r in range(4):
        mn, mx, sm = run.result(r)
        assert mn == [0.0, -3.0]
        assert mx == [3.0, 0.0]
        assert sm == [6.0, -6.0]


def test_allreduce_on_subgroup():
    def main(ctx):
        if ctx.rank >= 2:
            return None
        g = ctx.group_create(tag=1)
        g.add(0)
        g.add(1)
        ret = yield from ctx.group_commit(g)
        assert ret is ReturnCode.SUCCESS
        ret, total = yield from ctx.allreduce(np.array([1.0]), AllreduceOp.SUM, g)
        return float(total[0])

    run = run_gaspi(main, n_ranks=4)
    assert run.result(0) == 2.0
    assert run.result(1) == 2.0
    assert run.result(2) is None


def test_group_commit_cost_linear_in_size():
    """OHF2: commit time grows linearly with group size."""
    def make(n):
        def main(ctx):
            g = ctx.group_create(tag=2)
            for r in range(n):
                g.add(r)
            yield from ctx.group_commit(g)
            return ctx.now
        return main

    t8 = run_gaspi(make(8), n_ranks=8).result(0)
    t64 = run_gaspi(make(64), n_ranks=64).result(0)
    # cost = base + per_rank * p  →  (t64 - base) ≈ 8 * (t8 - base)
    base = 0.050
    assert (t64 - base) / (t8 - base) == pytest.approx(8.0, rel=0.05)


def test_group_commit_blocks_until_all_members_commit():
    def main(ctx):
        g = ctx.group_create(tag=3)
        g.add(0)
        g.add(1)
        if ctx.rank == 1:
            yield Sleep(5.0)
        ret = yield from ctx.group_commit(g)
        return (ret, ctx.now)

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0)[1] == run.result(1)[1]
    assert run.result(0)[1] >= 5.0


def test_barrier_with_dead_member_times_out_forever():
    def main(ctx):
        if ctx.rank == 1:
            yield Sleep(100.0)
            return None
        outcomes = []
        for _ in range(3):
            ret = yield from ctx.barrier(timeout=0.5)
            outcomes.append(ret)
        return outcomes

    plan = FaultPlan().kill_process(0.1, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan, until=50.0)
    assert run.result(0) == [ReturnCode.TIMEOUT] * 3


def test_collective_membership_mismatch_detected():
    def main(ctx):
        g = ctx.group_create(tag=4)
        g.add(ctx.rank)          # each rank builds a *different* group
        g.add((ctx.rank + 1) % 2)
        g.committed = True       # bypass commit to hit the engine check
        yield from ctx.barrier(g)

    # ranks disagree on membership order but sorted members match, so this
    # is actually consistent; a true mismatch needs different member sets
    run = run_gaspi(main, n_ranks=2)

    def bad(ctx):
        if ctx.rank == 2:
            return None
        g = ctx.group_create(tag=5)
        g.add(0)
        g.add(1)
        if ctx.rank == 0:
            g.add(2)  # rank 0 disagrees about membership
        g.committed = True
        ret = yield from ctx.barrier(g, timeout=1.0)
        return ret

    # mismatched memberships form distinct instances that never complete
    run2 = run_gaspi(bad, n_ranks=3)
    assert run2.result(0) is ReturnCode.TIMEOUT
    assert run2.result(1) is ReturnCode.TIMEOUT
    assert run2.world.engine.pending == 2


def test_barrier_rank_not_in_group_raises():
    def main(ctx):
        g = ctx.group_create(tag=6)
        g.add(0)
        g.committed = True
        yield from ctx.barrier(g)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=2)


# ----------------------------------------------------------------------
# reductions: plain ints and arrays against their oracles
# ----------------------------------------------------------------------
_OPS = (AllreduceOp.MIN, AllreduceOp.MAX, AllreduceOp.SUM)
_I64 = np.iinfo(np.int64)


def _stack_reduce(op, contributions):
    """The oracle: the array reduce before plain ints had their own path."""
    stack = np.stack(contributions)
    if op is AllreduceOp.MIN:
        return stack.min(axis=0)
    if op is AllreduceOp.MAX:
        return stack.max(axis=0)
    return stack.sum(axis=0)


def _allreduce_each(contributions, op):
    """Rank ``r`` contributes ``contributions[r]``; ``(result, now)`` per rank."""
    def main(ctx):
        ret, result = yield from ctx.allreduce(contributions[ctx.rank], op)
        assert ret is ReturnCode.SUCCESS
        return (result, ctx.now)

    n = len(contributions)
    run = run_gaspi(main, n_ranks=n)
    return [run.result(r) for r in range(n)]


@st.composite
def _int_case(draw):
    op = draw(st.sampled_from(_OPS))
    n = draw(st.integers(1, 9))
    # MIN/MAX over the whole int64 range; SUM totals stay inside it
    bound = _I64.max // n if op is AllreduceOp.SUM else _I64.max
    low = -bound if op is AllreduceOp.SUM else int(_I64.min)
    values = draw(st.lists(st.integers(low, bound), min_size=n, max_size=n))
    return op, values


@settings(max_examples=40, deadline=None)
@given(_int_case())
def test_int_allreduce_matches_int64_array_allreduce(case):
    op, values = case
    plain = _allreduce_each(values, op)
    boxed = _allreduce_each(
        [np.array([v], dtype=np.int64) for v in values], op)
    for (got, t_int), (ref, t_array) in zip(plain, boxed):
        assert type(got) is int
        assert got == int(ref[0])
        # an int is priced as one int64 element
        assert t_int == t_array


@st.composite
def _array_case(draw):
    op = draw(st.sampled_from(_OPS))
    n = draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    shape = draw(st.sampled_from([(1,), (3,), (2, 3)]))
    if dtype is np.float64:
        # finite sums: nine terms of at most 1e300 cannot overflow
        elements = st.floats(-1e300, 1e300)
    else:
        elements = st.integers(-(_I64.max // n), _I64.max // n)
    values = draw(st.lists(arrays(dtype, shape, elements=elements),
                           min_size=n, max_size=n))
    return op, values


@settings(max_examples=60, deadline=None)
@given(_array_case())
def test_array_allreduce_is_bit_identical_to_stack_oracle(case):
    op, values = case
    expected = _stack_reduce(op, values)
    for got, _ in _allreduce_each(values, op):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("contributions", [
    [np.zeros(2), np.zeros(3)],
    [np.zeros((2, 3)), np.zeros((3, 2))],
    [5, np.array([1], dtype=np.int64)],
    [np.array([1], dtype=np.int64), 5],
], ids=["lengths", "shapes", "int-then-array", "array-then-int"])
def test_allreduce_of_mismatched_contributions_raises(contributions):
    with pytest.raises(ValueError):
        _allreduce_each(contributions, AllreduceOp.SUM)
