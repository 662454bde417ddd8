"""Tests for passive communication, atomics, ping/kill and the state vector."""

import math

import pytest

from repro.cluster import FaultPlan
from repro.gaspi import (
    GASPI_BLOCK,
    GASPI_TEST,
    GaspiUsageError,
    HealthState,
    ReturnCode,
    run_gaspi,
)
from repro.gaspi.context import _clip_timeout
from repro.sim import Sleep


def test_passive_send_receive():
    def main(ctx):
        if ctx.rank == 0:
            ret = yield from ctx.passive_send(1, {"work": [1, 2, 3]})
            return ret
        ret, src, payload = yield from ctx.passive_receive(timeout=5.0)
        return (ret, src, payload)

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) is ReturnCode.SUCCESS
    assert run.result(1) == (ReturnCode.SUCCESS, 0, {"work": [1, 2, 3]})


def test_passive_receive_timeout():
    def main(ctx):
        ret, src, payload = yield from ctx.passive_receive(timeout=0.5)
        return (ret, src, payload)

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == (ReturnCode.TIMEOUT, -1, None)


def test_every_negative_timeout_raises_minus_infinity_included():
    assert _clip_timeout(GASPI_BLOCK) is None  # +inf blocks forever
    assert _clip_timeout(GASPI_TEST) == 0.0
    for timeout in (-1.0, -math.inf):
        with pytest.raises(GaspiUsageError, match="negative timeout"):
            _clip_timeout(timeout)

    def main(ctx):
        yield from ctx.passive_receive(-math.inf)  # clips before it waits

    with pytest.raises(GaspiUsageError, match="negative timeout -inf"):
        run_gaspi(main, n_ranks=1)


def test_passive_send_to_dead_rank_times_out():
    def main(ctx):
        if ctx.rank == 0:
            yield Sleep(1.0)
            ret = yield from ctx.passive_send(1, "x", timeout=0.5)
            return ret
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(0.2, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    assert run.result(0) is ReturnCode.TIMEOUT


def test_passive_messages_fifo_per_receiver():
    def main(ctx):
        if ctx.rank == 0:
            for i in range(3):
                yield from ctx.passive_send(1, i)
            return None
        got = []
        for _ in range(3):
            _, _, payload = yield from ctx.passive_receive()
            got.append(payload)
        return got

    run = run_gaspi(main, n_ranks=2)
    assert run.result(1) == [0, 1, 2]


def test_atomic_fetch_add_serialises_counts():
    def main(ctx):
        ctx.segment_create(0, 64)
        yield from ctx.barrier()
        ret, old = yield from ctx.atomic_fetch_add(0, 0, 0, 1)
        assert ret is ReturnCode.SUCCESS
        yield from ctx.barrier()
        if ctx.rank == 0:
            import numpy as np
            return int(ctx.segment_view(0, np.int64)[0])
        return old

    run = run_gaspi(main, n_ranks=4)
    assert run.result(0) == 4  # all four increments landed
    olds = sorted(run.result(r) for r in range(1, 4))
    assert all(0 <= o < 4 for o in olds)


def test_atomic_compare_swap_only_one_winner():
    def main(ctx):
        ctx.segment_create(0, 64)
        yield from ctx.barrier()
        ret, old = yield from ctx.atomic_compare_swap(0, 0, 8, comparator=0,
                                                      new_value=ctx.rank + 1)
        return old

    run = run_gaspi(main, n_ranks=4)
    wins = [r for r in range(4) if run.result(r) == 0]
    assert len(wins) == 1  # exactly one rank saw the initial value


def test_atomic_alignment_enforced():
    def main(ctx):
        ctx.segment_create(0, 64)
        yield from ctx.atomic_fetch_add(0, 0, 3, 1)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=1)


def test_atomic_to_dead_rank_times_out():
    def main(ctx):
        ctx.segment_create(0, 64)
        if ctx.rank == 0:
            yield Sleep(1.0)
            ret, old = yield from ctx.atomic_fetch_add(1, 0, 0, 1, timeout=0.5)
            return (ret, old)
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(0.2, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    assert run.result(0) == (ReturnCode.TIMEOUT, None)


def test_proc_ping_healthy():
    def main(ctx):
        if ctx.rank == 0:
            ret = yield from ctx.proc_ping(1, GASPI_BLOCK)
            return (ret, ctx.health_of(1))
        yield from ctx.barrier()

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == (ReturnCode.SUCCESS, HealthState.HEALTHY)


def test_proc_ping_dead_returns_error_and_marks_corrupt():
    def main(ctx):
        if ctx.rank == 0:
            yield Sleep(1.0)
            ret = yield from ctx.proc_ping(1, GASPI_BLOCK)
            state = ctx.state_vec_get()
            return (ret, ctx.health_of(1), int(state[1]))
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(0.2, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    ret, health, vec1 = run.result(0)
    assert ret is ReturnCode.ERROR
    assert health is HealthState.CORRUPT
    assert vec1 == HealthState.CORRUPT


def test_proc_ping_short_timeout_yields_timeout_not_error():
    def main(ctx):
        if ctx.rank == 0:
            yield Sleep(1.0)
            ret = yield from ctx.proc_ping(1, 0.5)  # < error_timeout (3.5 s)
            return (ret, ctx.health_of(1))
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(0.2, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    # patience ran out before the transport diagnosed the failure
    assert run.result(0) == (ReturnCode.TIMEOUT, HealthState.HEALTHY)


def test_proc_kill_terminates_target():
    def main(ctx):
        if ctx.rank == 0:
            ret = yield from ctx.proc_kill(1, GASPI_BLOCK)
            yield Sleep(0.1)
            return (ret, ctx.world.machine.alive(1))
        yield Sleep(100.0)
        return "survived"

    run = run_gaspi(main, n_ranks=2)
    ret, alive = run.result(0)
    assert ret is ReturnCode.SUCCESS
    assert not alive
    assert run.result(1) is None  # killed before finishing


def test_proc_kill_already_dead_is_success():
    def main(ctx):
        if ctx.rank == 0:
            yield Sleep(1.0)
            ret = yield from ctx.proc_kill(1, GASPI_BLOCK)
            return ret
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(0.2, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    assert run.result(0) is ReturnCode.SUCCESS


def test_state_vector_starts_healthy():
    def main(ctx):
        if False:
            yield
        return [int(s) for s in ctx.state_vec_get()]

    run = run_gaspi(main, n_ranks=3)
    assert run.result(0) == [0, 0, 0]


def test_return_code_truthiness_is_a_bug_guard():
    with pytest.raises(TypeError):
        bool(ReturnCode.SUCCESS)


def test_gaspi_test_timeout_polls_without_blocking():
    def main(ctx):
        ctx.segment_create(0, 32)
        t0 = ctx.now
        ret, nid = yield from ctx.notify_waitsome(0, 0, 8, timeout=GASPI_TEST)
        return (ret, ctx.now - t0)

    run = run_gaspi(main, n_ranks=1)
    ret, dt = run.result(0)
    assert ret is ReturnCode.TIMEOUT
    assert dt == 0.0
