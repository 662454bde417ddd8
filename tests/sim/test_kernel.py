"""Unit tests for the DES kernel: clock, ordering, scheduling, run bounds."""

import pytest

from repro.sim import Simulator, Sleep, SimError
from tests.sim.step_trace import record_steps


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1.0, lambda: None)


def test_simultaneous_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(1.0, lambda: order.append("b"))
    sim.schedule(0.5, lambda: order.append("first"))
    sim.run()
    assert order == ["first", "a", "b"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(10.0, lambda: seen.append(10))
    t = sim.run(until=5.0)
    assert seen == [1]
    assert t == 5.0
    # the remaining event still fires on a later run
    sim.run()
    assert seen == [1, 10]
    assert sim.now == 10.0


def test_run_until_advances_clock_even_with_empty_heap():
    sim = Simulator()
    assert sim.run(until=7.0) == 7.0


def test_timer_cancel_prevents_callback():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, lambda: seen.append(1))
    sim.cancel(timer)
    sim.run()
    assert seen == []


def test_timer_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.cancel(timer)
    sim.cancel(timer)
    sim.run()


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(2.0, lambda: seen.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 3.0)]


def test_process_sleep_advances_time():
    sim = Simulator()

    def proc():
        yield Sleep(1.5)
        yield Sleep(2.5)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 4.0


def test_process_return_value_captured():
    sim = Simulator()

    def proc():
        yield Sleep(0.0)
        return 42

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 42


def test_spawn_at_delays_start():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Sleep(1.0)

    sim.spawn_at(5.0, proc())
    sim.run()
    assert times == [5.0]


def test_yield_garbage_raises_helpful_error():
    sim = Simulator()

    def proc():
        yield "not a request"

    sim.spawn(proc(), name="bad")
    with pytest.raises(SimError, match="yield from"):
        sim.run()


def test_negative_sleep_rejected():
    with pytest.raises(SimError):
        Sleep(-0.1)


def test_determinism_same_program_same_trace():
    def build():
        sim = Simulator()
        trace = record_steps(sim)

        def worker(i):
            for _ in range(3):
                yield Sleep(0.5 * (i + 1))

        for i in range(4):
            sim.spawn(worker(i), name=f"w{i}")
        sim.run()
        return trace

    assert build() == build()
