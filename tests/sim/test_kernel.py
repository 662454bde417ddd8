"""Unit tests for the DES kernel: clock, ordering, scheduling, run bounds."""

import pytest

from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.ft import ft_main
from repro.gaspi import run_gaspi
from repro.sim import Simulator, Sleep, SimError
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import scaled_spec
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


def test_run_until_before_now_rejected():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(5))
    sim.schedule(20.0, lambda: seen.append(20))
    assert sim.run(until=10.0) == 10.0
    with pytest.raises(SimError, match="past"):
        sim.run(until=3.0)
    assert sim.now == 10.0  # the clock never rewinds
    sim.run()
    assert seen == [5, 20]
    assert sim.now == 20.0


# ----------------------------------------------------------------------
# run(until) stops by putting the first late entry back: a split run
# dispatches exactly as one uninterrupted run does
# ----------------------------------------------------------------------
def _note(sim, log, name):
    """Log a dispatch with where the kernel then holds its entries."""
    log.append((sim.now, name, sim._next is not None, len(sim._heap)))


def _dispatch(build, untils=()):
    """Run a fresh ``build(sim, log)`` through ``run(until=u)`` for each
    ``u`` in turn, then ``run()``.  Returns ``(log, scheduled_count)``
    and the log length each ``run(until)`` left."""
    sim = Simulator()
    log = []
    build(sim, log)
    cuts = []
    for until in untils:
        assert sim.run(until=until) == until
        assert sim.now == until
        cuts.append(len(log))
    sim.run()
    return (log, sim.scheduled_count), cuts


def _check_splits(build, splits):
    """Each split run dispatches as one ``run()`` does; returns that."""
    whole, _ = _dispatch(build)
    for untils in splits:
        split, cuts = _dispatch(build, untils)
        assert split == whole
        # each run(until) dispatched exactly the entries up to ``until``
        assert cuts == [sum(t <= u for t, *_ in whole[0]) for u in untils]
    return whole


def test_run_until_before_entry_in_next_slot():
    def build(sim, log):
        def tick(i):
            if i < 4:
                sim.schedule(4.0, lambda: tick(i + 1))
            _note(sim, log, f"tick{i}")

        sim.schedule(1.0, lambda: tick(0))

    whole = _check_splits(build, [(6.0,), (6.0, 6.0, 10.0),
                                  (0.0, 1.0, 12.5, 17.0)])
    # each tick's successor is the only delayed entry: it waits in
    # ``_next``, so a deadline between two ticks finds it there
    assert whole[0][1] == (5.0, "tick1", True, 0)


def test_run_until_before_heap_top_with_next_slot_empty():
    def build(sim, log):
        for t in (20.0, 30.0, 25.0):
            sim.schedule(t, lambda: _note(sim, log, "timer"))
        # out of order: demotes the entry at 20 from ``_next`` to the heap
        sim.schedule(5.0, lambda: _note(sim, log, "early"))

        def proc():
            yield Sleep(8.0)
            _note(sim, log, "proc")
            yield Sleep(14.0)  # lands behind the heap top at 20
            _note(sim, log, "proc")

        sim.spawn(proc(), name="p")

    whole = _check_splits(build, [(10.0,), (10.0, 21.0, 22.0), (20.0,),
                                  (8.0, 26.0)])
    # after the step at 8, ``_next`` is empty and the heap top (20) is
    # the next entry, so a deadline in (8, 20) finds it there
    assert whole[0][1] == (8.0, "proc", False, 3)


def test_run_until_with_cancelled_entries_beyond_it():
    def build(sim, log):
        sim.schedule(1.0, lambda: _note(sim, log, "a"))
        dead = [sim.schedule(t, lambda: _note(sim, log, "dead"))
                for t in (12.0, 14.0, 16.0, 40.0)]
        sim.schedule(30.0, lambda: _note(sim, log, "b"))

        def cancel():
            for timer in dead:
                sim.cancel(timer)
            _note(sim, log, "cancel")

        sim.schedule(2.0, cancel)

    whole = _check_splits(build, [(10.0,), (13.0, 35.0), (15.0, 15.0),
                                  (50.0,)])
    assert [name for _, name, _, _ in whole[0]] == ["a", "cancel", "b"]


def test_ft_scenario_same_under_a_far_horizon():
    """An FT run with a kill dispatches the same under ``run()`` and
    under an ``until`` it never reaches."""
    spec = scaled_spec(workers=16, iterations=80, name="until-16")
    cfg = ft_config_for(spec, n_spares=4)
    horizon = (spec.setup_time + spec.baseline_runtime) * 4 + 600

    def run(until):
        sim = Simulator()
        steps = record_steps(sim)
        job = run_gaspi(ft_main(cfg, ModelLanczosProgram(spec)),
                        machine_spec=machine_for(cfg), sim=sim,
                        fault_plan=FaultPlan().kill_process(12.5, 0),
                        until=until)
        return steps, sim.scheduled_count, job.results

    unbounded = run(None)
    assert unbounded[2][cfg.n_workers]["status"] == "done"  # the rescue
    assert run(horizon) == unbounded


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
