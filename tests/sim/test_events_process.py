"""Tests for Event/WaitEvent semantics and process lifecycle (kill/join)."""

import pytest

from repro.sim import Event, Simulator, Sleep, WaitEvent, SimError
from repro.sim.process import ProcessState


def test_event_fires_once_with_value():
    ev = Event("e")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(7)
    assert seen == [7]
    with pytest.raises(SimError):
        ev.succeed(8)


def test_callback_added_after_fire_runs_immediately():
    ev = Event()
    ev.succeed("x")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_wait_event_resumes_with_value():
    sim = Simulator()
    ev = Event()

    def waiter():
        ok, val = yield WaitEvent(ev)
        return (ok, val)

    def firer():
        yield Sleep(2.0)
        ev.succeed("hello")

    p = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert p.result == (True, "hello")
    assert sim.now == 2.0


def test_wait_event_timeout_returns_not_ok():
    sim = Simulator()
    ev = Event()

    def waiter():
        ok, val = yield WaitEvent(ev, timeout=1.5)
        return (ok, val, sim.now)

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == (False, None, 1.5)


def test_wait_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    ev = Event()
    ev.succeed(3)

    def waiter():
        ok, val = yield WaitEvent(ev, timeout=10.0)
        return (ok, val, sim.now)

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == (True, 3, 0.0)


def test_timeout_does_not_fire_after_event_won():
    sim = Simulator()
    ev = Event()
    resumed = []

    def waiter():
        ok, _ = yield WaitEvent(ev, timeout=5.0)
        resumed.append((sim.now, ok))
        yield Sleep(10.0)  # stay alive past the timeout instant

    sim.spawn(waiter())
    sim.schedule(1.0, lambda: ev.succeed(None))
    sim.run()
    assert resumed == [(1.0, True)]


def test_event_after_timeout_does_not_resume_waiter():
    sim = Simulator()
    ev = Event()
    results = []

    def waiter():
        ok, _ = yield WaitEvent(ev, timeout=1.0)
        results.append((sim.now, ok))

    sim.spawn(waiter())
    sim.schedule(2.0, lambda: ev.succeed("late"))
    sim.run()
    assert results == [(1.0, False)]


def test_negative_timeout_rejected():
    ev = Event()
    with pytest.raises(SimError):
        WaitEvent(ev, timeout=-1.0)


def test_rechecked_wait_rearms_until_the_check_trips():
    sim = Simulator()
    ev = Event()
    checks = []

    def check():
        checks.append(sim.now)
        return "tripped" if sim.now >= 3.0 else None

    def waiter():
        ok, val = yield WaitEvent(ev, timeout=1.0, recheck=check)
        return (ok, val, sim.now)

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == (False, None, 3.0)
    assert checks == [1.0, 2.0, 3.0]
    # one resume entry, then one timer per period: no re-entries
    assert sim.scheduled_count == 4


def test_rechecked_wait_resumes_when_the_event_fires():
    sim = Simulator()
    ev = Event()
    checks = []

    def waiter():
        ok, val = yield WaitEvent(ev, timeout=1.0,
                                  recheck=lambda: checks.append(sim.now))
        return (ok, val, sim.now)

    p = sim.spawn(waiter())
    sim.schedule(2.5, lambda: ev.succeed("done"))
    sim.run()
    assert p.result == (True, "done", 2.5)
    assert checks == [1.0, 2.0]


def test_rechecked_wait_needs_a_positive_timeout():
    with pytest.raises(SimError):
        WaitEvent(Event(), timeout=0.0, recheck=lambda: None)


def test_kill_while_sleeping_never_resumes():
    sim = Simulator()
    stages = []

    def victim():
        stages.append("start")
        yield Sleep(10.0)
        stages.append("unreachable")

    p = sim.spawn(victim())

    def killer():
        yield Sleep(1.0)
        p.kill()

    sim.spawn(killer())
    sim.run()
    assert stages == ["start"]
    assert p.state is ProcessState.KILLED
    assert not p.alive


def test_kill_while_waiting_on_event_deregisters():
    sim = Simulator()
    ev = Event()

    def victim():
        yield WaitEvent(ev)

    p = sim.spawn(victim())
    sim.schedule(1.0, p.kill)
    sim.schedule(2.0, lambda: ev.succeed(None))
    sim.run()
    assert p.state is ProcessState.KILLED


def test_kill_is_idempotent():
    sim = Simulator()

    def victim():
        yield Sleep(5.0)

    p = sim.spawn(victim())
    sim.schedule(1.0, p.kill)
    sim.schedule(2.0, p.kill)
    sim.run()
    assert p.state is ProcessState.KILLED
