"""Wait timeouts in per-length FIFOs against plain heap timeouts.

The kernel keeps each wait's timeout as a record in the FIFO of its
timeout length, with only each FIFO's head on the heap.  The oracle here
is :class:`HeapTimeouts`, a kernel that gives every timeout its own heap
entry.  Generated scripts — waits of two or three timeout lengths with
equal-time ties, events and channel items that come before or after the
timeout, rechecked re-arms, kills mid-wait and ``run(until)`` splits —
must run identically under both:
the same dispatch log and resume values, the same final clock and the
same ``scheduled_count``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Channel, Event, SimError, Simulator, Sleep, WaitEvent


class HeapTimeouts(Simulator):
    """The oracle kernel: every wait timeout is its own heap entry."""

    def _arm(self, timeout, waiter):
        return self.schedule(timeout, waiter._on_timeout)


#: instants on a short quarter-second grid: every sum below is exact, so
#: equal-time ties across timeout lengths and processes are frequent
INSTANTS = st.integers(0, 8).map(lambda k: k * 0.25)


def _steps(lengths, n_events):
    """One step of a process: a sleep, an event wait (plain, zero,
    unbounded or rechecked) or a channel take."""
    plain = st.sampled_from(lengths + [0.0, None])
    return st.one_of(
        st.tuples(st.just("sleep"), INSTANTS),
        st.tuples(st.just("wait"), st.integers(0, n_events - 1), plain,
                  st.none()),
        # rechecked: the check trips after this many timeouts
        st.tuples(st.just("wait"), st.integers(0, n_events - 1),
                  st.sampled_from(lengths), st.integers(0, 3)),
        st.tuples(st.just("get"), plain),
    )


@st.composite
def scripts(draw):
    lengths = draw(st.lists(st.sampled_from([0.5, 0.75, 1.0]),
                            min_size=2, max_size=3, unique=True))
    n_events = draw(st.integers(1, 3))
    n_procs = draw(st.integers(1, 5))
    procs = [(draw(INSTANTS),
              draw(st.lists(_steps(lengths, n_events), min_size=1,
                            max_size=5)))
             for _ in range(n_procs)]
    fires = draw(st.lists(st.tuples(INSTANTS, st.integers(0, n_events - 1)),
                          max_size=n_events, unique_by=lambda f: f[1]))
    puts = draw(st.lists(INSTANTS, max_size=3))
    kills = draw(st.lists(st.tuples(INSTANTS, st.integers(0, n_procs - 1)),
                          max_size=2))
    untils = sorted(draw(st.lists(INSTANTS, max_size=3)))
    return procs, n_events, fires, puts, kills, untils


def run_script(kernel, script):
    """Run ``script`` on a fresh ``kernel``; everything it observed."""
    procs, n_events, fires, puts, kills, untils = script
    sim = kernel()
    events = [Event(f"e{i}") for i in range(n_events)]
    chan = Channel("c")
    log = []

    def tripping(name, trips):
        """A recheck that trips at its ``trips + 1``-th call."""
        calls = []

        def recheck():
            calls.append(sim.now)
            log.append((sim.now, name, "recheck"))
            return None if len(calls) <= trips else "tripped"

        return recheck

    def body(name, start, steps):
        yield Sleep(start)
        for step in steps:
            kind = step[0]
            if kind == "sleep":
                yield Sleep(step[1])
                value = None
            elif kind == "wait":
                _, index, timeout, trips = step
                recheck = None if trips is None else tripping(name, trips)
                value = yield WaitEvent(events[index], timeout, recheck)
            else:
                value = yield from chan.get(step[1])
            log.append((sim.now, name, kind, value))
        return name

    def noted(what, action):
        def fn():
            log.append((sim.now, what))
            action()
        return fn

    spawned = [sim.spawn(body(f"p{i}", start, steps), name=f"p{i}")
               for i, (start, steps) in enumerate(procs)]
    for t, index in fires:
        sim.schedule(t, noted(f"fire e{index}",
                              lambda index=index: events[index].succeed(index)))
    for k, t in enumerate(puts):
        sim.schedule(t, noted(f"put {k}", lambda k=k: chan.put(k)))
    for t, victim in kills:
        sim.schedule(t, noted(f"kill p{victim}", spawned[victim].kill))
    for until in untils:
        sim.run(until=until)
        log.append((sim.now, "until"))
    sim.run()
    return (log, sim.now, sim.scheduled_count,
            [(p.state, p.result) for p in spawned])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
def test_fifo_timeouts_dispatch_as_heap_timeouts(script):
    assert run_script(Simulator, script) == run_script(HeapTimeouts, script)


def test_run_ends_at_the_event_not_at_its_dead_timeout():
    """A wait whose event fires first leaves a dead timeout record as its
    FIFO's head; dispatching it must not move the clock to its time."""
    sim = Simulator()
    event = Event()

    def waiter():
        ok, value = yield WaitEvent(event, 5.0)
        return sim.now, ok, value

    proc = sim.spawn(waiter())
    sim.schedule(2.0, lambda: event.succeed("x"))
    assert sim.run() == 2.0
    assert proc.result == (2.0, True, "x")
    assert sim._timeouts == {}  # the drained FIFO is gone


def test_a_dead_head_hands_over_to_the_next_live_record():
    """Two waits of one length: the first ends early, so the second's
    timeout fires at its own instant, behind the dead head."""
    sim = Simulator()
    first, second = Event(), Event()
    seen = []

    def waiter(event, delay):
        yield Sleep(delay)
        ok, _ = yield WaitEvent(event, 1.0)
        seen.append((sim.now, ok))

    sim.spawn(waiter(first, 0.0))
    sim.spawn(waiter(second, 0.25))
    sim.schedule(0.5, lambda: first.succeed())
    assert sim.run() == 1.25
    assert seen == [(0.5, True), (1.25, False)]


def test_a_requeued_head_precedes_a_newer_entry_of_its_instant():
    """The next head is queued with its own, older seq: at 1.5 s the
    timeout of b (armed at 0.5 s) dispatches before the sleep of a
    (scheduled at 1.0 s, when a's own timeout woke it), as on a heap."""
    log = []

    def build(kernel):
        sim = kernel()

        def waiter(name, delay, nap):
            yield Sleep(delay)
            ok, _ = yield WaitEvent(Event(), 1.0)
            log.append((sim.now, name, ok))
            yield Sleep(nap)
            log.append((sim.now, name, "woke"))

        sim.spawn(waiter("a", 0.0, 0.5))
        sim.spawn(waiter("b", 0.5, 0.0))
        sim.run()
        return sim.scheduled_count

    assert build(Simulator) == build(HeapTimeouts)
    expected = [(1.0, "a", False), (1.5, "b", False), (1.5, "a", "woke"),
                (1.5, "b", "woke")]
    assert log == expected + expected


def test_a_timeout_whose_process_raises_keeps_its_fifo_going():
    """A process that raises when its timeout wakes it ends ``run()``;
    a later ``run()`` still fires the next timeout of that length."""
    sim = Simulator()
    seen = []

    def fails():
        yield WaitEvent(Event(), 1.0)
        raise RuntimeError("woken")

    def waits():
        yield Sleep(0.5)
        ok, _ = yield WaitEvent(Event(), 1.0)
        seen.append((sim.now, ok))

    sim.spawn(fails())
    sim.spawn(waits())
    with pytest.raises(RuntimeError, match="woken"):
        sim.run()
    assert sim.run() == 1.5
    assert seen == [(1.5, False)]


def test_a_negative_channel_timeout_is_rejected():
    """A channel take's timeout is checked as ``schedule`` checks a delay:
    a negative one raises instead of queueing a record in the past."""
    sim = Simulator()
    chan = Channel("c")

    def getter():
        yield Sleep(1.0)
        yield from chan.get(-1.0)

    sim.spawn(getter())
    with pytest.raises(SimError, match="past"):
        sim.run()
    assert sim.now == 1.0
    assert sim._timeouts == {}
