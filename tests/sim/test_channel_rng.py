"""Tests for Channel FIFO semantics and RngStreams reproducibility."""

from repro.sim import Channel, RngStreams, Simulator, Sleep


def test_channel_put_then_get_nonblocking():
    sim = Simulator()
    ch = Channel("c")
    ch.put(1)
    ch.put(2)

    def getter():
        ok1, a = yield from ch.get()
        ok2, b = yield from ch.get()
        return (ok1, a, ok2, b)

    p = sim.spawn(getter())
    sim.run()
    assert p.result == (True, 1, True, 2)


def test_channel_get_blocks_until_put():
    sim = Simulator()
    ch = Channel()

    def getter():
        ok, item = yield from ch.get()
        return (ok, item, sim.now)

    p = sim.spawn(getter())
    sim.schedule(4.0, lambda: ch.put("msg"))
    sim.run()
    assert p.result == (True, "msg", 4.0)


def test_channel_get_timeout():
    sim = Simulator()
    ch = Channel()

    def getter():
        ok, item = yield from ch.get(timeout=2.0)
        return (ok, item, sim.now)

    p = sim.spawn(getter())
    sim.run()
    assert p.result == (False, None, 2.0)


def test_channel_item_not_lost_after_getter_timeout():
    sim = Simulator()
    ch = Channel()
    results = {}

    def impatient():
        ok, item = yield from ch.get(timeout=1.0)
        results["impatient"] = (ok, item)

    def patient():
        yield Sleep(2.0)
        ok, item = yield from ch.get()
        results["patient"] = (ok, item)

    sim.spawn(impatient())
    sim.spawn(patient())
    sim.schedule(3.0, lambda: ch.put("survivor"))
    sim.run()
    assert results["impatient"] == (False, None)
    assert results["patient"] == (True, "survivor")


def test_channel_fifo_order_multiple_getters():
    sim = Simulator()
    ch = Channel()
    got = []

    def getter(name):
        ok, item = yield from ch.get()
        got.append((name, item))

    sim.spawn(getter("g0"))
    sim.spawn(getter("g1"))
    sim.schedule(1.0, lambda: ch.put("a"))
    sim.schedule(2.0, lambda: ch.put("b"))
    sim.run()
    assert got == [("g0", "a"), ("g1", "b")]


def test_channel_try_get():
    ch = Channel()
    assert ch.try_get() == (False, None)
    ch.put(9)
    assert len(ch) == 1
    assert ch.try_get() == (True, 9)
    assert len(ch) == 0


def test_rng_same_seed_same_draws():
    a = RngStreams(42).stream("faults").random(5)
    b = RngStreams(42).stream("faults").random(5)
    assert (a == b).all()


def test_rng_streams_independent_by_name():
    streams = RngStreams(42)
    a = streams.stream("faults").random(5)
    b = streams.stream("network").random(5)
    assert not (a == b).all()


def test_rng_adding_stream_does_not_perturb_existing():
    s1 = RngStreams(7)
    first = s1.stream("x").random(3)

    s2 = RngStreams(7)
    s2.stream("y")  # extra consumer created first
    second = s2.stream("x").random(3)
    assert (first == second).all()


def test_rng_stream_cached():
    streams = RngStreams(0)
    assert streams.stream("a") is streams.stream("a")
