"""Deterministic discrete-event simulation (DES) kernel.

This package is the execution substrate for the whole reproduction: every
simulated GASPI process is a Python generator driven by :class:`Simulator`.
Blocking operations are expressed by yielding request objects
(:class:`Sleep`, :class:`WaitEvent`) and are resumed by the kernel at the
right virtual time.  The kernel is single-threaded and fully deterministic:
two runs with the same seed produce identical event orders and timestamps.

Typical use::

    from repro.sim import Simulator, Sleep

    def proc(sim):
        yield Sleep(1.5)
        return sim.now

    sim = Simulator()
    p = sim.spawn(proc(sim), name="demo")
    sim.run()
    assert p.result == 1.5
"""

from repro.sim.errors import SimError
from repro.sim.events import Event, Sleep, WaitEvent
from repro.sim.kernel import Simulator, Timer
from repro.sim.process import Process, ProcessState
from repro.sim.channel import Channel, ChannelGet
from repro.sim.rng import RngStreams

__all__ = [
    "Simulator",
    "Timer",
    "Process",
    "ProcessState",
    "Event",
    "Sleep",
    "WaitEvent",
    "Channel",
    "ChannelGet",
    "RngStreams",
    "SimError",
]
