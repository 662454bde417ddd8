"""The single-probe oracle of the transport's ping sweep.

The transport has one ping, :meth:`Transport.post_ping_sweep`; a single
``gaspi_proc_ping`` is a one-target sweep.  This is the per-probe ping it
replaced, kept here as the reference the sweep tests compare it with:
one probe, its own resolve callback, its own error-timeout wait.
"""

from repro.sim import Event


def post_ping(transport, src, dst):
    """Health probe: completes ``(True, None)`` from a live target,
    ``(False, None)`` after ``error_timeout`` from a dead/cut one."""
    done = Event(name=f"ping:{src}->{dst}")
    p = transport.params
    sim = transport.sim
    broken = transport._broken.get(src)
    if broken is not None and dst in broken:
        sim.schedule(p.fast_fail, lambda: done.succeed((False, None)))
        return done
    rtt = (
        p.ping_overhead
        + transport._latency(src, dst, p.small_message)
        + transport._ack_latency(src, dst)
    )

    def resolve():
        # Aliveness is re-checked at resolution time so that a target
        # dying during the RTT is still (eventually) caught by later
        # pings, while one dying after the answer is legitimately seen
        # healthy this round — just like a real probe.
        if transport._path_up(src, dst):
            done.succeed((True, None))
        else:
            transport._broken.setdefault(src, set()).add(dst)

            def fail():
                done.succeed((False, None))

            sim.schedule(max(0.0, p.error_timeout - rtt), fail)

    sim.schedule(rtt, resolve)
    return done
