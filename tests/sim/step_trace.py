"""Kernel step recording for determinism tests.

The kernel keeps no step trace of its own: :func:`record_steps` wraps
one simulator's ``_step`` and records ``(now, process name, "step")``
for every step of a live process, so two runs can be compared step by
step.
"""

from repro.sim import ProcessState, Simulator

#: the kernel returns from a step of a finished process without stepping
_FINISHED = (ProcessState.DONE, ProcessState.KILLED)


def record_steps(sim: Simulator) -> list:
    """Start recording ``sim``'s process steps; returns the live list."""
    steps = []
    step = sim._step

    def recording_step(proc, send_value):
        if proc.state not in _FINISHED:
            steps.append((sim.now, proc.name, "step"))
        step(proc, send_value)

    sim._step = recording_step
    return steps
