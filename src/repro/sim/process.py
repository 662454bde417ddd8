"""Process wrapper around application generators.

A :class:`Process` owns one generator.  The kernel steps the generator and a
process can be killed at any time (modelling a fail-stop failure): the
generator is closed, any pending wait is deregistered, and the process never
runs again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class ProcessState(enum.Enum):
    """Lifecycle state of a simulated process."""

    NEW = "new"
    RUNNING = "running"
    WAITING = "waiting"
    DONE = "done"
    KILLED = "killed"


class Process:
    """A generator-coroutine scheduled by the :class:`Simulator`."""

    __slots__ = ("sim", "gen", "name", "state", "result", "_cleanup")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.state = ProcessState.NEW
        self.result: Any = None
        # Whatever the process currently waits on: either the kernel's
        # pending step entry (a plain list) or a waiter record exposing
        # ``cancel()``.  ``None`` while running / terminated.
        self._cleanup: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the process can still run."""
        return self.state not in (ProcessState.DONE, ProcessState.KILLED)

    def kill(self) -> None:
        """Fail-stop the process immediately.

        Idempotent.  The generator is closed (running ``finally`` blocks, as
        a real process's OS-level teardown would not — application code in
        this repo does not rely on ``finally`` for protocol actions) and
        the pending wait (if any) is deregistered.
        """
        if not self.alive:
            return
        cleanup = self._cleanup
        if cleanup is not None:
            self._cleanup = None
            if type(cleanup) is list:
                self.sim.cancel(cleanup)
            else:
                cleanup.cancel()
        self.state = ProcessState.KILLED
        self.gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {self.state.value}>"
