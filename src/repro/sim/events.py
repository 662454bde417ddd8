"""Event primitives and the yieldable request objects.

Processes communicate with the kernel by yielding request objects:

* :class:`Sleep` — advance virtual time by ``dt`` and resume.
* :class:`WaitEvent` — block until an :class:`Event` fires or a timeout
  elapses; the process is resumed with the tuple ``(ok, value)`` where
  ``ok`` is ``False`` exactly when the timeout won the race.  With a
  ``recheck`` callable the timeout re-arms inside the kernel until the
  check trips.

Events are one-shot: they fire at most once, carry an optional value, and
notify their registered callbacks in registration order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.errors import SimError

Callback = Callable[["Event"], None]


class Event:
    """A one-shot condition that processes can wait on.

    An :class:`Event` starts un-fired.  Calling :meth:`succeed` fires it with
    a value, waking every waiter.  Firing twice is an error (one-shot), which
    catches protocol bugs early.
    """

    __slots__ = ("fired", "value", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self.fired: bool = False
        self.value: Any = None
        self.name = name
        self._callbacks: List[Callback] = []

    def succeed(self, value: Any = None) -> None:
        """Fire the event, delivering ``value`` to all waiters."""
        if self.fired:
            raise SimError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callback) -> None:
        """Register ``cb`` to run when the event fires.

        If the event already fired the callback runs immediately (same
        virtual instant), so registration order never races with firing.
        """
        if self.fired:
            cb(self)
        else:
            self._callbacks.append(cb)

    def discard_callback(self, cb: Callback) -> None:
        """Remove ``cb`` if still registered (no-op otherwise)."""
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"fired={self.value!r}" if self.fired else "pending"
        return f"<Event {self.name!r} {state}>"


class Sleep:
    """Yieldable request: resume the process after ``dt`` virtual seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        if dt < 0:
            raise SimError(f"negative sleep: {dt}")
        self.dt = float(dt)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sleep({self.dt})"


class WaitEvent:
    """Yieldable request: block on ``event`` with an optional timeout.

    The process resumes with ``(True, event.value)`` when the event fires
    first, or ``(False, None)`` when the timeout elapses first.  A timeout of
    ``None`` waits forever.  Ties (event firing exactly at the deadline) are
    resolved deterministically in favour of whichever was scheduled first in
    the kernel's event heap.

    ``recheck`` turns the wait into a retry loop that never leaves the
    kernel: each time the timeout elapses the kernel calls ``recheck()``,
    and while it returns ``None`` the same wait is re-armed for another
    ``timeout`` from that instant.  The process resumes with
    ``(False, None)`` only once the check returns something else.  This
    is observably the loop ``while check() is None: wait again``, with
    the same timer entries, minus one process resumption per period.
    """

    __slots__ = ("event", "timeout", "recheck")

    def __init__(self, event: Event, timeout: Optional[float] = None,
                 recheck: Optional[Callable[[], Any]] = None) -> None:
        if timeout is not None and timeout < 0:
            raise SimError(f"negative timeout: {timeout}")
        if recheck is not None and timeout == 0:
            # would re-arm forever without time advancing
            raise SimError("a rechecked wait needs a positive timeout")
        self.event = event
        self.timeout = timeout
        self.recheck = recheck

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitEvent({self.event!r}, timeout={self.timeout})"
