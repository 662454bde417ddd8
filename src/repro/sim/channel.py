"""FIFO channel: the message-queue primitive used by transports and helpers.

``put`` is a plain (non-blocking, unbounded) call; ``get`` is a generator
helper that blocks until an item arrives or the timeout elapses.  Items are
delivered in FIFO order to getters in FIFO order.

Blocking takes are kernel-integrated: ``get`` yields a :class:`ChannelGet`
request and the kernel parks the process as a :class:`_ChannelWaiter`
record directly on the channel — no per-get :class:`Event` allocation, no
callback indirection.  ``put`` wakes the oldest waiter by stepping its
process inline, exactly like an event firing would have.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


class ChannelGet:
    """Yieldable request: take the next item from a channel.

    Resumes the process with ``(True, item)`` when an item arrives, or
    ``(False, None)`` when ``timeout`` elapses first.  Application code
    uses :meth:`Channel.get`; this request is its kernel-facing half.
    """

    __slots__ = ("channel", "timeout")

    def __init__(self, channel: "Channel", timeout: Optional[float] = None) -> None:
        self.channel = channel
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelGet({self.channel.name!r}, timeout={self.timeout})"


class _ChannelWaiter:
    """One blocked getter: its process, channel slot and optional timeout.

    Mirrors the kernel's ``_EventWaiter`` record: ``wake`` is called by
    ``put`` (item handed over, timeout voided), ``_on_timeout`` by the
    timeout (reservation withdrawn — an item can never be lost to an
    abandoned getter because ``put`` only hands items to waiters it pops
    from the deque), and ``cancel`` by process teardown.  ``timer`` is
    the timeout's kernel record; nulling its slot 2 voids it.
    """

    __slots__ = ("sim", "proc", "channel", "timer")

    def __init__(self, sim: "Simulator", proc: "Process",
                 channel: "Channel") -> None:
        self.sim = sim
        self.proc = proc
        self.channel = channel
        self.timer: Optional[list] = None

    def wake(self, item: Any) -> None:
        """An item arrived first: void the timeout, resume the getter."""
        timer = self.timer
        if timer is not None:
            timer[2] = None
        self.sim._step(self.proc, (True, item))

    def _on_timeout(self) -> None:
        """The timeout fired first: withdraw the reservation, resume."""
        try:
            self.channel._getters.remove(self)
        except ValueError:  # pragma: no cover - already handed an item
            return
        self.sim._step(self.proc, (False, None))

    def cancel(self) -> None:
        """Deregister everything (the process was killed)."""
        try:
            self.channel._getters.remove(self)
        except ValueError:
            pass
        timer = self.timer
        if timer is not None:
            timer[2] = None


class Channel:
    """Unbounded FIFO queue with blocking ``get``."""

    __slots__ = ("name", "_items", "_getters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[_ChannelWaiter] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().wake(item)
        else:
            self._items.append(item)

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def get(self, timeout: Optional[float] = None,
            ) -> Generator[Any, Any, Tuple[bool, Any]]:
        """Generator helper: wait for an item.

        Usage: ``ok, item = yield from chan.get(timeout)``.  On timeout the
        pending reservation is withdrawn, so no item is ever lost to an
        abandoned getter.  A zero timeout is a pure poll: it returns
        ``(False, None)`` immediately without yielding to the kernel.
        """
        if self._items:
            return True, self._items.popleft()
        if timeout == 0:
            return False, None
        ok, item = yield ChannelGet(self, timeout)
        return ok, item
