"""Communication queues: completion tracking for one-sided operations.

Posting a one-sided operation attaches its transport completion event to a
queue; ``gaspi_wait`` flushes the queue — it blocks until every operation
outstanding *at call time* has completed, or the timeout elapses.  An
operation whose target died never completes, so the queue keeps returning
``GASPI_TIMEOUT``: exactly what the paper's workers observe while talking
to a failed rank.  ``queue_purge`` (a GPI-2 fault-tolerance extension)
drops such stuck operations during recovery.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim import Event
from repro.gaspi.errors import GaspiUsageError


class Queue:
    """One communication queue of one rank."""

    __slots__ = ("queue_id", "depth", "_outstanding")

    def __init__(self, queue_id: int, depth: int = 4096) -> None:
        if depth <= 0:
            raise GaspiUsageError("queue depth must be positive")
        self.queue_id = queue_id
        self.depth = depth
        self._outstanding: List[Event] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of not-yet-completed operations."""
        self._reap()
        return len(self._outstanding)

    @property
    def full(self) -> bool:
        # reaping only shrinks the queue: fewer raw entries than the depth
        # can never be full, so the common case skips the reap entirely
        if len(self._outstanding) < self.depth:
            return False
        return self.size >= self.depth

    def post(self, completion: Event) -> None:
        """Attach a posted operation's completion event."""
        self._outstanding.append(completion)

    def purge(self) -> int:
        """Drop every outstanding operation (GPI-2 ``gaspi_queue_purge``).

        Returns how many operations were dropped.  Used by the recovery
        path to clear operations stuck on dead targets.
        """
        self._reap()
        dropped = len(self._outstanding)
        self._outstanding = []
        return dropped

    def drain_event(self) -> "Event | None":
        """One event firing when everything outstanding *now* completes.

        Returns ``None`` when the queue is already drained (the flush fast
        path: no blocking needed at all), the lone completion event when a
        single op is pending, or an aggregate event counting down the
        snapshot otherwise.  A ``wait`` built on this blocks **once** per
        flush instead of once per op.
        """
        self._reap()
        pending = self._outstanding
        if not pending:
            return None
        if len(pending) == 1:
            return pending[0]
        drained = Event(name=f"q{self.queue_id}.drain")
        remaining = len(pending)

        def _one_done(_value: Any) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                drained.succeed(None)

        for ev in pending:
            ev.add_callback(_one_done)
        return drained

    def _reap(self) -> None:
        self._outstanding = [ev for ev in self._outstanding if not ev.fired]
