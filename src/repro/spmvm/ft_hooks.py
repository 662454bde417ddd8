"""Fault-tolerance hooks for the spMVM library.

Per the paper: "Each blocking communication call in the spMVM library now
performs a check for the failure acknowledgment signal.  After the
processes detect a failure signal from the FD process, no further
communications are performed."  :class:`CommGuard` is that check — a cheap
*local* read the FD layer supplies — and :class:`FailureAcknowledged` is
how the library unwinds the solver into its recovery stage.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class FailureAcknowledged(Exception):
    """The FD process signalled failures; abandon communication and recover.

    ``notice`` carries whatever the failure-detection layer wrote (the
    failed/rescue lists); the library treats it as opaque.
    """

    def __init__(self, notice: Any = None) -> None:
        super().__init__("failure acknowledgment received")
        self.notice = notice


class CommGuard:
    """Wraps the failure-acknowledgment check used before blocking calls."""

    __slots__ = ("_check",)

    def __init__(self, check: Optional[Callable[[], Any]] = None) -> None:
        self._check = check

    def check(self) -> Any:
        """The posted failure notice, or ``None`` — the non-raising form
        of :meth:`assert_healthy`, for waits that re-check in the kernel."""
        return None if self._check is None else self._check()

    def assert_healthy(self) -> None:
        """Raise :class:`FailureAcknowledged` if a failure notice is posted.

        With no hook installed (failure-free configuration) this is a single
        attribute test — the zero-overhead property of the design.
        """
        if self._check is None:
            return
        notice = self._check()
        if notice is not None:
            raise FailureAcknowledged(notice)
