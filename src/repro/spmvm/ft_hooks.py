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


def _no_notice() -> None:
    """The hook of a guard with none installed: never a notice."""
    return None


class CommGuard:
    """Wraps the failure-acknowledgment check used before blocking calls."""

    __slots__ = ("check",)

    def __init__(self, check: Optional[Callable[[], Any]] = None) -> None:
        #: the posted failure notice, or ``None``: the hook itself, bound
        #: once, so a wait that re-checks in the kernel takes it as its
        #: ``recheck`` without a bound method built per call
        self.check: Callable[[], Any] = (_no_notice if check is None
                                         else check)

    def assert_healthy(self) -> None:
        """Raise :class:`FailureAcknowledged` if a failure notice is posted.

        One call of the hook: a local read, the zero-overhead property
        of the design.
        """
        notice = self.check()
        if notice is not None:
            raise FailureAcknowledged(notice)
