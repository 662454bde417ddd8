"""Fault-tolerance hooks for the spMVM library.

Per the paper: "Each blocking communication call in the spMVM library now
performs a check for the failure acknowledgment signal.  After the
processes detect a failure signal from the FD process, no further
communications are performed."  That check is a :class:`~repro.spmvm.Team`'s
``guard``: a callable the FD layer supplies, a cheap *local* read that returns
the posted notice or ``None`` (:func:`no_notice` when no FD layer is
installed).  :class:`FailureAcknowledged` is how the library unwinds the
solver into its recovery stage.
"""

from __future__ import annotations

from typing import Any


class FailureAcknowledged(Exception):
    """The FD process signalled failures; abandon communication and recover.

    ``notice`` carries whatever the failure-detection layer wrote (the
    failed/rescue lists); the library treats it as opaque.
    """

    def __init__(self, notice: Any = None) -> None:
        super().__init__("failure acknowledgment received")
        self.notice = notice


def no_notice() -> None:
    """The guard of a team with no FD layer installed: never a notice."""
    return None
