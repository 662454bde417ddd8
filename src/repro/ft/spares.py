"""Spare-pool bookkeeping: rescue assignment on the FD side (paper §IV).

The paper's non-shrinking design pre-allocates idle spare processes at
job launch (``FTConfig.n_spares``); on failure the FD promotes the
lowest-ranked idle spares to adopt the failed workers' logical
identities.  The pool size bounds the failure budget (§IV-D restriction
1), and once it runs dry the FD itself joins as the final rescue —
ending fault tolerance (restriction 2).  The promotion itself is traced
on the rescue side as a ``spare_promote`` span (`repro.ft.recovery`);
this module is pure bookkeeping and runs in zero virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.ft import rankstate
from repro.ft.roles import Role


@dataclass(frozen=True)
class RescueAssignment:
    """Outcome of matching failed ranks with spares."""

    failed: List[int]
    rescues: List[int]
    #: True when the FD itself had to join as the final rescue (ends the
    #: program's fault-tolerance capability, paper Sect. IV-D restriction 2)
    fd_joined: bool

    @property
    def recoverable(self) -> bool:
        return len(self.rescues) == len(self.failed)

    @property
    def shortfall(self) -> int:
        return len(self.failed) - len(self.rescues)


class SparePool:
    """The FD's view of who can still be turned into a worker."""

    def __init__(self, statuses: np.ndarray, fd_rank: int) -> None:
        self.statuses = statuses  # shared view into the FD's control block
        self.fd_rank = fd_rank

    def idle_ranks(self) -> List[int]:
        return rankstate.idle_ranks(self.statuses)

    def assign(self, failed: Sequence[int]) -> RescueAssignment:
        """Pick rescues for ``failed`` (lowest idle ranks first).

        Updates the status array: failed ranks become ``FAILED``, assigned
        rescues become ``WORKING``.  If the idle pool runs dry, the FD
        itself is assigned as the last rescue (paper Fig. 3: "The FD
        process itself joins the worker group if no idle process is
        further available").
        """
        failed = sorted(int(f) for f in failed)
        for rank in failed:
            self.statuses[rank] = Role.FAILED
        pool = self.idle_ranks()
        rescues = pool[: len(failed)]
        fd_joined = False
        if len(rescues) < len(failed) and self.statuses[self.fd_rank] == Role.FD:
            rescues.append(self.fd_rank)
            fd_joined = True
        for rank in rescues:
            self.statuses[rank] = Role.WORKING
        return RescueAssignment(failed=failed, rescues=rescues, fd_joined=fd_joined)
