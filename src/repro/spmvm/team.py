"""The execution team: who computes, under which logical identities.

The paper separates *physical* GASPI ranks (fixed for the job's lifetime)
from *logical* worker identities (``myrank_active``): a rescue process
adopts the failed worker's logical rank, and every survivor replaces the
failed physical rank in its partner table.  :class:`Team` carries that
mapping plus the committed worker group; the fault-tolerance layer rebuilds
it after each recovery and hands the fresh instance back to the solver.
Its ``guard`` is the paper's pre-communication check, a callable that
returns the posted failure notice or ``None``: each guarded call reads it
first (:meth:`Team.assert_healthy`), and the kernel re-reads it at every
``comm_timeout`` while it retries the timed-out wait (the guard is the
wait's ``recheck``); a tripped guard raises FailureAcknowledged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from repro.gaspi.constants import GASPI_BLOCK, GASPI_SUCCESS, AllreduceOp
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import Group
from repro.spmvm.ft_hooks import FailureAcknowledged, no_notice


@dataclass
class Team:
    """One rank's view of the current worker group."""

    ctx: GaspiContext
    group: Group
    logical_rank: int
    #: logical worker rank -> physical GASPI rank, identical on all members
    rank_map: Dict[int, int] = field(default_factory=dict)
    #: the failure-acknowledgment check of every guarded call: the posted
    #: notice, or ``None`` (never a notice by default)
    guard: Callable[[], Any] = no_notice
    #: GASPI timeout of one attempt of a guarded call
    comm_timeout: float = GASPI_BLOCK

    def __post_init__(self) -> None:
        if self.logical_rank not in self.rank_map:
            raise ValueError(
                f"logical rank {self.logical_rank} missing from rank map"
            )
        if self.rank_map[self.logical_rank] != self.ctx.rank:
            raise ValueError(
                f"rank map binds logical {self.logical_rank} to physical "
                f"{self.rank_map[self.logical_rank]}, but context is rank {self.ctx.rank}"
            )

    @property
    def n_workers(self) -> int:
        return len(self.rank_map)

    def to_physical(self, logical: int) -> int:
        return self.rank_map[logical]

    def assert_healthy(self) -> None:
        """Raise :class:`FailureAcknowledged` if a failure notice is posted.

        One call of the guard: a local read, the zero-overhead property
        of the design.
        """
        notice = self.guard()
        if notice is not None:
            raise FailureAcknowledged(notice)

    def commit(self) -> Generator[Any, Any, None]:
        """Generator: guarded ``group_commit`` of the team's group."""
        self.assert_healthy()
        ret = yield from self.ctx.group_commit(self.group, self.comm_timeout,
                                               recheck=self.guard)
        if ret is not GASPI_SUCCESS:
            raise FailureAcknowledged(self.guard())

    def barrier(self) -> Generator[Any, Any, None]:
        """Generator: guarded team barrier."""
        self.assert_healthy()
        ret = yield from self.ctx.barrier(self.group, self.comm_timeout,
                                          recheck=self.guard)
        if ret is not GASPI_SUCCESS:
            raise FailureAcknowledged(self.guard())

    def allreduce(self, values: Any, op: AllreduceOp) -> Generator[Any, Any, Any]:
        """Generator: guarded team allreduce; returns the reduced value
        (an ``int`` for an ``int`` contribution, else an ndarray)."""
        self.assert_healthy()
        ret, result = yield from self.ctx.allreduce(
            values, op, self.group, self.comm_timeout, recheck=self.guard)
        if ret is not GASPI_SUCCESS:
            raise FailureAcknowledged(self.guard())
        return result

    @classmethod
    def trivial(cls, ctx: GaspiContext, n_workers: Optional[int] = None,
                group: Optional[Group] = None) -> "Team":
        """Identity mapping over ranks ``0..n_workers-1`` (no spares)."""
        n = n_workers if n_workers is not None else ctx.num_ranks
        return cls(
            ctx=ctx,
            group=group or ctx.group_all,
            logical_rank=ctx.rank,
            rank_map={i: i for i in range(n)},
        )
