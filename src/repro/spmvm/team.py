"""The execution team: who computes, under which logical identities.

The paper separates *physical* GASPI ranks (fixed for the job's lifetime)
from *logical* worker identities (``myrank_active``): a rescue process
adopts the failed worker's logical rank, and every survivor replaces the
failed physical rank in its partner table.  :class:`Team` carries that
mapping plus the committed worker group; the fault-tolerance layer rebuilds
it after each recovery and hands the fresh instance back to the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import Group


@dataclass
class Team:
    """One rank's view of the current worker group."""

    ctx: GaspiContext
    group: Group
    logical_rank: int
    #: logical worker rank -> physical GASPI rank, identical on all members
    rank_map: Dict[int, int] = field(default_factory=dict)

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
