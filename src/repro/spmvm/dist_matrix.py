"""Distributed matrix: per-rank block + exchanged communication plan.

``distribute_matrix`` is the paper's distributed pre-processing stage: each
rank generates its own chunk on the fly, determines the RHS indices it
needs from other owners, and the index lists are "communicated to the
respective processes" — here with GASPI passive messages, with an
allreduce first so every owner knows how many requests to expect.

The result is checkpointable (``to_payload``/``from_payload``): a rescue
process restores block + plan from the failed rank's one-time checkpoint
instead of re-running this stage (Sect. V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.gaspi.constants import AllreduceOp, ReturnCode
from repro.spmvm.comm_setup import CommPlan, SendSpec, split_columns
from repro.spmvm.csr import CSRMatrix
from repro.spmvm.matgen.base import RowGenerator
from repro.spmvm.partition import RowPartition
from repro.spmvm.team import Team


@dataclass
class DistMatrix:
    """One logical rank's share of the distributed operator."""

    n_global: int
    n_workers: int
    logical_rank: int
    local: CSRMatrix          # columns remapped: [0,n_local)+halo
    plan: CommPlan
    _partition: Optional[RowPartition] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_local(self) -> int:
        return self.plan.n_local

    @property
    def halo_size(self) -> int:
        return self.plan.halo_size

    def partition(self) -> RowPartition:
        """The (immutable) global row partition; built once and cached."""
        part = self._partition
        if part is None:
            part = self._partition = RowPartition(self.n_global, self.n_workers)
        return part

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, np.ndarray]:
        """Flatten into a checkpointable array mapping."""
        payload = {
            "dm.n_global": np.int64(self.n_global),
            "dm.n_workers": np.int64(self.n_workers),
            "dm.logical_rank": np.int64(self.logical_rank),
            "dm.row_ptr": self.local.row_ptr,
            "dm.col_idx": self.local.col_idx,
            "dm.values": self.local.values,
            "dm.n_cols": np.int64(self.local.n_cols),
        }
        payload.update(self.plan.to_payload("dm.plan"))
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray]) -> "DistMatrix":
        plan = CommPlan.from_payload(payload, "dm.plan")
        local = CSRMatrix(
            n_rows=len(payload["dm.row_ptr"]) - 1,
            n_cols=int(payload["dm.n_cols"]),
            row_ptr=payload["dm.row_ptr"],
            col_idx=payload["dm.col_idx"],
            values=payload["dm.values"],
        )
        return cls(
            n_global=int(payload["dm.n_global"]),
            n_workers=int(payload["dm.n_workers"]),
            logical_rank=int(payload["dm.logical_rank"]),
            local=local,
            plan=plan,
        )


def distribute_matrix(team: Team, generator: RowGenerator,
                      ) -> Generator[Any, Any, DistMatrix]:
    """Generator: the distributed pre-processing stage for one rank.

    Must be called collectively by every team member.  Returns this rank's
    :class:`DistMatrix`.
    """
    timeout = team.comm_timeout
    ctx = team.ctx
    n_workers = team.n_workers
    partition = RowPartition(generator.n_rows, n_workers)
    r0, r1 = partition.range_of(team.logical_rank)
    block = generator.generate_rows(r0, r1)
    local, plan = split_columns(block, partition, team.logical_rank)

    # 1. every owner learns how many requesters it has
    requests = np.zeros(n_workers, dtype=np.int64)
    for provider in plan.providers():
        requests[provider] = 1
    counts = yield from team.allreduce(requests, AllreduceOp.SUM)
    n_requesters = int(counts[team.logical_rank])

    # 2. tell each provider which of its columns we need, and where
    for provider in plan.providers():
        spec = plan.recv[provider]
        # a retry must re-post: a message dropped on a down link is gone
        while True:
            team.assert_healthy()
            ret = yield from ctx.passive_send(
                team.to_physical(provider),
                ("halo-request", team.logical_rank, spec.cols,
                 plan.n_local + spec.halo_start),  # absolute x-segment slot
                nbytes=8 * (spec.count + 4),
                timeout=timeout,
            )
            if ret is ReturnCode.SUCCESS:
                break

    # 3. collect our requesters and build the send plan; a channel take
    # has no recheck, so the flag is read before each one
    got = 0
    while got < n_requesters:
        team.assert_healthy()
        ret, _, payload = yield from ctx.passive_receive(timeout)
        if ret is not ReturnCode.SUCCESS:
            continue
        kind, requester, cols, dest_slot = payload
        assert kind == "halo-request"
        plan.send[int(requester)] = SendSpec(
            local_idx=partition.to_local(team.logical_rank, cols),
            halo_start=int(dest_slot),
        )
        got += 1

    return DistMatrix(
        n_global=generator.n_rows,
        n_workers=n_workers,
        logical_rank=team.logical_rank,
        local=local,
        plan=plan,
    )
