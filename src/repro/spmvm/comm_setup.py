"""spMVM pre-processing: halo discovery and communication plans.

This is the paper's "pre-processing stage" (Sect. V): from its row block,
each rank determines which right-hand-side indices it needs from which
owners (the *receive plan*); the owners learn which of their local values
to push to whom (the *send plan*).  The plans — not the matrix — are what
the rescue process restores from the failed rank's one-time checkpoint so
the expensive pre-processing is never repeated after a failure.

The column space of the local matrix is remapped so that columns
``[0, n_local)`` address the rank's own x-block and ``[n_local,
n_local + halo)`` address received halo values in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.partition import RowPartition


@dataclass(frozen=True)
class RecvSpec:
    """What I receive from one provider."""

    cols: np.ndarray        # global column ids, sorted
    halo_start: int         # first halo slot these values land in

    @property
    def count(self) -> int:
        return len(self.cols)


@dataclass(frozen=True)
class SendSpec:
    """What I push to one requester."""

    local_idx: np.ndarray   # my local x indices to gather
    #: absolute destination slot in the requester's x segment (the
    #: requester's n_local + its halo offset) — senders need no knowledge
    #: of the requester's layout beyond this number
    halo_start: int

    @property
    def count(self) -> int:
        return len(self.local_idx)


@dataclass
class CommPlan:
    """Complete halo-exchange plan of one logical rank."""

    n_local: int
    halo_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    recv: Dict[int, RecvSpec] = field(default_factory=dict)
    send: Dict[int, SendSpec] = field(default_factory=dict)

    @property
    def halo_size(self) -> int:
        return len(self.halo_cols)

    @property
    def total_send(self) -> int:
        return sum(spec.count for spec in self.send.values())

    def providers(self) -> List[int]:
        return sorted(self.recv)

    def requesters(self) -> List[int]:
        return sorted(self.send)

    # ------------------------------------------------------------------
    # checkpoint (de)serialisation — flat array mapping
    # ------------------------------------------------------------------
    def to_payload(self, prefix: str = "plan") -> Dict[str, np.ndarray]:
        payload: Dict[str, np.ndarray] = {
            f"{prefix}.n_local": np.int64(self.n_local),
            f"{prefix}.halo_cols": self.halo_cols,
            f"{prefix}.recv_ranks": np.array(self.providers(), dtype=np.int64),
            f"{prefix}.send_ranks": np.array(self.requesters(), dtype=np.int64),
        }
        for provider, spec in self.recv.items():
            payload[f"{prefix}.recv.{provider}.cols"] = spec.cols
            payload[f"{prefix}.recv.{provider}.start"] = np.int64(spec.halo_start)
        for requester, spec in self.send.items():
            payload[f"{prefix}.send.{requester}.idx"] = spec.local_idx
            payload[f"{prefix}.send.{requester}.start"] = np.int64(spec.halo_start)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray], prefix: str = "plan") -> "CommPlan":
        plan = cls(
            n_local=int(payload[f"{prefix}.n_local"]),
            halo_cols=np.asarray(payload[f"{prefix}.halo_cols"], dtype=np.int64),
        )
        for provider in np.asarray(payload[f"{prefix}.recv_ranks"], dtype=np.int64):
            provider = int(provider)
            plan.recv[provider] = RecvSpec(
                cols=np.asarray(payload[f"{prefix}.recv.{provider}.cols"], dtype=np.int64),
                halo_start=int(payload[f"{prefix}.recv.{provider}.start"]),
            )
        for requester in np.asarray(payload[f"{prefix}.send_ranks"], dtype=np.int64):
            requester = int(requester)
            plan.send[requester] = SendSpec(
                local_idx=np.asarray(payload[f"{prefix}.send.{requester}.idx"], dtype=np.int64),
                halo_start=int(payload[f"{prefix}.send.{requester}.start"]),
            )
        return plan


def split_columns(
    local: CSRMatrix, partition: RowPartition, my_part: int
) -> Tuple[CSRMatrix, CommPlan]:
    """Remap a row block's global columns to local + halo numbering.

    Returns the remapped matrix and a plan with the receive side filled in
    (the send side requires the exchange — see ``distribute_matrix``).
    """
    r0, r1 = partition.range_of(my_part)
    n_local = r1 - r0
    cols = local.col_idx
    owners = partition.owner(cols) if cols.size else np.zeros(0, dtype=np.int64)
    remote_mask = owners != my_part
    remote_cols = np.unique(cols[remote_mask])
    remote_owners = partition.owner(remote_cols) if remote_cols.size else remote_cols

    # halo order: by provider rank, columns ascending within provider
    order = np.lexsort((remote_cols, remote_owners))
    halo_cols = remote_cols[order]
    halo_owners = remote_owners[order]

    plan = CommPlan(n_local=n_local, halo_cols=halo_cols)
    start = 0
    for provider in np.unique(halo_owners):
        chunk = halo_cols[halo_owners == provider]
        plan.recv[int(provider)] = RecvSpec(cols=chunk, halo_start=start)
        start += len(chunk)

    # remap columns: own block -> [0, n_local); halo -> n_local + slot
    new_cols = np.empty_like(cols)
    own_mask = ~remote_mask
    new_cols[own_mask] = cols[own_mask] - r0
    if halo_cols.size:
        slots = np.searchsorted(halo_cols, cols[remote_mask])
        new_cols[remote_mask] = n_local + slots
    remapped = local.with_columns(new_cols, n_local + len(halo_cols))
    return remapped, plan
