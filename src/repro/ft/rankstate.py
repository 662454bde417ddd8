"""Struct-of-arrays rank-state kernels.

The FT layer's per-rank bookkeeping — who is failed, who is idle, which
physical rank backs which logical worker — concentrates every
``O(n_ranks)`` sweep into named kernels over NumPy arrays: a detector
scan, a rescue assignment, and a group rebuild each cost a handful of
set-difference/nonzero array ops instead of Python loops (which dominate
wall time at the 1024–4096 rank scans of the weak-scaling ladder).

Kernels return plain Python ints/lists, so no ``np.int64`` leaks into
protocol state.  ``tests/ft/test_rankstate.py`` holds the scalar loops
they are property-tested against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ft.roles import Role


# ----------------------------------------------------------------------
# detector state
# ----------------------------------------------------------------------
def avoid_mask(statuses: np.ndarray) -> np.ndarray:
    """Boolean "known dead" mask from the status array."""
    return np.asarray(statuses) == int(Role.FAILED)


def mark_avoided(avoid: np.ndarray, ranks: Sequence[int]) -> None:
    avoid[np.asarray(list(ranks), dtype=np.int64)] = True


def scan_targets(avoid: np.ndarray, self_rank: int) -> List[int]:
    """Ranks the FD must ping: everyone not itself and not avoided."""
    mask = ~avoid
    mask[self_rank] = False
    targets: List[int] = np.flatnonzero(mask).tolist()
    return targets


def split_failed(
    failed_now: Sequence[int], rank_map_arr: np.ndarray
) -> Tuple[List[int], List[int]]:
    """Partition a failure batch into (sorted workers, other ranks)."""
    f = np.asarray(list(failed_now), dtype=np.int64)
    worker = np.isin(f, rank_map_arr)
    failed_workers: List[int] = np.sort(f[worker]).tolist()
    failed_others: List[int] = f[~worker].tolist()
    return failed_workers, failed_others


def healthy_targets(avoid: np.ndarray, statuses: np.ndarray) -> List[int]:
    """Broadcast targets: not avoided and not status-FAILED."""
    mask = (~avoid) & (np.asarray(statuses) != int(Role.FAILED))
    healthy: List[int] = np.flatnonzero(mask).tolist()
    return healthy


# ----------------------------------------------------------------------
# spares / roles
# ----------------------------------------------------------------------
def idle_ranks(statuses: np.ndarray) -> List[int]:
    idles: List[int] = np.flatnonzero(
        np.asarray(statuses) == int(Role.IDLE)
    ).tolist()
    return idles


def ranks_with_roles(statuses: np.ndarray, roles: Sequence[Role]) -> List[int]:
    s = np.asarray(statuses)
    mask = np.zeros(s.shape, dtype=bool)
    for role in roles:
        mask |= s == int(role)
    ranks: List[int] = np.flatnonzero(mask).tolist()
    return ranks


# ----------------------------------------------------------------------
# rank map
# ----------------------------------------------------------------------
def apply_rescues(
    rank_map_arr: np.ndarray, failed: Sequence[int], rescues: Sequence[int]
) -> np.ndarray:
    """New map array with ``failed[i]`` replaced by ``rescues[i]``.

    Pairing truncates to the shorter list (the unrecoverable-batch
    case), matching the historical ``dict(zip(failed, rescues))``.
    """
    n = int(np.max(rank_map_arr)) + 1 if rank_map_arr.size else 0
    k = min(len(failed), len(rescues))
    hi = max(n, (max(failed[:k]) + 1) if k else 0)
    repl = np.arange(hi, dtype=np.int64)
    if k:
        repl[np.asarray(list(failed[:k]), dtype=np.int64)] = np.asarray(
            list(rescues[:k]), dtype=np.int64
        )
    return repl[rank_map_arr]


def map_members(rank_map: Dict[int, int]) -> List[int]:
    """Sorted physical members of a logical->physical map."""
    members: List[int] = np.sort(
        np.fromiter(rank_map.values(), dtype=np.int64, count=len(rank_map))
    ).tolist()
    return members
