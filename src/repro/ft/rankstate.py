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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gaspi.groups import _Members
from repro.ft.roles import Role


def _replica_ring_holders_scalar(ring_nodes: np.ndarray, r: int) -> np.ndarray:
    """General-layout replica placement: per-position forward scans.

    For every ring position ``i`` walk forward (cyclically) and collect
    the first ``r`` positions whose nodes are all distinct from each
    other, from ``i``'s own node *and* from the node of ``i``'s mirror
    neighbor (the first foreign node after ``i`` — the rank that already
    holds the neighbor-backend copy).  Rows are padded with ``-1`` when
    fewer than ``r`` eligible holders exist (small or node-shared rings).
    """
    d = [int(x) for x in np.asarray(ring_nodes)]
    n = len(d)
    out = np.full((n, r), -1, dtype=np.int64)
    for i in range(n):
        mirror_node = -1
        for step in range(1, n):
            j = (i + step) % n
            if d[j] != d[i]:
                mirror_node = d[j]
                break
        excluded = {d[i], mirror_node}
        k = 0
        for step in range(1, n):
            if k == r:
                break
            j = (i + step) % n
            if d[j] in excluded:
                continue
            out[i, k] = j
            excluded.add(d[j])
            k += 1
    return out


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


def logical_in_map(rank_map: Dict[int, int], phys: int) -> Optional[int]:
    """The logical rank mapped to ``phys`` (None when absent)."""
    arr = np.fromiter(rank_map.values(), dtype=np.int64, count=len(rank_map))
    hits = np.flatnonzero(arr == phys)
    if hits.size == 0:
        return None
    keys = list(rank_map.keys())
    return keys[int(hits[0])]


# ----------------------------------------------------------------------
# checkpoint neighbor ring
# ----------------------------------------------------------------------
def ring_neighbors(ring_nodes: np.ndarray) -> np.ndarray:
    """Mirror-partner ring positions for a whole checkpoint ring at once.

    ``ring_nodes[i]`` is the node hosting ring position ``i`` (positions
    are the sorted participants).  Returns ``out[i]`` = the first ring
    position after ``i`` (cyclically) on a *different* node, or ``-1``
    when every participant shares one node — the per-position
    equivalent of :func:`repro.checkpoint.neighbor.neighbor_of`, built
    in O(n) instead of an O(n) rescan per rank.

    Works off the node-change points of the ring: with no change point
    in ``[i, k)``, positions ``i..k`` all share ``ring_nodes[i]``, so
    the first change point ``k`` at-or-after ``i`` puts the first
    foreign node at ``k + 1``.
    """
    d = np.asarray(ring_nodes, dtype=np.int64)
    n = int(d.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.flatnonzero(d != np.roll(d, -1))
    if change.size == 0:
        return np.full(n, -1, dtype=np.int64)
    idx = np.searchsorted(change, np.arange(n))
    first = change[np.where(idx == change.size, 0, idx)]
    out: np.ndarray = (first + 1) % n
    return out


def replica_ring_holders(ring_nodes: np.ndarray, r: int) -> np.ndarray:
    """Replica-holder ring positions for a whole ring at once.

    ``out[i]`` lists the ``r`` ring positions (``-1``-padded) holding
    ring position ``i``'s replicated checkpoint: the first ``r``
    positions after ``i`` (cyclically) on nodes distinct from each
    other, from ``i``'s own node and from ``i``'s mirror neighbor's
    node — the ReStore-style placement rule of
    :mod:`repro.checkpoint.replicated`.

    Fast path: with every ring position on its own node (the paper's
    one-rank-per-node testbed) and ``n >= r + 2``, the eligible
    holders are simply the ``r`` positions after the mirror neighbor,
    so the whole map is one broadcast add — and each position holds
    exactly ``r`` owners (perfectly balanced load).  Any other node
    layout falls back to the per-position forward scans.
    """
    d = np.asarray(ring_nodes, dtype=np.int64)
    n = int(d.shape[0])
    if n == 0:
        return np.empty((0, r), dtype=np.int64)
    if n >= r + 2 and np.unique(d).size == n:
        out: np.ndarray = (
            np.arange(n, dtype=np.int64)[:, None] + 2
            + np.arange(r, dtype=np.int64)[None, :]
        ) % n
        return out
    return _replica_ring_holders_scalar(d, r)


# ----------------------------------------------------------------------
# group rebuild
# ----------------------------------------------------------------------
def group_fill(group: "object", members: Sequence[int]) -> None:
    """Populate a fresh group with sorted ``members`` (flyweight).

    Every rebuilding rank computes the same sorted member list, so
    the membership is interned once per distinct list and *adopted*
    — the group shares the tuple and its set instead of building a
    private list/set per rank (the historical ``add_many`` path).
    """
    group.adopt_members(  # type: ignore[attr-defined]
        _Members.intern(tuple(sorted(members))))
