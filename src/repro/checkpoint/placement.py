"""Checkpoint placement: the ranks each checkpoint is copied to.

Both copying backends place copies by a deterministic rule over the
sorted participant ring:

* **neighbor** (paper §IV-C) — the mirror partner of a rank is the next
  participant (in ring order) hosted on a *different* node: a copy on
  the same node would die with it;
* **replicated** (ReStore-style) — the ``r`` replica holders of a rank
  are the first ``r`` participants after it on pairwise-distinct nodes,
  none on the owner's node or its mirror neighbor's node (see
  ``CHECKPOINTS.md``).

After a recovery the participant list changes, so the maps must be
rebuilt (the library's fault-awareness requirement from Sect. IV-C);
the world's :class:`~repro.checkpoint.manager.CheckpointManager` caches
one map per participant set.  Each map is built for the whole ring at
once by a NumPy kernel over the ring's node column; the scalar oracles
the kernels are property-tested against live in ``tests/checkpoint``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _ring(participants: Sequence[int],
          node_of: Callable[[int], int]) -> Tuple[List[int], np.ndarray]:
    """The sorted participant ring and the node of each position."""
    ring = sorted(participants)
    nodes = np.fromiter((node_of(r) for r in ring), dtype=np.int64,
                        count=len(ring))
    return ring, nodes


# ----------------------------------------------------------------------
# neighbor mirroring
# ----------------------------------------------------------------------
def ring_neighbors(ring_nodes: np.ndarray) -> np.ndarray:
    """Mirror-partner ring positions for a whole checkpoint ring at once.

    ``ring_nodes[i]`` is the node hosting ring position ``i`` (positions
    are the sorted participants).  Returns ``out[i]`` = the first ring
    position after ``i`` (cyclically) on a *different* node, or ``-1``
    when every participant shares one node — built in O(n) instead of
    an O(n) rescan per rank.

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


def neighbor_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
) -> Dict[int, Optional[int]]:
    """Neighbor of every participant (``None`` where no mirror exists),
    via :func:`ring_neighbors` — O(n) for the whole map."""
    ring, nodes = _ring(participants, node_of)
    nbr = ring_neighbors(nodes)
    return {r: (None if j < 0 else ring[int(j)]) for r, j in zip(ring, nbr)}


# ----------------------------------------------------------------------
# replica holders
# ----------------------------------------------------------------------
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


def replica_ring_holders(ring_nodes: np.ndarray, r: int) -> np.ndarray:
    """Replica-holder ring positions for a whole ring at once.

    ``out[i]`` lists the ``r`` ring positions (``-1``-padded) holding
    ring position ``i``'s replicated checkpoint: the first ``r``
    positions after ``i`` (cyclically) on nodes distinct from each
    other, from ``i``'s own node and from ``i``'s mirror neighbor's
    node.

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


def replica_holder_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
    r: int,
) -> Dict[int, List[int]]:
    """Replica holders of every participant, via
    :func:`replica_ring_holders` — O(n·r) for the whole map."""
    ring, nodes = _ring(participants, node_of)
    rows = replica_ring_holders(nodes, r)
    return {
        rank: [ring[int(j)] for j in row if j >= 0]
        for rank, row in zip(ring, rows)
    }
