"""Neighbor selection for node-level checkpoint mirroring.

The neighbor of a rank is the next participant (in ring order) hosted on a
*different* node — a copy on the same node would die with it.  After a
recovery the participant list changes, so the map must be refreshed (the
library's fault-awareness requirement from Sect. IV-C).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np


def neighbor_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
) -> Dict[int, Optional[int]]:
    """Neighbor of every participant (``None`` where no mirror exists).

    The neighbor of a participant is the first participant after it
    (cyclically, in sorted order) living on a different node.  Builds the
    sorted ring and its node lookup once and derives every position's
    partner with the :mod:`repro.ft.rankstate` ``ring_neighbors`` kernel
    — O(n) for the whole map.  The scalar ring oracle lives in
    ``tests/ft/test_rankstate.py``.
    """
    from repro.ft import rankstate

    ring = sorted(participants)
    if not ring:
        return {}
    nodes = np.fromiter((node_of(r) for r in ring), dtype=np.int64,
                        count=len(ring))
    nbr = rankstate.ring_neighbors(nodes)
    return {r: (None if j < 0 else ring[int(j)]) for r, j in zip(ring, nbr)}
