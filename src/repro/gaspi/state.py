"""The error state vector (``gaspi_state_vec``).

Each rank keeps a local vector with one health entry per rank.  The vector
is updated after every erroneous non-local operation (here: failed pings
and kill-confirmed deaths) and queried with ``state_vec_get`` to tell a
mere timeout apart from a broken peer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gaspi.constants import HealthState
from repro.gaspi.errors import GaspiUsageError


class StateVector:
    """Per-rank local view of every rank's health.

    The backing array is allocated on first touch: only ranks that
    actually observe an error (in practice the fault detector) pay for
    an ``n_ranks``-wide vector, so a 4096-rank world does not allocate
    4096 × 4096 health cells at construction.
    """

    __slots__ = ("_n_ranks", "_lazy_states")

    def __init__(self, n_ranks: int) -> None:
        if n_ranks <= 0:
            raise GaspiUsageError("state vector needs at least one rank")
        self._n_ranks = int(n_ranks)
        self._lazy_states: Optional[np.ndarray] = None

    @property
    def _states(self) -> np.ndarray:
        states = self._lazy_states
        if states is None:
            states = self._lazy_states = np.full(
                self._n_ranks, HealthState.HEALTHY, dtype=np.uint8)
        return states

    def mark_corrupt(self, rank: int) -> None:
        self._check(rank)
        self._states[rank] = HealthState.CORRUPT

    def state_of(self, rank: int) -> HealthState:
        self._check(rank)
        if self._lazy_states is None:
            return HealthState.HEALTHY
        return HealthState(int(self._states[rank]))

    def snapshot(self) -> np.ndarray:
        """Copy of the vector (what ``gaspi_state_vec_get`` returns)."""
        return self._states.copy()

    def _check(self, rank: int) -> None:
        if not (0 <= rank < self._n_ranks):
            raise GaspiUsageError(f"rank {rank} outside [0, {self._n_ranks})")
