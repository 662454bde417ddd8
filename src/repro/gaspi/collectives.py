"""The collective engine: matches collective calls across ranks.

Collectives in GASPI are timed-out and must be retried with identical
parameters after a timeout.  The engine keys each collective *instance* by
``(kind, group identity, sequence)``; a rank's arrival is idempotent, so a
retry after timeout re-joins the same pending instance.  Callers hand the
engine the payload size only; the engine prices an instance once, when its
last member arrives, and it completes for everyone at

    ``max(arrival time) + price(kind, group size, payload)``

with the formulas of :class:`CollectiveCosts`.  A kind without a formula
(ULFM's ``agree`` and ``shrink``, which charge their own price) completes
at the last arrival.  A member that never arrives (because it failed)
leaves the instance pending forever — the survivors only ever see
``GASPI_TIMEOUT``, which is precisely the failure mode the paper's fault
detector exists to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.sim import Event, Simulator
from repro.gaspi.constants import AllreduceOp
from repro.gaspi.errors import GaspiUsageError
from repro.gaspi.groups import _Members


@dataclass
class CollectiveCosts:
    """Timing model of collective operations (see DESIGN.md calibration).

    * barrier/allreduce: dissemination pattern, ``ceil(log2 p)`` rounds.
    * group_commit: GPI-2 (re-)establishes connection state per member —
      the dominant, *linear-in-p* cost the paper observes as OHF2
      (~27 ms/rank → ≈ 7 s at 256 ranks).
    """

    round_latency: float = 10.0e-6
    bandwidth: float = 3.2e9
    commit_per_rank: float = 0.027
    commit_base: float = 0.050

    def barrier(self, p: int) -> float:
        return max(1, math.ceil(math.log2(max(2, p)))) * self.round_latency

    def allreduce(self, p: int, nbytes: int) -> float:
        rounds = max(1, math.ceil(math.log2(max(2, p))))
        return rounds * (self.round_latency + nbytes / self.bandwidth)

    def commit(self, p: int) -> float:
        return self.commit_base + self.commit_per_rank * p

    def price(self, kind: str, p: int, nbytes: int) -> float:
        """Duration of one instance of ``kind`` over ``p`` members.

        The one map from an instance to its formula; a kind with none
        (ULFM's ``agree`` and ``shrink``) is free here.
        """
        if kind == "allreduce":
            return self.allreduce(p, nbytes)
        if kind == "barrier":
            return self.barrier(p)
        if kind == "commit":
            return self.commit(p)
        return 0.0


#: exact reducers of plain ``int`` contributions (integer agreements)
_INT_REDUCERS: Dict[AllreduceOp, Callable[[List[int]], int]] = {
    AllreduceOp.MIN: min, AllreduceOp.MAX: max, AllreduceOp.SUM: sum,
}


def _reduce(op: AllreduceOp, contributions: List[Any]) -> Any:
    """Reduce one instance's contributions (in member order).

    All-``int`` contributions reduce with the builtins to an ``int``;
    anything else is stacked into one array and reduced along axis 0.
    """
    if all(type(c) is int for c in contributions):
        return _INT_REDUCERS[op](contributions)
    stack = np.array(contributions)
    if op is AllreduceOp.MIN:
        return stack.min(axis=0)
    if op is AllreduceOp.MAX:
        return stack.max(axis=0)
    if op is AllreduceOp.SUM:
        return stack.sum(axis=0)
    raise GaspiUsageError(f"unknown allreduce op {op!r}")  # pragma: no cover


class _Instance:
    """One in-flight collective instance."""

    __slots__ = ("members", "contributions", "events")

    def __init__(self, members: _Members) -> None:
        self.members = members
        self.contributions: Dict[int, Any] = {}
        self.events: Dict[int, Event] = {}


class CollectiveEngine:
    """World-global matcher for barrier / allreduce / group_commit."""

    def __init__(self, sim: Simulator, costs: Optional[CollectiveCosts] = None) -> None:
        self.sim = sim
        self.costs = costs or CollectiveCosts()
        self._instances: Dict[Tuple, _Instance] = {}

    # ------------------------------------------------------------------
    def arrive(
        self,
        kind: str,
        group_identity: Tuple,
        seq: int,
        rank: int,
        members: _Members,
        contribution: Any = None,
        finisher: Union[AllreduceOp, Callable[[List[Any]], Any], None] = None,
        nbytes: int = 0,
    ) -> Event:
        """Join collective instance ``(kind, group_identity, seq)``.

        Returns this rank's completion event (stable across retries: only
        the first arrival records its event and ``contribution``).
        ``members`` is the interned membership, and ``nbytes`` the
        payload size (0 for barriers and commits).  When the final member
        arrives, the instance combines the contributions (in member
        order) into the shared result once — ``finisher`` is an
        :class:`AllreduceOp` to reduce them with, or a callable over the
        list — and every member's event fires after the instance's price,
        :meth:`CollectiveCosts.price` of its kind, size and ``nbytes``.
        """
        # the interned set makes this O(1), not an O(p) tuple scan that
        # a timed-out commit retries p times
        if rank not in members.member_set():
            raise GaspiUsageError(f"rank {rank} not a member of {group_identity}")
        key = (kind, group_identity, seq)
        inst = self._instances.get(key)
        if inst is None:
            inst = _Instance(members)
            self._instances[key] = inst
        # interning makes the match an identity check; the content compare
        # covers a membership re-interned after the table was cleared
        elif inst.members is not members and inst.members != members:
            raise GaspiUsageError(
                f"collective {key} called with mismatched membership: "
                f"{inst.members} vs {members}"
            )

        events = inst.events
        event = events.get(rank)
        if event is not None:
            return event  # a retry re-joins the pending instance
        # unnamed: formatting a per-arrival name is measurable on the
        # once-per-iteration allreduce path and only aids debugging
        event = events[rank] = Event()
        inst.contributions[rank] = contribution

        if len(events) == len(inst.members):
            ordered = [inst.contributions[m] for m in inst.members]
            if isinstance(finisher, AllreduceOp):
                result = _reduce(finisher, ordered)
            else:
                result = finisher(ordered) if finisher is not None else None

            def complete() -> None:
                for member in inst.members:
                    events[member].succeed(result)
                self._instances.pop(key, None)

            self.sim.schedule(
                self.costs.price(kind, len(members), nbytes), complete)
        return event

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of collective instances still waiting for members."""
        return len(self._instances)
