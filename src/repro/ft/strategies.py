"""Alternative failure-detection strategies (paper Sect. IV-A b).

The paper rejects two designs in favour of the dedicated FD process:

1. **all-to-all**: every process periodically pings every other — not
   scalable, adds failure-free overhead, and multiple processes may detect
   *different* failure sets (consensus problem / deadlock risk);
2. **neighbor ring**: each process pings its successor; a hit triggers an
   all-to-all to obtain the global view — cheaper, but the same consensus
   problem on the trigger.

These are implemented here as per-iteration hooks so the ablation
benchmark can measure exactly what the paper argues: their failure-free
overhead versus the dedicated FD's zero-cost local flag check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Set

from repro.gaspi.context import GaspiContext
from repro.ft.detector import scan_once


@dataclass
class StrategyStats:
    """Accounting of detection work done inside the application loop."""

    checks: int = 0
    pings_sent: int = 0
    time_spent: float = 0.0


class DetectionStrategy:
    """Base: call ``maybe_check`` once per application iteration."""

    def __init__(self, ctx: GaspiContext, peers: List[int], period: float) -> None:
        self.ctx = ctx
        self.peers = [p for p in peers if p != ctx.rank]
        self.period = period
        self.stats = StrategyStats()
        self._next_check = ctx.now + period
        self._known_failed: Set[int] = set()

    def _due(self) -> bool:
        return self.ctx.now >= self._next_check

    def _live_peers(self) -> List[int]:
        return [p for p in self.peers if p not in self._known_failed]

    def maybe_check(self) -> Generator[Any, Any, Set[int]]:
        """Generator: run the strategy's periodic work if it is due.

        Returns the (possibly empty) set of *newly* detected failures.
        """
        raise NotImplementedError

    def _record(self, t0: float, failed: List[int]) -> Set[int]:
        self.stats.checks += 1
        self.stats.time_spent += self.ctx.now - t0
        fresh = set(failed) - self._known_failed
        if fresh:
            self._known_failed |= fresh
        self._next_check = self.ctx.now + self.period
        return fresh


class LocalFlagStrategy(DetectionStrategy):
    """The dedicated-FD worker side: a local memory read, no messages."""

    def maybe_check(self) -> Generator[Any, Any, Set[int]]:
        if False:
            yield  # pragma: no cover - keeps this a generator
        t0 = self.ctx.now
        if not self._due():
            return set()
        return self._record(t0, [])


class AllToAllStrategy(DetectionStrategy):
    """Every process pings every other process, every period."""

    def maybe_check(self) -> Generator[Any, Any, Set[int]]:
        if not self._due():
            return set()
        t0 = self.ctx.now
        targets = self._live_peers()
        failed = yield from scan_once(self.ctx, targets)
        self.stats.pings_sent += len(targets)
        return self._record(t0, failed)


class NeighborRingStrategy(DetectionStrategy):
    """Ping only the ring successor; escalate to all-to-all on a hit."""

    def _successor(self) -> Optional[int]:
        ring = sorted(set(self._live_peers()) | {self.ctx.rank})
        if len(ring) < 2:
            return None
        idx = ring.index(self.ctx.rank)
        return ring[(idx + 1) % len(ring)]

    def maybe_check(self) -> Generator[Any, Any, Set[int]]:
        if not self._due():
            return set()
        t0 = self.ctx.now
        succ = self._successor()
        failed: List[int] = []
        if succ is not None:
            failed = yield from scan_once(self.ctx, [succ])
            self.stats.pings_sent += 1
            if failed:
                # escalate: global scan to learn the full failure set
                rest = [p for p in self._live_peers() if p != succ]
                failed += yield from scan_once(self.ctx, rest)
                self.stats.pings_sent += len(rest)
        return self._record(t0, failed)
