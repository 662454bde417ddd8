"""Fault injection: scheduled and MTTF-driven fail-stop failures.

The paper injects failures three ways (``exit(-1)`` at a fixed iteration,
``kill -9`` at a random instant, physical network failure).  All three map
to :class:`FaultEvent` subclasses executed at exact virtual times, plus an
MTTF-driven generator for failure-storm studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.sim import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """Base: something bad happens at virtual ``time``."""

    time: float

    def apply(self, machine: "Machine") -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class KillProcess(FaultEvent):
    """Fail-stop of a single rank (``kill -9`` / ``exit(-1)``)."""

    rank: int = 0

    def apply(self, machine: "Machine") -> None:
        machine.kill_process(self.rank)

    def describe(self) -> str:
        return f"t={self.time:.3f}s kill process rank={self.rank}"


@dataclass(frozen=True)
class KillNode(FaultEvent):
    """Whole-node crash: all ranks on the node die, local store is lost."""

    node_id: int = 0

    def apply(self, machine: "Machine") -> None:
        machine.kill_node(self.node_id)

    def describe(self) -> str:
        return f"t={self.time:.3f}s kill node id={self.node_id}"


@dataclass(frozen=True)
class BreakLink(FaultEvent):
    """Cut the fabric between two nodes (cable pull / port failure)."""

    node_a: int = 0
    node_b: int = 0

    def apply(self, machine: "Machine") -> None:
        machine.network.break_link(self.node_a, self.node_b)

    def describe(self) -> str:
        return f"t={self.time:.3f}s break link {self.node_a}<->{self.node_b}"


@dataclass(frozen=True)
class HealLink(FaultEvent):
    """Restore a previously cut link (transient network failure)."""

    node_a: int = 0
    node_b: int = 0

    def apply(self, machine: "Machine") -> None:
        machine.network.heal_link(self.node_a, self.node_b)

    def describe(self) -> str:
        return f"t={self.time:.3f}s heal link {self.node_a}<->{self.node_b}"


@dataclass
class FaultPlan:
    """An ordered collection of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def kill_process(self, time: float, rank: int) -> "FaultPlan":
        return self.add(KillProcess(time=time, rank=rank))

    def kill_node(self, time: float, node_id: int) -> "FaultPlan":
        return self.add(KillNode(time=time, node_id=node_id))

    def break_link(self, time: float, node_a: int, node_b: int) -> "FaultPlan":
        return self.add(BreakLink(time=time, node_a=node_a, node_b=node_b))

    def heal_link(self, time: float, node_a: int, node_b: int) -> "FaultPlan":
        return self.add(HealLink(time=time, node_a=node_a, node_b=node_b))

    def sorted_events(self) -> List[FaultEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulator against a machine."""

    def __init__(
        self,
        sim: "Simulator",
        machine: "Machine",
        plan: FaultPlan,
        on_inject: Optional[Callable[[FaultEvent], None]] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.plan = plan
        self.injected: List[FaultEvent] = []
        self._on_inject = on_inject

    def arm(self) -> None:
        """Schedule every fault event at its virtual time."""
        for event in self.plan.sorted_events():
            self.sim.schedule_at(event.time, self._make_thunk(event))

    def _make_thunk(self, event: FaultEvent) -> Callable[[], None]:
        def thunk() -> None:
            sim = self.sim
            # rank attribution must be read before the kill lands
            ranks = _affected_ranks(event, self.machine)
            for rank in ranks:
                sim.failure_log.fold(sim.now, rank, "failure_injected")
            tracer = sim.tracer
            if tracer.enabled:
                for rank in ranks:
                    tracer.emit(sim.now, rank, "failure_injected",
                                kind=type(event).__name__)
            event.apply(self.machine)
            self.injected.append(event)
            if self._on_inject is not None:
                self._on_inject(event)

        return thunk


def _affected_ranks(event: FaultEvent, machine: "Machine") -> List[int]:
    """Ranks a fault event fail-stops (``[-1]`` for link events)."""
    if isinstance(event, KillProcess):
        return [event.rank]
    if isinstance(event, KillNode):
        return list(machine.ranks_on(event.node_id))
    return [-1]


def exponential_node_failures(
    rng: np.random.Generator,
    n_nodes: int,
    mttf_node: float,
    horizon: float,
    max_failures: Optional[int] = None,
) -> FaultPlan:
    """Draw node-crash times from independent exponential clocks.

    Each node fails at most once; ``mttf_node`` is the per-node mean time to
    failure.  Only failures before ``horizon`` are kept, optionally capped
    at ``max_failures`` earliest ones (modelling the spare-count budget).
    """
    if mttf_node <= 0:
        raise ValueError("mttf_node must be positive")
    times = rng.exponential(mttf_node, size=n_nodes)
    hits = [(t, node) for node, t in enumerate(times) if t < horizon]
    hits.sort()
    if max_failures is not None:
        hits = hits[:max_failures]
    plan = FaultPlan()
    for t, node in hits:
        plan.kill_node(float(t), node)
    return plan
