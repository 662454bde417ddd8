"""GASPI world assembly and program launcher.

:func:`run_gaspi` is the ``gaspi_run``/``mpiexec`` equivalent: it builds a
simulated cluster, creates one :class:`GaspiContext` per rank, spawns each
rank's main generator as a DES process, arms the fault plan, runs the
simulation and collects per-rank results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from repro.obs.tracer import NULL_TRACER, active_tracer
from repro.sim import Process, Simulator
from repro.cluster import FaultInjector, FaultPlan, Machine, MachineSpec
from repro.cluster.transport import Transport
from repro.gaspi.collectives import CollectiveEngine
from repro.gaspi.config import GaspiConfig
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.gaspi.sanitize import Sanitizer, env_enabled

MainFn = Callable[[GaspiContext], Generator]


class GaspiWorld:
    """Everything shared by the ranks of one GASPI job.

    Construction is flyweight: the all-ranks membership is interned
    *once* here and shared by every context's ``group_all`` (contexts
    keep private collective sequence numbers, only the membership tuple
    and its set are shared).
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        config: Optional[GaspiConfig] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.config = config or GaspiConfig()
        self.engine = CollectiveEngine(sim, self.config.collective_costs)
        #: the interned all-ranks membership every ``group_all`` shares
        self.members_all = _Members.intern(tuple(range(machine.n_ranks)))
        #: runtime protocol monitor (``None`` unless requested — every
        #: context hook is gated on a single ``is not None`` test)
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(self)
            if self.config.sanitize or env_enabled() else None
        )
        self.contexts: Dict[int, GaspiContext] = {}
        for rank in range(machine.n_ranks):
            self.contexts[rank] = GaspiContext(self, rank)

    @property
    def n_ranks(self) -> int:
        return self.machine.n_ranks

    @property
    def transport(self) -> Transport:
        return self.machine.transport

    def context(self, rank: int) -> GaspiContext:
        return self.contexts[rank]

    # ------------------------------------------------------------------
    def launch(self, rank: int, gen: Generator, name: str = "") -> Process:
        """Spawn a generator as (part of) the process behind ``rank``.

        The process is bound to the rank on the machine, so a fail-stop of
        the rank kills it.  Used for rank mains and for per-rank background
        work.
        """
        proc = self.sim.spawn(gen, name=name or f"rank{rank}")
        self.machine.bind_process(rank, proc)
        return proc


@dataclass
class GaspiRun:
    """Outcome of one simulated job."""

    world: GaspiWorld
    procs: Dict[int, Process]
    injected: list = field(default_factory=list)

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    @property
    def machine(self) -> Machine:
        return self.world.machine

    def result(self, rank: int) -> Any:
        return self.procs[rank].result

    @property
    def results(self) -> Dict[int, Any]:
        return {rank: proc.result for rank, proc in self.procs.items()}

    @property
    def elapsed(self) -> float:
        return self.world.sim.now


def run_gaspi(
    main: MainFn,
    n_ranks: int = 4,
    procs_per_node: int = 1,
    machine_spec: Optional[MachineSpec] = None,
    config: Optional[GaspiConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    until: Optional[float] = None,
    sim: Optional[Simulator] = None,
) -> GaspiRun:
    """Build and run a GASPI job; returns the :class:`GaspiRun`.

    ``main(ctx)`` must return the rank's generator.  If ``machine_spec`` is
    given it wins over ``n_ranks``/``procs_per_node``.
    """
    sim = sim or Simulator()
    # adopt the process-wide tracer (repro.obs) for this job, unless the
    # caller already attached one to an explicitly supplied simulator
    if sim.tracer is NULL_TRACER:
        tracer = active_tracer()
        if tracer is not NULL_TRACER:
            sim.tracer = tracer
    if machine_spec is None:
        if n_ranks % procs_per_node != 0:
            raise ValueError("n_ranks must be a multiple of procs_per_node")
        machine_spec = MachineSpec(
            n_nodes=n_ranks // procs_per_node, procs_per_node=procs_per_node
        )
    machine = Machine(sim, machine_spec)
    world = GaspiWorld(sim, machine, config)

    procs: Dict[int, Process] = {}
    for rank in range(world.n_ranks):
        procs[rank] = world.launch(rank, main(world.context(rank)), name=f"rank{rank}")

    injector = None
    if fault_plan is not None:
        injector = FaultInjector(sim, machine, fault_plan)
        injector.arm()

    sim.run(until=until)
    return GaspiRun(
        world=world,
        procs=procs,
        injected=list(injector.injected) if injector else [],
    )
