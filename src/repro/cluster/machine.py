"""Cluster assembly: nodes + network + transport + process registry.

:class:`Machine` is the root object for one simulated job: it owns the
nodes, the rank-to-node placement, the transport, and the kill switches that
fault injection (or ``gaspi_proc_kill``) pulls.  The GASPI runtime registers
each rank's :class:`repro.sim.Process` here so that a kill actually stops
the running coroutine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.sim import Process, Simulator
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.transport import Transport, TransportParams


@dataclass
class MachineSpec:
    """Shape of the simulated cluster.

    The paper's runs use one GASPI process per node (with 12 threads inside,
    which are below this model's resolution), hence the default
    ``procs_per_node=1``.
    """

    n_nodes: int = 8
    procs_per_node: int = 1
    transport_params: TransportParams = field(default_factory=TransportParams)

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.procs_per_node


class Machine:
    """One simulated cluster instance bound to a simulator."""

    def __init__(self, sim: Simulator, spec: Optional[MachineSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or MachineSpec()
        self.nodes: List[Node] = [Node(i) for i in range(self.spec.n_nodes)]
        self.network = Network()
        self.transport = Transport(sim, self.network, self.spec.transport_params)
        self._procs: Dict[int, List[Process]] = {}
        self._death_listeners: List[Callable[[int], None]] = []

        # placement is regular (rank r lives on node r // procs_per_node),
        # so it is computed in one vectorized pass and registered in bulk
        # instead of n_ranks round-trips through transport.register()
        ppn = self.spec.procs_per_node
        n_ranks = self.spec.n_ranks
        self._node_of = np.arange(n_ranks, dtype=np.int64) // ppn
        for node in self.nodes:
            start = node.node_id * ppn
            node.ranks.extend(range(start, start + ppn))
        self.transport.register_many(self._node_of)
        self.transport.set_kill_handler(self.kill_process)

    # ------------------------------------------------------------------
    # placement queries
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self._node_of)

    def node_of(self, rank: int) -> int:
        return int(self._node_of[rank])

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def ranks_on(self, node_id: int) -> List[int]:
        return list(self.nodes[node_id].ranks)

    def alive(self, rank: int) -> bool:
        return self.transport.is_alive(rank)

    def alive_ranks(self) -> List[int]:
        return self.transport.alive_ranks()

    # ------------------------------------------------------------------
    # process registry
    # ------------------------------------------------------------------
    def bind_process(self, rank: int, proc: Process) -> None:
        """Associate a running coroutine with its rank (runtime hook).

        A rank may have several coroutines bound (the main program plus
        background work such as the checkpoint library's PFS copies); a
        fail-stop kills them all.
        """
        self._procs.setdefault(rank, []).append(proc)

    def on_death(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the rank of each killed process."""
        self._death_listeners.append(listener)

    # ------------------------------------------------------------------
    # kill switches
    # ------------------------------------------------------------------
    def kill_process(self, rank: int) -> None:
        """Fail-stop one rank. Idempotent."""
        if not self.transport.is_alive(rank):
            return
        self.transport.mark_dead(rank)
        for proc in self._procs.get(rank, []):
            proc.kill()
        for listener in self._death_listeners:
            listener(rank)

    def kill_node(self, node_id: int) -> None:
        """Crash a node: every rank on it dies, the local store is wiped."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        for rank in node.ranks:
            self.kill_process(rank)
        node.wipe()
