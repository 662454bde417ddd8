"""Simulated HPC cluster: nodes, network, transport and fault injection.

This package models the hardware substrate the paper's experiments ran on
(the LiMa cluster at RRZE: 2-socket Westmere nodes, QDR InfiniBand).  It
provides:

* :class:`Node` / :class:`Machine` — nodes, rank placement, node-local
  storage (for the neighbor-level checkpoint library) and kill switches for
  processes, nodes and links.
* :class:`Network` with pluggable :class:`Topology` — an alpha-beta
  (latency + bandwidth) cost model with link/partition state.
* :class:`Transport` — rank-to-rank operations with RDMA semantics: remote
  writes apply without target-CPU involvement; operations to dead processes
  hang (the sender only sees timeouts), while the explicit *ping* operation
  diagnoses a broken channel after an error-detection timeout.  This split
  is the paper's entire fault-detection premise.
* :class:`FaultPlan` / :class:`FaultInjector` — scheduled and MTTF-driven
  fail-stop process/node kills and link failures.
"""

from repro.cluster.node import Node
from repro.cluster.topology import Topology, UniformTopology, TwoLevelTopology
from repro.cluster.network import Network, NetworkParams
from repro.cluster.transport import Transport, TransportParams, Endpoint, Delivery
from repro.cluster.faults import (
    FaultEvent,
    KillProcess,
    KillNode,
    BreakLink,
    HealLink,
    FaultPlan,
    FaultInjector,
    exponential_node_failures,
)
from repro.cluster.machine import Machine, MachineSpec

__all__ = [
    "Node",
    "Topology",
    "UniformTopology",
    "TwoLevelTopology",
    "Network",
    "NetworkParams",
    "Transport",
    "TransportParams",
    "Endpoint",
    "Delivery",
    "FaultEvent",
    "KillProcess",
    "KillNode",
    "BreakLink",
    "HealLink",
    "FaultPlan",
    "FaultInjector",
    "exponential_node_failures",
    "Machine",
    "MachineSpec",
]
