"""Network topologies: map a node pair to base latency and bandwidth.

The paper's testbed uses Mellanox QDR InfiniBand (~1.3 us MPI-level latency,
~3.2 GB/s effective per-link bandwidth).  Topologies are purely geometric:
dynamic state (partitions, dead links) lives in
:class:`repro.cluster.network.Network`.
"""

from __future__ import annotations

import abc

import numpy as np


class Topology(abc.ABC):
    """Latency/bandwidth geometry between nodes."""

    @abc.abstractmethod
    def latency(self, node_a: int, node_b: int) -> float:
        """One-way wire latency in seconds between two nodes."""

    @abc.abstractmethod
    def bandwidth(self, node_a: int, node_b: int) -> float:
        """Point-to-point bandwidth in bytes/second between two nodes."""

    # ------------------------------------------------------------------
    # vectorized views (whole-round pricing)
    # ------------------------------------------------------------------
    def latency_many(self, node_a: int | np.ndarray,
                     nodes: np.ndarray) -> np.ndarray:
        """Per-pair :meth:`latency` to every node in ``nodes`` as a float64
        array.  ``node_a`` is a single source node or an array pairing
        ``node_a[i] -> nodes[i]`` (the checkpoint mirror round's
        many-sources case).  The base implementation loops (any topology
        works); built-in topologies override it with closed-form array
        expressions producing bit-identical values.
        """
        src = np.broadcast_to(np.asarray(node_a, dtype=np.int64),
                              np.asarray(nodes).shape)
        return np.array(
            [self.latency(int(a), int(b)) for a, b in zip(src, nodes)],
            dtype=np.float64)

    def bandwidth_many(self, node_a: int | np.ndarray,
                       nodes: np.ndarray) -> np.ndarray:
        """Per-pair :meth:`bandwidth`, vectorized (``node_a`` scalar or
        paired array, like :meth:`latency_many`)."""
        src = np.broadcast_to(np.asarray(node_a, dtype=np.int64),
                              np.asarray(nodes).shape)
        return np.array(
            [self.bandwidth(int(a), int(b)) for a, b in zip(src, nodes)],
            dtype=np.float64)


#: QDR InfiniBand-like defaults (LiMa cluster, paper Sect. V).
QDR_LATENCY = 1.3e-6
QDR_BANDWIDTH = 3.2e9
#: Loopback (two ranks on one node go through shared memory).
LOOPBACK_LATENCY = 0.3e-6
LOOPBACK_BANDWIDTH = 12.0e9


class UniformTopology(Topology):
    """Every node pair sees the same latency/bandwidth (single big switch)."""

    def __init__(
        self,
        latency: float = QDR_LATENCY,
        bandwidth: float = QDR_BANDWIDTH,
        loopback_latency: float = LOOPBACK_LATENCY,
        loopback_bandwidth: float = LOOPBACK_BANDWIDTH,
    ) -> None:
        self._latency = latency
        self._bandwidth = bandwidth
        self._loop_latency = loopback_latency
        self._loop_bandwidth = loopback_bandwidth

    def latency(self, node_a: int, node_b: int) -> float:
        return self._loop_latency if node_a == node_b else self._latency

    def bandwidth(self, node_a: int, node_b: int) -> float:
        return self._loop_bandwidth if node_a == node_b else self._bandwidth

    def latency_many(self, node_a: int, nodes: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(nodes) == node_a,
                        self._loop_latency, self._latency)

    def bandwidth_many(self, node_a: int, nodes: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(nodes) == node_a,
                        self._loop_bandwidth, self._bandwidth)


class TwoLevelTopology(Topology):
    """Leaf/spine fabric: extra hop cost when crossing switch boundaries.

    Nodes are grouped into switches of ``nodes_per_switch``; pairs under the
    same leaf switch pay one hop, pairs crossing the spine pay three.
    """

    def __init__(
        self,
        nodes_per_switch: int = 18,
        hop_latency: float = 0.6e-6,
        base_latency: float = QDR_LATENCY,
        bandwidth: float = QDR_BANDWIDTH,
        loopback_latency: float = LOOPBACK_LATENCY,
        loopback_bandwidth: float = LOOPBACK_BANDWIDTH,
    ) -> None:
        if nodes_per_switch < 1:
            raise ValueError("nodes_per_switch must be >= 1")
        self.nodes_per_switch = nodes_per_switch
        self.hop_latency = hop_latency
        self.base_latency = base_latency
        self._bandwidth = bandwidth
        self._loop_latency = loopback_latency
        self._loop_bandwidth = loopback_bandwidth

    def switch_of(self, node: int) -> int:
        return node // self.nodes_per_switch

    def latency(self, node_a: int, node_b: int) -> float:
        if node_a == node_b:
            return self._loop_latency
        hops = 1 if self.switch_of(node_a) == self.switch_of(node_b) else 3
        return self.base_latency + hops * self.hop_latency

    def bandwidth(self, node_a: int, node_b: int) -> float:
        return self._loop_bandwidth if node_a == node_b else self._bandwidth

    def latency_many(self, node_a: int, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes)
        same_switch = (nodes // self.nodes_per_switch) == self.switch_of(node_a)
        out = np.where(same_switch,
                       self.base_latency + 1 * self.hop_latency,
                       self.base_latency + 3 * self.hop_latency)
        return np.where(nodes == node_a, self._loop_latency, out)

    def bandwidth_many(self, node_a: int, nodes: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(nodes) == node_a,
                        self._loop_bandwidth, self._bandwidth)
