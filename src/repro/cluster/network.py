"""Dynamic network state: transfer costs, partitions, dead links.

:class:`Network` combines a static :class:`Topology` with mutable health
state.  It answers two questions for the transport layer:

* ``reachable(a, b)`` — is there currently a path between two *nodes*?
* ``transfer_time(a, b, nbytes)`` — alpha-beta cost of moving ``nbytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.topology import Topology, UniformTopology


@dataclass
class NetworkParams:
    """Tunable knobs of the network model."""

    #: fixed per-message software/NIC overhead (seconds) added to every
    #: transfer on top of wire latency — models posting + completion cost.
    per_message_overhead: float = 0.5e-6


def _link_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class Network:
    """Mutable network health + transfer cost model."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        params: Optional[NetworkParams] = None,
    ) -> None:
        self.topology = topology or UniformTopology()
        self.params = params or NetworkParams()
        self._broken_links: Set[Tuple[int, int]] = set()
        self._isolated_nodes: Set[int] = set()

    # ------------------------------------------------------------------
    # health state
    # ------------------------------------------------------------------
    def break_link(self, node_a: int, node_b: int) -> None:
        """Cut the (bidirectional) link between two nodes."""
        self._broken_links.add(_link_key(node_a, node_b))

    def heal_link(self, node_a: int, node_b: int) -> None:
        """Restore a previously cut link (no-op if it was healthy)."""
        self._broken_links.discard(_link_key(node_a, node_b))

    def isolate_node(self, node: int) -> None:
        """Cut *all* links of ``node`` (switch-port failure)."""
        self._isolated_nodes.add(node)

    def rejoin_node(self, node: int) -> None:
        self._isolated_nodes.discard(node)

    def reachable(self, node_a: int, node_b: int) -> bool:
        """Whether a message can currently flow between the two nodes."""
        if not self._broken_links and not self._isolated_nodes:
            # healthy fabric: nothing is cut, every pair is reachable
            return True
        if node_a == node_b:
            # loopback never traverses the fabric
            return True
        if node_a in self._isolated_nodes or node_b in self._isolated_nodes:
            return False
        return _link_key(node_a, node_b) not in self._broken_links

    @property
    def broken_links(self) -> Set[Tuple[int, int]]:
        return set(self._broken_links)

    @property
    def partitioned(self) -> bool:
        """Whether any link cut or node isolation is currently active.

        ``False`` (the overwhelmingly common case) lets bulk paths skip
        per-target :meth:`reachable` checks entirely.
        """
        return bool(self._broken_links or self._isolated_nodes)

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def transfer_time(self, node_a: int, node_b: int, nbytes: int) -> float:
        """Alpha-beta transfer cost: overhead + latency + size/bandwidth."""
        return (
            self.params.per_message_overhead
            + self.topology.latency(node_a, node_b)
            + nbytes / self.topology.bandwidth(node_a, node_b)
        )

    def transfer_time_list(self, node_a: int, node_b: int,
                           sizes: Sequence[int]) -> float:
        """Vectorized cost of a batched (``write_list``-style) transfer.

        The batch moves as *one* fabric operation: a single per-message
        overhead, a single wire latency, and a sum-of-bytes bandwidth term.
        This is the whole point of coalescing — N messages no longer pay N
        overheads and N latencies.
        """
        return (
            self.params.per_message_overhead
            + self.topology.latency(node_a, node_b)
            + sum(sizes) / self.topology.bandwidth(node_a, node_b)
        )

    def transfer_time_round(self, node_a: int | np.ndarray,
                            nodes: np.ndarray,
                            nbytes: int | np.ndarray) -> np.ndarray:
        """Whole-round alpha-beta pricing in one vectorized call.

        ``node_a`` is a single source fanned to every node in ``nodes``
        (the ping-sweep / notice-broadcast case), or an array pairing
        ``node_a[i] -> nodes[i]`` (the checkpoint mirror round's
        many-sources case).  ``nbytes`` is likewise a shared scalar or a
        per-pair array.  Element ``i`` is bit-identical to
        ``transfer_time(node_a[i], nodes[i], nbytes[i])`` — the float
        expression mirrors the scalar operation order exactly, so a
        round-priced sweep lands on the same virtual timestamps as a
        per-destination loop.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        lat = self.topology.latency_many(node_a, nodes)
        bw = self.topology.bandwidth_many(node_a, nodes)
        return (self.params.per_message_overhead + lat) + np.asarray(nbytes) / bw
