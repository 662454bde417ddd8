"""Node-local checkpoint stores.

A :class:`NodeLocalStore` wraps a node's ``local_store`` dict, so that
killing the node (``Node.wipe``) automatically loses every blob on it —
the distinction between a process failure (local checkpoint survives) and
a node failure (only the neighbor copy survives).

Keys are ``(tag, logical_rank, version)``; blobs carry their nominal size,
which may exceed ``len(data)`` when the timing-only model kernel declares
paper-scale checkpoint volumes without materialising them.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.node import Node

Key = Tuple[str, int, int]  # (tag, logical rank, version)


class CheckpointNotFound(Exception):
    """No (consistent) checkpoint available from any source."""


@dataclass(frozen=True, slots=True)
class StoredBlob:
    """One checkpoint blob plus its accounting size."""

    data: bytes
    nominal_bytes: int

    @property
    def nbytes(self) -> int:
        return self.nominal_bytes


class NodeLocalStore:
    """Checkpoint view of one node's local storage."""

    _PREFIX = "ckpt"

    def __init__(self, node: Node) -> None:
        self.node = node

    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        return self.node.alive

    def get(self, key: Key) -> StoredBlob:
        if not self.node.alive:
            raise CheckpointNotFound(f"node {self.node.node_id} is down")
        try:
            return self.node.local_store[(self._PREFIX, *key)]
        except KeyError:
            raise CheckpointNotFound(f"no blob {key} on node {self.node.node_id}") from None

    def has(self, key: Key) -> bool:
        return self.node.alive and (self._PREFIX, *key) in self.node.local_store

    def put_pruned(self, key: Key, blob: StoredBlob, keep: int) -> None:
        """Store ``blob`` under ``key``, then drop all but the owner's
        newest ``keep`` versions.

        The hot write path (every local write and every landed mirror)
        always prunes right after storing, so both share one aliveness
        check and one index lookup.
        """
        if not self.node.alive:
            raise CheckpointNotFound(f"node {self.node.node_id} is down")
        store = self.node.local_store
        full = (self._PREFIX, *key)
        index = self.node.ckpt_index
        pair = key[:2]
        held = index.get(pair)
        version = key[2]
        if held is None:
            index[pair] = [version]
            store[full] = blob
            return
        if not held or held[-1] < version:
            # the hot path: versions are written in increasing order, and
            # a version absent from the (exact) index is absent from the
            # store — no containment probe, no bisect
            held.append(version)
        elif full not in store:
            insort(held, version)
        store[full] = blob
        if len(held) > keep:
            stale, held[:] = held[:-keep], held[-keep:]
            tag, logical_rank = key[0], key[1]
            for stale_version in stale:
                store.pop((self._PREFIX, tag, logical_rank, stale_version),
                          None)

    # ------------------------------------------------------------------
    def versions(self, tag: str, logical_rank: int) -> List[int]:
        """Sorted versions held for ``(tag, logical_rank)``."""
        if not self.node.alive:
            return []
        held = self.node.ckpt_index.get((tag, logical_rank))
        return list(held) if held else []

    def latest_version(self, tag: str, logical_rank: int) -> Optional[int]:
        versions = self.versions(tag, logical_rank)
        return versions[-1] if versions else None

    def used_bytes(self) -> int:
        return sum(
            blob.nominal_bytes
            for k, blob in self.node.local_store.items()
            if isinstance(k, tuple) and k and k[0] == self._PREFIX
        )
