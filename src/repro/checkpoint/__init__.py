"""Checkpoint/restart libraries for GASPI applications (three backends).

The core is the reproduction of the paper's third contribution
(Sect. IV-C): an application-level C/R library where each rank
checkpoints to its *local* node store and the world's round-batched
mirror plane (the paper's helper thread) asynchronously copies the
checkpoint to the neighboring node (optionally, every k-th
checkpoint also goes to the parallel file system).  The library is
fault-aware: after a recovery the neighbor map is refreshed from the
failed-process list, and a restore transparently falls back from the
local store to the neighbor copy to the PFS copy.

Two alternative backends share the same interface (select with
``CheckpointConfig.backend`` via :func:`make_checkpoint_lib`): the
classical synchronous-PFS baseline, and a ReStore-style backend that
replicates each checkpoint in the memory of ``r`` other ranks
(:mod:`repro.checkpoint.replicated`; arXiv:2203.01107).  See
``CHECKPOINTS.md`` for wire formats, placement rules and the
failure-tolerance comparison.

Checkpoints are keyed by *logical* rank so that a rescue process (which
adopts the failed process's logical identity) finds its predecessor's data.
"""

from repro.checkpoint.serialization import (
    CheckpointCorrupt,
    pack_checkpoint,
    pack_checkpoint_into,
    packed_size,
    unpack_checkpoint,
)
from repro.checkpoint.store import CheckpointNotFound, NodeLocalStore, StoredBlob
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.neighbor import neighbor_of, neighbor_map
from repro.checkpoint.manager import (
    BACKENDS,
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
)
from repro.checkpoint.replicated import (
    CheckpointBackend,
    PfsCheckpointLib,
    ReplicatedCheckpointLib,
    make_checkpoint_lib,
    replica_holder_map,
)

__all__ = [
    "pack_checkpoint",
    "pack_checkpoint_into",
    "packed_size",
    "unpack_checkpoint",
    "CheckpointCorrupt",
    "CheckpointNotFound",
    "NodeLocalStore",
    "StoredBlob",
    "ParallelFileSystem",
    "neighbor_of",
    "neighbor_map",
    "BACKENDS",
    "CheckpointConfig",
    "CheckpointLib",
    "CheckpointManager",
    "CheckpointBackend",
    "PfsCheckpointLib",
    "ReplicatedCheckpointLib",
    "make_checkpoint_lib",
    "replica_holder_map",
]
