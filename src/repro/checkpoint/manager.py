"""The application-facing checkpoint library (paper Sect. IV-C, Fig. 2).

Usage from a rank's generator::

    lib = CheckpointLib(ctx, logical_rank=lrank, participants=workers)
    done = yield from lib.write_checkpoint(version, {"v_j": vj, "alpha": a})
    ...                         # compute continues; neighbor copy is async
    version, payload = yield from lib.read_checkpoint()   # on restart

The write path is the paper's neighbor node-level checkpointing (§IV-C /
Fig. 2; the C/R library of §V's overhead measurements): a synchronous
local-node checkpoint, then a signal to the world's
:class:`CheckpointManager`, whose round data plane mirrors the blob to the
neighbor node in the background (and, optionally, every ``pfs_every``-th
version to the PFS) — the role of the paper's per-rank helper thread.
Because the neighbor copy is asynchronous, the application only ever pays the local
write — the paper's ≈0.01 % checkpointing overhead.  ``refresh``
re-derives the neighbor after recovery (fault-aware placement);
``restorable_latest`` reports the newest version this rank could actually
restore, which the recovery protocol min-reduces across ranks to pick the
globally consistent restart point (the allreduce-MIN version agreement).

Parameter ↔ paper-symbol mapping:

==========================  ====================================================
parameter                   paper quantity
==========================  ====================================================
``config.local_bandwidth``  node-local store (ramdisk/SSD) write bandwidth —
                            sets the synchronous checkpoint cost
``config.keep_versions``    checkpoint versions retained per rank (2 in the
                            paper: current + previous, so a failure mid-write
                            always leaves a consistent older version)
``config.pfs_every``        §IV-C's optional every-k-th PFS copy (0 = off)
``version``                 the checkpoint counter the solver increments every
                            ``FTConfig.checkpoint_interval`` iterations
==========================  ====================================================

Restore cost is the paper's OHF3; tracer events (``repro.obs``):
``ckpt_write`` (synchronous local span), ``ckpt_mirror`` (async neighbor
span) and ``restore`` (read path, any source).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.sim import Event, Sleep, WaitEvent
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.checkpoint.neighbor import neighbor_map
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.serialization import (
    pack_checkpoint_into,
    packed_size,
    unpack_checkpoint,
)
from repro.checkpoint.store import (
    CheckpointNotFound,
    Key,
    NodeLocalStore,
    StoredBlob,
)

#: valid values of :attr:`CheckpointConfig.backend` (see ``CHECKPOINTS.md``)
BACKENDS = ("neighbor", "pfs", "replicated")


@dataclass
class CheckpointConfig:
    """Knobs of the checkpoint library (all three backends).

    ``backend`` selects the protection scheme behind the common
    ``CheckpointLib`` interface: ``"neighbor"`` is the paper's §IV-C
    node-level neighbor mirroring, ``"pfs"`` the classical parallel-file-
    system checkpoint it argues against, and ``"replicated"`` the
    ReStore-style in-memory replication of
    :mod:`repro.checkpoint.replicated` (checkpoints live in the memory of
    ``replication`` other ranks; arXiv:2203.01107).
    """

    tag: str = "ckpt"
    #: node-local store bandwidth (ramdisk/SSD), bytes/s
    local_bandwidth: float = 5.0e9
    #: how many versions to keep per (tag, logical rank)
    keep_versions: int = 2
    #: mirror every k-th version to the PFS (0 disables PFS copies)
    pfs_every: int = 0
    #: GASPI segment id of the mirror data plane's staging window; the
    #: neighbor copy ships through ``gaspi_write_list`` on this segment
    mirror_segment: int = 60
    #: staging window size (bytes); blobs larger than this stage a prefix
    #: while the time model still charges the full nominal size
    mirror_window: int = 64 * 1024
    #: which protection scheme backs the library (see :data:`BACKENDS`)
    backend: str = "neighbor"
    #: ReStore-style replication factor ``r``: how many replica holders
    #: receive each rank's packed checkpoint; tolerates up to ``r - 1``
    #: concurrent rank losses (FTHP-MPI's redundancy/MTTR knob)
    replication: int = 2
    #: GASPI segment id of the replicated backend's block landing window
    replica_segment: int = 61


class CheckpointLib:
    """Per-rank instance of the neighbor node-level C/R library."""

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        self.ctx = ctx
        self.machine = ctx.world.machine
        #: a rank's node never changes (a failed rank is replaced by a new
        #: library on a new context), so placement is resolved once
        self._my_node: int = self.machine.node_of(ctx.rank)
        self._local_store_obj = NodeLocalStore(self.machine.node(self._my_node))
        #: endpoints are registered once per rank and never replaced, so
        #: the liveness object can be resolved at construction
        self._endpoint_obj = ctx.world.transport.endpoint(ctx.rank)
        #: the simulator's tracer is fixed at launch (``obs.install`` runs
        #: before the world starts), so the property chain resolves once
        self._tracer = ctx.tracer
        self.logical_rank = logical_rank
        self.config = config or CheckpointConfig()
        self.pfs = pfs
        self.participants: Sequence[int] = _Members.intern(
            tuple(sorted(participants)))
        self.neighbor_rank: Optional[int] = None
        self._neighbor_node: Optional[int] = None
        self._neighbor_store_obj: Optional[NodeLocalStore] = None
        self.refresh(self.participants)
        # GASPI data plane for neighbor mirroring: own staging window plus
        # a dedicated queue, so mirror flushes never contend with the
        # application's queue 0 (the paper's library thread does the same).
        # Every rank's window has the same shape, so they share one pooled
        # arena allocation instead of one buffer per rank.
        if self.config.mirror_segment not in ctx.segments:
            ctx.segment_create_pooled(self.config.mirror_segment,
                                      self.config.mirror_window)
        self._mirror_queue = ctx.queue_create()
        self._mirror_queue_obj = ctx.queue(self._mirror_queue)
        self._mirror_seg_size = ctx.segment(self.config.mirror_segment).size
        #: round-mirror bookkeeping: the request currently in flight on the
        #: manager data plane, and those queued behind it (the per-library
        #: FIFO of the paper's helper thread)
        self._round_inflight: Optional["_MirrorRequest"] = None
        self._round_deferred: Deque["_MirrorRequest"] = deque()
        self.stats = {"local_writes": 0, "neighbor_copies": 0, "pfs_copies": 0,
                      "local_reads": 0, "remote_reads": 0, "pfs_reads": 0}

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    @property
    def my_node(self) -> int:
        return self._my_node

    def _store_of_node(self, node_id: int) -> NodeLocalStore:
        return NodeLocalStore(self.machine.node(node_id))

    def _local_store(self) -> NodeLocalStore:
        return self._local_store_obj

    def refresh(self, participants: Iterable[int]) -> None:
        """Fault-aware neighbor update after group reconstruction.

        The whole ring's map comes from the world manager's cached O(n)
        ``neighbor_map`` build: every library of the same participant set
        shares one map.
        """
        # participants are interned: every library of one team shares the
        # sorted tuple, its set (O(1) membership below) and its hash (the
        # manager's neighbor-map cache key)
        members = _Members.intern(tuple(sorted(participants)))
        self.participants = members
        if self.ctx.rank in members.member_set() and len(members) > 1:
            manager = CheckpointManager.of(self.ctx.world)
            self.neighbor_rank = manager.neighbor_map_for(
                members
            )[self.ctx.rank]
        else:
            self.neighbor_rank = None
        self._neighbor_node = (
            None if self.neighbor_rank is None
            else self.machine.node_of(self.neighbor_rank)
        )
        self._neighbor_store_obj = (
            None if self._neighbor_node is None
            else NodeLocalStore(self.machine.node(self._neighbor_node))
        )

    @property
    def neighbor_node(self) -> Optional[int]:
        return self._neighbor_node

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous local checkpoint + async neighbor signal.

        Returns an :class:`Event` that fires once the background neighbor
        (and PFS, if due) copy finished — the application does *not* have
        to wait on it.  The mirror rides the world-level
        :class:`CheckpointManager` round data plane, which coalesces every
        mirror signalled in the same tick into one vectorized-priced
        scatter round.
        """
        t0 = self.ctx.now
        manager = CheckpointManager.of(self.ctx.world)
        data = manager.pack_blob(payload)
        blob = StoredBlob(data=data, nominal_bytes=nominal_bytes or len(data))
        yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
        key = (self.config.tag, self.logical_rank, version)
        self._local_store().put_pruned(key, blob, self.config.keep_versions)
        self.stats["local_writes"] += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "ckpt_write",
                        dur=self.ctx.now - t0, version=version,
                        bytes=blob.nominal_bytes)
        mirrored = Event(name=f"ckpt-mirrored-{self.ctx.rank}-v{version}")
        manager.submit(self, key, blob, mirrored)
        return mirrored

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _candidate_nodes(self, extra_nodes: Sequence[int] = ()) -> List[int]:
        nodes: List[int] = [self.my_node]
        nodes.extend(extra_nodes)
        # my own neighbor may hold my blob from before a migration
        if self.neighbor_node is not None:
            nodes.append(self.neighbor_node)
        seen, ordered = set(), []
        for n in nodes:
            if n not in seen:
                seen.add(n)
                ordered.append(n)
        return ordered

    def restorable_latest(self, extra_nodes: Sequence[int] = ()) -> int:
        """Newest version this rank can restore from any source, or -1."""
        best = -1
        key_rank = self.logical_rank
        for node_id in self._candidate_nodes(extra_nodes):
            store = self._store_of_node(node_id)
            latest = store.latest_version(self.config.tag, key_rank)
            if latest is not None:
                best = max(best, latest)
        if self.pfs is not None:
            latest = self.pfs.latest_version(self.config.tag, key_rank)
            if latest is not None:
                best = max(best, latest)
        return best

    def has_local(self, version: int) -> bool:
        """Whether this rank's own node holds the version."""
        return self._local_store().has((self.config.tag, self.logical_rank, version))

    def _reprotect(self, key: Key, blob: StoredBlob):
        """Generator: re-establish local + neighbor copies after a remote
        restore (otherwise the *next* failure would find no local data)."""
        yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
        store = self._local_store()
        store.put_pruned(key, blob, self.config.keep_versions)
        self.stats["local_writes"] += 1
        CheckpointManager.of(self.ctx.world).submit(
            self, key, blob, Event(name=f"reprotect-{self.ctx.rank}"),
            reprotect=True,
        )

    def read_checkpoint(
        self, version: Optional[int] = None,
        extra_nodes: Sequence[int] = (),
        reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)``.

        Sources are tried in locality order: own node, the ``extra_nodes``
        the caller knows about (e.g. the failed process's node and its old
        neighbor), this rank's current neighbor, finally the PFS.  Raises
        :class:`CheckpointNotFound` when no source has the version.

        With ``reprotect`` (default), a version restored from a *remote*
        source is immediately written back to the local node and mirrored
        to the current neighbor, restoring the usual protection level.
        """
        if version is None:
            version = self.restorable_latest(extra_nodes)
            if version < 0:
                raise CheckpointNotFound(
                    f"no checkpoint for logical rank {self.logical_rank}"
                )
        key = (self.config.tag, self.logical_rank, version)
        t0 = self.ctx.now
        tracer = self._tracer
        for node_id in self._candidate_nodes(extra_nodes):
            store = self._store_of_node(node_id)
            if not store.has(key):
                continue
            if node_id != self.my_node and not self.machine.network.reachable(
                self.my_node, node_id
            ):
                continue
            blob = store.get(key)
            if node_id == self.my_node:
                yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
                self.stats["local_reads"] += 1
            else:
                yield Sleep(
                    self.machine.network.transfer_time(self.my_node, node_id, blob.nominal_bytes)
                )
                self.stats["remote_reads"] += 1
                if reprotect:
                    yield from self._reprotect(key, blob)
            if tracer.enabled:
                tracer.emit(self.ctx.now, self.ctx.rank, "restore",
                            dur=self.ctx.now - t0, version=version,
                            source=("local" if node_id == self.my_node
                                    else "neighbor"))
            self._record_restore(
                "local" if node_id == self.my_node else "neighbor",
                blob.nominal_bytes, self.ctx.now - t0,
            )
            return version, unpack_checkpoint(blob.data)
        if self.pfs is not None and self.pfs.has(key):
            blob = yield from self.pfs.read(key)
            self.stats["pfs_reads"] += 1
            if reprotect:
                yield from self._reprotect(key, blob)
            if tracer.enabled:
                tracer.emit(self.ctx.now, self.ctx.rank, "restore",
                            dur=self.ctx.now - t0, version=version,
                            source="pfs")
            self._record_restore("pfs", blob.nominal_bytes, self.ctx.now - t0)
            return version, unpack_checkpoint(blob.data)
        raise CheckpointNotFound(f"version {version} unavailable for {key}")

    def _record_restore(self, source: str, nbytes: int, elapsed: float) -> None:
        """Feed the world manager's per-phase restore totals (if attached)."""
        manager = CheckpointManager.maybe_of(self.ctx.world)
        if manager is not None:
            manager.record_restore(source, nbytes, elapsed)


@dataclass(slots=True)
class _MirrorRequest:
    """One rank's pending neighbor mirror on the round data plane."""

    manager: "CheckpointManager"
    lib: CheckpointLib
    key: "Key"
    blob: StoredBlob
    mirrored: Event
    #: a re-mirror after a remote restore: runs beside the library's FIFO
    #: and stays out of the mirror phase totals
    reprotect: bool = False
    t_start: float = 0.0
    neighbor_rank: Optional[int] = None
    node_id: Optional[int] = None
    expected: float = 0.0
    stage: int = 0
    segment: Optional[Any] = None
    store: Optional[NodeLocalStore] = None

    def apply(self) -> None:
        """Delivery callback: land the bytes, then the delivery epilogue.

        The remote window was resolved during flush classification; the
        blob snapshot is immutable, so slicing the staged prefix here is
        byte-identical to binding it at post time.  A writer that died
        mid-flight takes no completion actions.
        """
        stage = self.stage
        data = self.blob.data
        self.segment.write_view(0, stage)[:] = (
            data if stage == len(data) else memoryview(data)[:stage]
        )
        if self.lib._endpoint_obj.alive:
            self.manager._finish_delivery(self)

    def hang(self) -> None:
        """Arm the flush timeout lazily (only hung ops ever need it):
        purge the queue and report the failed mirror."""
        manager = self.manager
        manager.sim.schedule_at(
            self.t_start + (self.expected * 1.5 + 1.0),
            lambda: manager._on_timeout(self),
        )


@dataclass(slots=True)
class _ScatterRequest:
    """One rank's pending ReStore replica scatter (all ``r`` copies).

    The request completes — firing ``protected`` with the landed-copy
    count — once every copy either landed on its holder or failed
    (dead holder, severed path, flush timeout).
    """

    manager: "CheckpointManager"
    lib: Any  # ReplicatedCheckpointLib (import cycle: typed loosely)
    key: Key
    blob: StoredBlob
    protected: Event
    t_start: float = 0.0
    #: copies still in flight; the request finishes when this hits zero
    pending: int = 0
    #: copies that actually landed on a live holder
    landed: int = 0


@dataclass(slots=True)
class _ScatterCopy:
    """One replica copy of a :class:`_ScatterRequest` (one holder)."""

    request: _ScatterRequest
    holder_rank: int
    node_id: int
    expected: float = 0.0
    stage: int = 0
    segment: Optional[Any] = None

    def apply(self) -> None:
        """Delivery callback: land the staged bytes in the holder's
        replica window, then the landing epilogue (store + index)."""
        stage = self.stage
        data = self.request.blob.data
        self.segment.write_view(0, stage)[:] = (
            data if stage == len(data) else memoryview(data)[:stage]
        )
        if self.request.lib._endpoint_obj.alive:
            self.request.manager._land_copy(self)

    def hang(self) -> None:
        """Arm the scatter flush timeout lazily: purge the owner's
        scatter queue and count this copy as failed."""
        manager = self.request.manager
        manager.sim.schedule_at(
            self.request.t_start + (self.expected * 1.5 + 1.0),
            lambda: manager._on_scatter_timeout(self),
        )


class CheckpointManager:
    """World-level round-batched checkpoint mirror plane.

    One instance per :class:`~repro.gaspi.runtime.GaspiWorld` (attached
    lazily via :meth:`of`).  It is the asynchronous copy path of every
    checkpoint library — the paper's per-rank helper thread (Fig. 2) —
    run as whole-round batch operations:

    * **shared staging arena** — every blob of a round packs through one
      grown-geometrically buffer (one ``packed_size`` prefix-sum, one
      ``pack_checkpoint_into`` view per rank) instead of per-library
      staging copies;
    * **same-tick coalescing** — mirrors signalled within one simulated
      tick (each rank's ``write_checkpoint`` finishing its local write at
      the same instant) flush as *one* scatter round priced by a single
      vectorized :meth:`Network.transfer_time_round` call per direction
      (:meth:`Transport.post_rdma_scatter`), with per-op path re-checks at
      delivery, per-op hang/timeout/purge semantics, per-library FIFO
      ordering of back-to-back mirrors, and due PFS copies launched as
      per-rank processes that die with their writer;
    * **cached neighbor maps** — the O(n) ``ring_neighbors`` kernel builds
      each participant set's full map once; every library refresh against
      the same set is a dict lookup;
    * **phase totals** — mirror and restore bytes/latency accumulated for
      the ``recovery_compare`` experiment's per-phase reporting.
    """

    _ATTR = "_checkpoint_manager"

    def __init__(self, world: Any) -> None:
        self.world = world
        self.sim = world.sim
        self.machine = world.machine
        self.transport = world.transport
        #: bound reachability check (the network object never changes)
        self._reachable: Callable[[int, int], bool] = (
            world.machine.network.reachable
        )
        #: node-local store views, one per node (nodes never move)
        self._stores: Dict[int, NodeLocalStore] = {}
        #: shared pack arena, grown geometrically and never shrunk
        self._arena = bytearray()
        #: requests accumulated in the current tick, flushed as one round
        self._pending: List[_MirrorRequest] = []
        self._sealed = False
        #: replica scatters accumulated in the current tick (the ReStore
        #: backend's analogue of ``_pending``, flushed as one round)
        self._scatter_pending: List[_ScatterRequest] = []
        self._scatter_sealed = False
        #: participant-tuple -> {rank: neighbor} map cache (tiny LRU; a
        #: run only ever sees a handful of participant sets)
        self._neighbor_maps: "OrderedDict[Tuple[int, ...], Dict[int, Optional[int]]]" = OrderedDict()
        #: (participant-tuple, r) -> {rank: [holders]} placement cache for
        #: the replicated backend (same tiny-LRU policy)
        self._replica_maps: "OrderedDict[Tuple[Tuple[int, ...], int], Dict[int, List[int]]]" = OrderedDict()
        #: replica location index: where each replicated checkpoint
        #: *actually* landed (keys are the un-namespaced ``(tag, logical,
        #: version)``).  Reads consult this instead of re-deriving
        #: placement, so holder-map drift after a recovery cannot orphan
        #: blobs that are still alive on their original holders.
        self._replica_sets: Dict[Key, List[int]] = {}
        #: (tag, logical rank) -> sorted versions ever replicated
        self._replica_versions: Dict[Tuple[str, int], List[int]] = {}
        #: per-phase checkpoint-plane totals (bytes / virtual seconds)
        self.phase_totals: Dict[str, float] = {
            "mirror_ops": 0, "mirror_bytes": 0, "mirror_s": 0.0,
            "scatter_ops": 0, "scatter_bytes": 0, "scatter_s": 0.0,
            "restore_ops": 0, "restore_bytes": 0, "restore_s": 0.0,
            "restore_local_ops": 0, "restore_neighbor_ops": 0,
            "restore_pfs_ops": 0, "restore_replicated_ops": 0,
        }

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, world: Any) -> "CheckpointManager":
        """The world's manager, created on first use."""
        manager = getattr(world, cls._ATTR, None)
        if manager is None:
            manager = cls(world)
            setattr(world, cls._ATTR, manager)
        return manager

    @classmethod
    def maybe_of(cls, world: Any) -> Optional["CheckpointManager"]:
        """The world's manager if one was ever attached, else ``None``."""
        manager: Optional[CheckpointManager] = getattr(world, cls._ATTR, None)
        return manager

    # ------------------------------------------------------------------
    # shared staging arena
    # ------------------------------------------------------------------
    def _reserve(self, total: int) -> memoryview:
        if len(self._arena) < total:
            self._arena = bytearray(max(total, 2 * len(self._arena)))
        return memoryview(self._arena)

    def pack_blob(self, payload: Dict[str, np.ndarray]) -> bytes:
        """Pack one payload through the shared arena (stored snapshot out).

        The zero-copy pack writes straight into the arena (one byte move +
        streaming CRC); every library of the world shares one warm buffer.
        The returned ``bytes`` is the immutable snapshot the node store
        keeps — it must not alias the arena, which the next pack reuses.
        """
        size = packed_size(payload)
        arena = self._reserve(size)
        pack_checkpoint_into(payload, arena)
        return bytes(arena[:size])

    def pack_round(
        self, payloads: Sequence[Dict[str, np.ndarray]]
    ) -> List[bytes]:
        """Pack a whole round of payloads through the arena at once.

        One ``packed_size`` pass and one prefix-sum lay every rank's blob
        out back-to-back; each packs via a ``pack_checkpoint_into`` view at
        its offset.  Returns the per-rank immutable snapshots (the node
        stores keep those; the arena is reused next round).
        """
        n = len(payloads)
        sizes = np.fromiter(
            (packed_size(p) for p in payloads), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        arena = self._reserve(int(offsets[-1]))
        out: List[bytes] = []
        for payload, off, size in zip(
            payloads, offsets[:-1].tolist(), sizes.tolist()
        ):
            pack_checkpoint_into(payload, arena, offset=off, size=size)
            out.append(bytes(arena[off:off + size]))
        return out

    # ------------------------------------------------------------------
    # neighbor map cache
    # ------------------------------------------------------------------
    def neighbor_map_for(
        self, participants: Tuple[int, ...]
    ) -> Dict[int, Optional[int]]:
        """The full mirror-partner map of a (sorted) participant set.

        Built once per distinct set with the O(n) vectorized kernel; each
        entry equals ``neighbor_of(rank, participants, node_of)``.
        """
        cached = self._neighbor_maps.get(participants)
        if cached is None:
            cached = neighbor_map(participants, self.machine.node_of)
            self._neighbor_maps[participants] = cached
            while len(self._neighbor_maps) > 8:
                self._neighbor_maps.popitem(last=False)
        else:
            self._neighbor_maps.move_to_end(participants)
        return cached

    def replica_map_for(
        self, participants: Tuple[int, ...], r: int
    ) -> Dict[int, List[int]]:
        """The full replica-holder map of a (sorted) participant set.

        Built once per distinct ``(set, r)`` with the vectorized placement
        kernel; each entry equals ``replica_holders(rank, participants,
        node_of, r)`` (no holder on the owner's node or its mirror
        neighbor's node — see ``CHECKPOINTS.md``).
        """
        # local import: replicated.py imports this module at its top level
        from repro.checkpoint.replicated import replica_holder_map

        cache_key = (participants, r)
        cached = self._replica_maps.get(cache_key)
        if cached is None:
            cached = replica_holder_map(participants, self.machine.node_of, r)
            self._replica_maps[cache_key] = cached
            while len(self._replica_maps) > 8:
                self._replica_maps.popitem(last=False)
        else:
            self._replica_maps.move_to_end(cache_key)
        return cached

    def _store(self, node_id: int) -> NodeLocalStore:
        store = self._stores.get(node_id)
        if store is None:
            store = NodeLocalStore(self.machine.node(node_id))
            self._stores[node_id] = store
        return store

    # ------------------------------------------------------------------
    # replica location index (ReStore backend)
    # ------------------------------------------------------------------
    def record_replica(self, key: Key, holder_rank: int) -> None:
        """Record that ``holder_rank`` landed a replica of ``key``."""
        holders = self._replica_sets.setdefault(key, [])
        if holder_rank not in holders:
            holders.append(holder_rank)
        versions = self._replica_versions.setdefault((key[0], key[1]), [])
        if key[2] not in versions:
            insort(versions, key[2])

    def replica_holders_of(self, key: Key) -> List[int]:
        """Ranks recorded as holding a replica of ``key`` (may be dead)."""
        return list(self._replica_sets.get(key, ()))

    def replica_versions(self, tag: str, logical_rank: int) -> List[int]:
        """Sorted versions ever replicated for ``(tag, logical_rank)``."""
        return list(self._replica_versions.get((tag, logical_rank), ()))

    # ------------------------------------------------------------------
    # round data plane
    # ------------------------------------------------------------------
    def submit(self, lib: CheckpointLib, key: "Key", blob: StoredBlob,
               mirrored: Event, reprotect: bool = False) -> None:
        """Register one rank's mirror request (the helper-signal analogue).

        Requests submitted in the same tick coalesce into one flush round;
        a request for a library whose previous mirror is still in flight
        queues behind it (per-library FIFO).  A ``reprotect`` request — a
        re-mirror after a remote restore — runs beside that FIFO without
        queuing and is not counted in the mirror phase totals.
        """
        request = _MirrorRequest(self, lib, key, blob, mirrored, reprotect)
        if not reprotect:
            if lib._round_inflight is not None:
                lib._round_deferred.append(request)
                return
            lib._round_inflight = request
        self._enqueue(request)

    def _enqueue(self, request: _MirrorRequest) -> None:
        self._pending.append(request)
        if not self._sealed:
            self._sealed = True
            self.sim.schedule(0.0, self._flush)

    def _flush(self) -> None:
        """Close the tick's round and drive every mirror to completion.

        Neighborless requests resolve immediately; requests whose transfer
        is only modeled (missing remote mirror segment, empty staging
        window, or a full mirror queue) complete after their expected
        transfer time; the rest ship as one scatter round on each
        library's dedicated mirror queue, land at delivery+ack with the
        path re-checked there, and a severed path leaves the op hung until
        the flush timeout purges the queue.  A writer that died mid-flight
        takes no completion actions.
        """
        requests, self._pending, self._sealed = self._pending, [], False
        sim = self.sim
        now = sim.now
        live: List[_MirrorRequest] = []
        for request in requests:
            lib = request.lib
            request.t_start = now
            request.neighbor_rank = lib.neighbor_rank
            request.node_id = lib._neighbor_node
            request.store = lib._neighbor_store_obj
            if request.node_id is None:
                self._finish(request, copied=False)
            else:
                live.append(request)
        if not live:
            return
        n = len(live)
        network = self.machine.network
        src_nodes = np.fromiter(
            (r.lib._my_node for r in live), dtype=np.int64, count=n
        )
        dst_nodes = np.fromiter(
            (r.node_id for r in live), dtype=np.int64, count=n
        )
        nominal = np.fromiter(
            (r.blob.nominal_bytes for r in live), dtype=np.int64, count=n
        )
        expected = network.transfer_time_round(src_nodes, dst_nodes, nominal)
        expected_list = expected.tolist()
        contexts = self.world.contexts
        modeled: List[_MirrorRequest] = []
        modeled_t = []
        wired: List[_MirrorRequest] = []
        for j, request in enumerate(live):
            request.expected = expected_list[j]
            lib = request.lib
            segment = contexts[request.neighbor_rank].segments.find(
                lib.config.mirror_segment
            )
            stage = min(len(request.blob.data), lib._mirror_seg_size)
            if (segment is None or stage == 0
                    or lib._mirror_queue_obj.full):
                # nothing to ship into, or QUEUE_FULL: the copy is only
                # modeled — delivered after its expected transfer time
                modeled.append(request)
                modeled_t.append(sim.now + request.expected)
                continue
            request.stage = stage
            request.segment = segment
            wired.append(request)
        if modeled:
            t_arr = np.asarray(modeled_t, dtype=np.float64)
            for t_val in np.unique(t_arr).tolist():
                group = [modeled[i] for i in np.nonzero(t_arr == t_val)[0]]

                def finish_modeled(group: List[_MirrorRequest] = group) -> None:
                    for request in group:
                        if request.lib._endpoint_obj.alive:
                            self._finish_delivery(request)

                sim.schedule_at(t_val, finish_modeled)
        if wired:
            self._post_wired(wired)

    def _post_wired(self, wired: List[_MirrorRequest]) -> None:
        transport = self.world.transport
        srcs: List[int] = []
        dsts: List[Optional[int]] = []
        sizes: List[int] = []
        write_counts: List[int] = []
        apply_fns: List[Callable[[], Any]] = []
        hang_fns: List[Callable[[], None]] = []
        for request in wired:
            srcs.append(request.lib.ctx.rank)
            dsts.append(request.neighbor_rank)
            sizes.append(request.blob.nominal_bytes)
            # the staged prefix travels as <= 8 list entries; rdma_writes
            # counts the entries
            chunk = max(1, (request.stage + 7) // 8)
            write_counts.append(-(-request.stage // chunk))
            apply_fns.append(request.apply)
            hang_fns.append(request.hang)
        events = transport.post_rdma_scatter(
            srcs, dsts, sizes, apply_fns, hang_fns, write_counts
        )
        for request, event in zip(wired, events):
            request.lib._mirror_queue_obj.post(event)

    def _on_timeout(self, request: _MirrorRequest) -> None:
        if not request.lib._endpoint_obj.alive:
            return
        request.lib.ctx.queue_purge(request.lib._mirror_queue)
        self._finish(request, copied=False)

    def _finish_delivery(self, request: _MirrorRequest) -> None:
        """Post-transfer bookkeeping: store the copy if it can land."""
        lib = request.lib
        node_id = request.node_id
        store = request.store
        copied = False
        if store.available and self._reachable(lib._my_node, node_id):
            now = self.sim.now
            store.put_pruned(request.key, request.blob,
                             lib.config.keep_versions)
            lib.stats["neighbor_copies"] += 1
            copied = True
            tracer = lib._tracer
            if tracer.enabled:
                tracer.emit(now, lib.ctx.rank, "ckpt_mirror",
                            dur=now - request.t_start,
                            version=request.key[2], node=node_id)
            if not request.reprotect:
                totals = self.phase_totals
                totals["mirror_ops"] += 1
                totals["mirror_bytes"] += request.blob.nominal_bytes
                totals["mirror_s"] += now - request.t_start
        self._finish(request, copied)

    def _finish(self, request: _MirrorRequest, copied: bool) -> None:
        """Close a mirror: write the PFS copy first when the version is due."""
        lib = request.lib
        every = lib.config.pfs_every
        if lib.pfs is not None and every > 0 and request.key[2] % every == 0:
            lib.ctx.world.launch(lib.ctx.rank, self._pfs_copy(request, copied),
                                 name=f"ckpt-pfs-{lib.ctx.rank}")
            return
        self._complete(request, copied)

    def _pfs_copy(self, request: _MirrorRequest,
                  copied: bool) -> Generator[Any, Any, None]:
        """Generator: the due PFS copy, run as a process of the writer's
        rank so a writer killed mid-copy leaves no PFS blob."""
        lib = request.lib
        yield from lib.pfs.write(request.key, request.blob)
        lib.stats["pfs_copies"] += 1
        self._complete(request, copied)

    def _complete(self, request: _MirrorRequest, copied: bool) -> None:
        """Fire ``mirrored`` and release the library's next queued mirror."""
        request.mirrored.succeed(copied)
        lib = request.lib
        if lib._round_inflight is request:
            lib._round_inflight = None
            if lib._round_deferred:
                nxt = lib._round_deferred.popleft()
                lib._round_inflight = nxt
                self._enqueue(nxt)

    # ------------------------------------------------------------------
    # replica scatter plane (ReStore backend)
    # ------------------------------------------------------------------
    def submit_scatter(self, lib: Any, key: Key, blob: StoredBlob,
                       protected: Event) -> None:
        """Register one rank's replica scatter (ReStore commit).

        Scatters submitted in the same tick coalesce into one round priced
        by a single ``transfer_time_round`` call over *all* copies; a
        scatter for a library whose previous scatter is still in flight
        queues behind it (same FIFO discipline as the mirror plane).
        """
        request = _ScatterRequest(self, lib, key, blob, protected)
        if lib._repl_inflight is not None:
            lib._repl_deferred.append(request)
            return
        lib._repl_inflight = request
        self._scatter_pending.append(request)
        if not self._scatter_sealed:
            self._scatter_sealed = True
            self.sim.schedule(0.0, self._flush_scatter)

    def _flush_scatter(self) -> None:
        """Close the tick's scatter round, one copy per (owner, holder).

        Classification per copy mirrors :meth:`_flush`: a holder without
        the replica segment, an empty staging prefix, or a full scatter
        queue is only modeled (completes after its expected transfer
        time); the rest ship as one ``post_rdma_scatter`` on the owner's
        dedicated scatter queue, with per-copy path re-checks at landing
        and hang/timeout/purge semantics for severed paths.  An owner that
        died mid-flight takes no completion actions.
        """
        requests: List[_ScatterRequest]
        requests, self._scatter_pending, self._scatter_sealed = (
            self._scatter_pending, [], False
        )
        sim = self.sim
        now = sim.now
        node_of = self.machine.node_of
        copies: List[_ScatterCopy] = []
        for request in requests:
            request.t_start = now
            holders: List[int] = list(request.lib.replica_ranks)
            if not holders:
                # no holders placeable (e.g. every other node excluded):
                # the commit completes immediately, zero copies landed
                self._finish_scatter(request)
                continue
            request.pending = len(holders)
            copies.extend(
                _ScatterCopy(request, holder, node_of(holder))
                for holder in holders
            )
        if not copies:
            return
        n = len(copies)
        network = self.machine.network
        src_nodes = np.fromiter(
            (c.request.lib._my_node for c in copies), dtype=np.int64, count=n
        )
        dst_nodes = np.fromiter(
            (c.node_id for c in copies), dtype=np.int64, count=n
        )
        nominal = np.fromiter(
            (c.request.blob.nominal_bytes for c in copies),
            dtype=np.int64, count=n,
        )
        expected = network.transfer_time_round(src_nodes, dst_nodes, nominal)
        expected_list = expected.tolist()
        contexts = self.world.contexts
        modeled: List[_ScatterCopy] = []
        modeled_t = []
        wired: List[_ScatterCopy] = []
        for j, copy in enumerate(copies):
            copy.expected = expected_list[j]
            lib = copy.request.lib
            segment = contexts[copy.holder_rank].segments.find(
                lib.config.replica_segment
            )
            stage = min(len(copy.request.blob.data), lib._replica_seg_size)
            if (segment is None or stage == 0
                    or lib._scatter_queue_obj.full):
                modeled.append(copy)
                modeled_t.append(now + copy.expected)
                continue
            copy.stage = stage
            copy.segment = segment
            wired.append(copy)
        if modeled:
            t_arr = np.asarray(modeled_t, dtype=np.float64)
            for t_val in np.unique(t_arr).tolist():
                group = [modeled[i] for i in np.nonzero(t_arr == t_val)[0]]

                def land_modeled(group: List[_ScatterCopy] = group) -> None:
                    for copy in group:
                        if copy.request.lib._endpoint_obj.alive:
                            self._land_copy(copy)

                sim.schedule_at(t_val, land_modeled)
        if wired:
            self._post_scatter_wired(wired)

    def _post_scatter_wired(self, wired: List[_ScatterCopy]) -> None:
        transport = self.world.transport
        srcs: List[int] = []
        dsts: List[Optional[int]] = []
        sizes: List[int] = []
        write_counts: List[int] = []
        apply_fns: List[Callable[[], Any]] = []
        hang_fns: List[Callable[[], None]] = []
        for copy in wired:
            srcs.append(copy.request.lib.ctx.rank)
            dsts.append(copy.holder_rank)
            sizes.append(copy.request.blob.nominal_bytes)
            # same <= 8 list-entry chunking as the read path, for
            # identical rdma op statistics
            chunk = max(1, (copy.stage + 7) // 8)
            write_counts.append(-(-copy.stage // chunk))
            apply_fns.append(copy.apply)
            hang_fns.append(copy.hang)
        events = transport.post_rdma_scatter(
            srcs, dsts, sizes, apply_fns, hang_fns, write_counts
        )
        for copy, event in zip(wired, events):
            copy.request.lib._scatter_queue_obj.post(event)

    def _on_scatter_timeout(self, copy: _ScatterCopy) -> None:
        request = copy.request
        lib = request.lib
        if not lib._endpoint_obj.alive:
            return
        lib.ctx.queue_purge(lib._scatter_queue)
        lib.stats["failed_copies"] += 1
        request.pending -= 1
        if request.pending == 0:
            self._finish_scatter(request)

    def _land_copy(self, copy: _ScatterCopy) -> None:
        """Landing epilogue of one replica copy: store + location index.

        The copy only counts when the holder process is alive, its node
        is up, and the path from the owner is intact — ReStore's
        in-memory-of-another-process semantics: a dead holder process
        loses the replica even if its node survived.
        """
        request = copy.request
        lib = request.lib
        now = self.sim.now
        store = self._store(copy.node_id)
        if (self.transport.endpoint(copy.holder_rank).alive
                and store.available
                and self._reachable(lib._my_node, copy.node_id)):
            key = request.key
            store.put_pruned(("repl:" + key[0], key[1], key[2]),
                             request.blob, lib.config.keep_versions)
            self.record_replica(key, copy.holder_rank)
            lib.stats["replica_copies"] += 1
            request.landed += 1
            tracer = lib._tracer
            if tracer.enabled:
                tracer.emit(now, lib.ctx.rank, "ckpt_scatter",
                            dur=now - request.t_start, version=key[2],
                            holder=copy.holder_rank, node=copy.node_id)
            totals = self.phase_totals
            totals["scatter_ops"] += 1
            totals["scatter_bytes"] += request.blob.nominal_bytes
            totals["scatter_s"] += now - request.t_start
        else:
            lib.stats["failed_copies"] += 1
        request.pending -= 1
        if request.pending == 0:
            self._finish_scatter(request)

    def _finish_scatter(self, request: _ScatterRequest) -> None:
        request.protected.succeed(request.landed)
        lib = request.lib
        lib._repl_inflight = None
        if lib._repl_deferred:
            nxt = lib._repl_deferred.popleft()
            lib._repl_inflight = nxt
            self._scatter_pending.append(nxt)
            if not self._scatter_sealed:
                self._scatter_sealed = True
                self.sim.schedule(0.0, self._flush_scatter)

    # ------------------------------------------------------------------
    # whole-round commit (the coordinator API)
    # ------------------------------------------------------------------
    def commit_round(
        self,
        libs: Mapping[int, CheckpointLib],
        version: int,
        payloads: Mapping[int, Dict[str, np.ndarray]],
        nominal_bytes: Union[int, Mapping[int, int], None] = None,
    ) -> Generator[Any, Any, Dict[int, Event]]:
        """Generator: commit one checkpoint round for many ranks at once.

        Equivalent to every rank in ``payloads`` calling its library's
        ``write_checkpoint(version, payload)`` in the same tick — same
        store contents, stats, tracer events and virtual timestamps — but
        driven by one coordinator: a single arena :meth:`pack_round`, one
        grouped callback per distinct local-write duration, and the
        manager's round mirror plane.  Returns ``{rank: mirrored_event}``
        once the *synchronous* part (every rank's local write) finished;
        the mirrors complete in the background as for
        ``write_checkpoint``.  A rank that dies before its local write
        completes takes no actions, like its killed generator wouldn't.
        """
        ranks = sorted(payloads)
        sim = self.sim
        t0 = sim.now
        blobs = self.pack_round([payloads[r] for r in ranks])
        if isinstance(nominal_bytes, int):
            flat_nominal: Optional[int] = nominal_bytes
            nominal_map: Optional[Mapping[int, int]] = None
        else:
            flat_nominal = None
            nominal_map = nominal_bytes
        items: List[Tuple[CheckpointLib, "Key", StoredBlob, Event]] = []
        mirrors: Dict[int, Event] = {}
        durations = np.empty(len(ranks), dtype=np.float64)
        for i, (rank, data) in enumerate(zip(ranks, blobs)):
            lib = libs[rank]
            if flat_nominal is not None:
                nom = flat_nominal
            elif nominal_map is not None:
                nom = nominal_map.get(rank) or len(data)
            else:
                nom = len(data)
            blob = StoredBlob(data=data, nominal_bytes=nom)
            key = (lib.config.tag, lib.logical_rank, version)
            # event names are diagnostic only: a constant name keeps the
            # per-rank construction cost flat without changing observables
            mirrored = Event(name="ckpt-mirrored")
            mirrors[rank] = mirrored
            items.append((lib, key, blob, mirrored))
            durations[i] = nom / lib.config.local_bandwidth
        t_local = t0 + durations

        def local_done(idxs: List[int]) -> None:
            for i in idxs:
                lib, key, blob, mirrored = items[i]
                if not lib._endpoint_obj.alive:
                    continue
                store = lib._local_store_obj
                store.put_pruned(key, blob, lib.config.keep_versions)
                lib.stats["local_writes"] += 1
                tracer = lib._tracer
                if tracer.enabled:
                    tracer.emit(sim.now, lib.ctx.rank, "ckpt_write",
                                dur=sim.now - t0, version=version,
                                bytes=blob.nominal_bytes)
                self.submit(lib, key, blob, mirrored)

        for t_val in np.unique(t_local).tolist():
            idxs = np.nonzero(t_local == t_val)[0].tolist()
            sim.schedule_at(t_val, lambda idxs=idxs: local_done(idxs))

        committed = Event(name="ckpt-round")
        sim.schedule_at(float(t_local.max()) if len(items) else t0,
                        lambda: committed.succeed(None))
        yield WaitEvent(committed)  # ftlint: disable=FT001 -- committed fires unconditionally at the round's max local-write time; no remote peer involved
        return mirrors

    # ------------------------------------------------------------------
    # phase totals
    # ------------------------------------------------------------------
    def record_restore(self, source: str, nbytes: int,
                       elapsed: float) -> None:
        """Accumulate one restore into the per-phase totals."""
        totals = self.phase_totals
        totals["restore_ops"] += 1
        totals["restore_bytes"] += nbytes
        totals["restore_s"] += elapsed
        key = f"restore_{source}_ops"
        if key in totals:
            totals[key] += 1
