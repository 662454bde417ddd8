"""The application-facing checkpoint library (paper Sect. IV-C, Fig. 2).

Usage from a rank's generator::

    lib = CheckpointLib(ctx, logical_rank=lrank, participants=workers)
    done = yield from lib.write_checkpoint(version, {"v_j": vj, "alpha": a})
    ...                         # compute continues; neighbor copy is async
    version, payload = yield from lib.read_checkpoint()   # on restart

The write path is the paper's neighbor node-level checkpointing (§IV-C /
Fig. 2; the C/R library of §V's overhead measurements): a synchronous
local-node checkpoint, then a signal to the world's
:class:`CheckpointManager`, whose copy pipeline mirrors the blob to its one
holder, the neighbor node, in the background — the role of the paper's
per-rank helper thread.
Because the neighbor copy is asynchronous, the application only ever pays the local
write — the paper's ≈0.01 % checkpointing overhead.  ``refresh``
re-derives the neighbor after recovery (fault-aware placement);
``restorable_latest`` reports the newest version this rank could actually
restore — from its own node or any reachable node the manager recorded
as storing its blobs, so a rescue finds its predecessor's copies by
itself — which the recovery protocol min-reduces across ranks to pick
the globally consistent restart point (the allreduce-MIN version
agreement).

Parameter ↔ paper-symbol mapping:

==========================  ====================================================
parameter                   paper quantity
==========================  ====================================================
:data:`LOCAL_BANDWIDTH`     node-local store (ramdisk/SSD) write bandwidth —
                            sets the synchronous checkpoint cost
``config.keep_versions``    checkpoint versions retained per rank (2 in the
                            paper: current + previous, so a failure mid-write
                            always leaves a consistent older version)
``version``                 the checkpoint counter the solver increments every
                            ``FTConfig.checkpoint_interval`` iterations
==========================  ====================================================

Restore cost is the paper's OHF3; tracer events (``repro.obs``):
``ckpt_write`` (synchronous local span), ``ckpt_mirror`` (async neighbor
span) and ``restore`` (read path, any source).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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
)

import numpy as np

from repro.sim import Event, Sleep, WaitEvent
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.placement import neighbor_map, replica_holder_map
from repro.checkpoint.serialization import pack_checkpoint, unpack_checkpoint
from repro.checkpoint.store import (
    CheckpointNotFound,
    Key,
    NodeLocalStore,
    StoredBlob,
)

#: valid values of :attr:`CheckpointConfig.backend` (see ``CHECKPOINTS.md``)
BACKENDS = ("neighbor", "pfs", "replicated")

#: node-local store bandwidth (ramdisk/SSD), bytes/s: prices every local
#: checkpoint write and read
LOCAL_BANDWIDTH = 5.0e9


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
    #: how many versions to keep per (tag, logical rank)
    keep_versions: int = 2
    #: which protection scheme backs the library (see :data:`BACKENDS`)
    backend: str = "neighbor"
    #: ReStore-style replication factor ``r``: how many replica holders
    #: receive each rank's packed checkpoint; tolerates up to ``r - 1``
    #: concurrent rank losses (FTHP-MPI's redundancy/MTTR knob)
    replication: int = 2


class _CopySource:
    """Plumbing of the libraries whose checkpoints the world's
    :class:`CheckpointManager` copies to other ranks (the neighbor and
    replicated backends).

    A subclass supplies what differs between the two schemes: placement
    (``refresh`` sets ``holders``, the ``(rank, node)`` pairs each
    checkpoint is copied to) and the landing rule (``land``, one copy's
    epilogue).  It defines its own ``write_checkpoint``/``read_checkpoint``.
    """

    holders: List[Tuple[int, int]]

    def __init__(self, ctx: GaspiContext, logical_rank: int,
                 participants: Iterable[int],
                 config: CheckpointConfig) -> None:
        self.ctx = ctx
        self.machine = ctx.world.machine
        #: a rank's node never changes (a failed rank is replaced by a new
        #: library on a new context), so placement is resolved once
        self._my_node: int = self.machine.node_of(ctx.rank)
        #: endpoints are registered once per rank and never replaced, so
        #: the liveness object can be resolved at construction
        self._endpoint_obj = ctx.world.transport.endpoint(ctx.rank)
        #: the simulator's tracer is fixed at launch (``obs.install`` runs
        #: before the world starts), so the property chain resolves once
        self._tracer = ctx.tracer
        self._manager = CheckpointManager.of(ctx.world)
        self.logical_rank = logical_rank
        self.config = config
        self.refresh(participants)
        # copies ride a dedicated queue, so they never contend with the
        # application's queue 0 (the paper's library thread does the same)
        self._copy_queue = ctx.queue_create()
        self._copy_queue_obj = ctx.queue(self._copy_queue)
        #: the per-library FIFO of the paper's helper thread: the copy
        #: request in flight on the manager's plane, and those behind it
        self._inflight: Optional[_CopyRequest] = None
        self._deferred: Deque[_CopyRequest] = deque()

    @property
    def my_node(self) -> int:
        return self._my_node

    def refresh(self, participants: Iterable[int]) -> None:
        raise NotImplementedError

    def land(self, copy: "_Copy") -> bool:
        raise NotImplementedError


class CheckpointLib(_CopySource):
    """Per-rank instance of the neighbor node-level C/R library: a
    one-holder placement (the next foreign node) over the manager's copy
    pipeline."""

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
    ) -> None:
        super().__init__(ctx, logical_rank, participants,
                         config or CheckpointConfig())

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def refresh(self, participants: Iterable[int]) -> None:
        """Fault-aware neighbor update after group reconstruction.

        The whole ring's map comes from the world manager's cached O(n)
        ``neighbor_map`` build: every library of the same participant set
        shares one map.
        """
        # participants are interned: every library of one team shares the
        # sorted tuple, its set (O(1) membership below) and its hash (the
        # manager's neighbor-map cache key); a team's membership already
        # is one, so only other callers pay for the sort
        members = _Members.of(participants)
        neighbor = None
        if self.ctx.rank in members.member_set() and len(members) > 1:
            neighbor = self._manager.neighbor_map_for(members)[self.ctx.rank]
        self.holders = ([] if neighbor is None
                        else [(neighbor, self.machine.node_of(neighbor))])

    def land(self, copy: "_Copy") -> bool:
        """Landing rule: the mirror lands on the neighbor's node store if
        that node is up and reachable.  A reprotect's re-mirror stays out
        of the mirror phase totals."""
        manager = self._manager
        node_id = copy.node_id
        if not (manager.store(node_id).available
                and manager.reachable(self._my_node, node_id)):
            return False
        request = copy.request
        manager.put(node_id, request.key, request.blob,
                    self.config.keep_versions)
        now = manager.sim.now
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, self.ctx.rank, "ckpt_mirror",
                        dur=now - request.t_start, version=request.key[2],
                        node=node_id)
        if not request.reprotect:
            manager.count_copy("mirror", request, now)
        return True

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous local checkpoint + async neighbor signal.

        Returns an :class:`Event` that fires with the landed-copy count
        (0 or 1) once the background neighbor copy finished — the
        application does *not* have to wait on it.  The mirror rides the
        world-level :class:`CheckpointManager` copy pipeline, which
        coalesces every copy signalled in the same tick into one
        vectorized-priced scatter round.
        """
        t0 = self.ctx.now
        manager = self._manager
        blob = manager.pack_blob(payload, nominal_bytes)
        yield Sleep(blob.nominal_bytes / LOCAL_BANDWIDTH)
        key = (self.config.tag, self.logical_rank, version)
        manager.put(self._my_node, key, blob, self.config.keep_versions)
        mirrored = Event(name=f"ckpt-mirrored-{self.ctx.rank}-v{version}")
        manager.local_written(self, key, blob, t0, mirrored)
        return mirrored

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _source_nodes(self) -> List[int]:
        """Nodes this rank can read its blobs from: its own node, then the
        manager's recorded nodes — a rescue's include its predecessor's
        node and mirrors — with unreachable ones dropped, so
        ``restorable_latest`` only offers what ``read_checkpoint`` can
        read."""
        my_node = self._my_node
        reachable = self._manager.reachable
        return [my_node, *(
            n for n in self._manager.locations(self.config.tag,
                                               self.logical_rank)
            if n != my_node and reachable(my_node, n))]

    def restorable_latest(self) -> int:
        """Newest version this rank can restore from any source, or -1."""
        best = -1
        tag, key_rank = self.config.tag, self.logical_rank
        for node_id in self._source_nodes():
            latest = self._manager.store(node_id).latest_version(tag, key_rank)
            if latest is not None:
                best = max(best, latest)
        return best

    def _reprotect(self, key: Key, blob: StoredBlob):
        """Generator: re-establish local + neighbor copies after a remote
        restore (otherwise the *next* failure would find no local data)."""
        yield Sleep(blob.nominal_bytes / LOCAL_BANDWIDTH)
        self._manager.put(self._my_node, key, blob, self.config.keep_versions)
        self._manager.submit(
            self, key, blob, Event(name=f"reprotect-{self.ctx.rank}"),
            reprotect=True,
        )

    def read_checkpoint(
        self, version: Optional[int] = None, reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)``.

        Sources are tried own node first, then the recorded nodes (see
        :meth:`_source_nodes`).  Raises :class:`CheckpointNotFound` when
        no source has the version.

        With ``reprotect`` (default), a version restored from a *remote*
        source is immediately written back to the local node and mirrored
        to the current neighbor, restoring the usual protection level.
        """
        if version is None:
            version = self.restorable_latest()
            if version < 0:
                raise CheckpointNotFound(
                    f"no checkpoint for logical rank {self.logical_rank}"
                )
        key = (self.config.tag, self.logical_rank, version)
        t0 = self.ctx.now
        for node_id in self._source_nodes():
            store = self._manager.store(node_id)
            if not store.has(key):
                continue
            blob = store.get(key)
            if node_id == self.my_node:
                yield Sleep(blob.nominal_bytes / LOCAL_BANDWIDTH)
                source = "local"
            else:
                yield Sleep(self.machine.network.transfer_time(
                    self.my_node, node_id, blob.nominal_bytes))
                if reprotect:
                    yield from self._reprotect(key, blob)
                source = "neighbor"
            return self._manager.restored(self.ctx.rank, version, blob,
                                          source, t0)
        raise CheckpointNotFound(f"version {version} unavailable for {key}")


@dataclass(slots=True)
class _CopyRequest:
    """One library's pending checkpoint copy to all of its holders.

    The request completes — firing ``done`` with the landed-copy count —
    once every copy either landed on its holder or failed (dead holder,
    severed path, flush timeout).
    """

    lib: _CopySource
    key: Key
    blob: StoredBlob
    done: Event
    #: a neighbor re-mirror after a remote restore: runs beside the
    #: library's FIFO (the landing rule keeps it out of the totals)
    reprotect: bool = False
    t_start: float = 0.0
    #: copies still in flight; the request finishes when this hits zero
    pending: int = 0
    #: copies that actually landed
    landed: int = 0


@dataclass(slots=True)
class _Copy:
    """One copy of a :class:`_CopyRequest` (one holder)."""

    request: _CopyRequest
    holder: int
    node_id: int
    expected: float = 0.0

    def apply(self) -> None:
        """Delivery callback: settle the copy by the landing rule, which
        stores the blob itself on the holder's node.  A writer that died
        mid-flight takes no completion actions."""
        lib = self.request.lib
        if lib._endpoint_obj.alive:
            lib._manager._settle(self, lib.land(self))

    def hang(self) -> None:
        """Arm the flush timeout lazily (only hung ops ever need it):
        purge the writer's copy queue and count this copy as failed."""
        manager = self.request.lib._manager
        manager.sim.schedule_at(
            self.request.t_start + (self.expected * 1.5 + 1.0),
            lambda: manager._on_timeout(self),
        )


class CheckpointManager:
    """World-level round-batched checkpoint copy plane.

    One instance per :class:`~repro.gaspi.runtime.GaspiWorld` (attached
    lazily via :meth:`of`).  It is the asynchronous copy path of every
    copying library — the paper's per-rank helper thread (Fig. 2) — run
    as whole-round batch operations over one pipeline: a library supplies
    its holders (the neighbor backend one, the replicated backend ``r``)
    and its landing rule, and the manager does the rest:

    * **same-tick coalescing** — copies signalled within one simulated
      tick flush as *one* scatter round priced by a single vectorized
      :meth:`Network.transfer_time_round` call per direction
      (:meth:`Transport.post_rdma_scatter`), with per-copy path re-checks
      at delivery, per-copy hang/timeout/purge semantics, and per-library
      FIFO ordering of back-to-back writes;
    * **cached placement maps** — the O(n) neighbor and replica kernels
      build each participant set's full map once; every library refresh
      against the same set is a dict lookup;
    * **location records** — where copies actually landed: the nodes
      that stored a neighbor-backend blob of each ``(tag, logical
      rank)`` (:meth:`put`, :meth:`locations`) and the ranks holding
      each replicated version (:meth:`record_replica`), so a restore
      finds its data without re-deriving placement;
    * **phase totals** — mirror, scatter and restore bytes/latency
      accumulated for the ``recovery_compare`` experiment's per-phase
      reporting; every backend's restore ends in :meth:`restored`;
    * **the parallel file system** — the world's one
      :class:`ParallelFileSystem`, the ``pfs`` backend's store
      (:attr:`pfs`).
    """

    _ATTR = "_checkpoint_manager"

    def __init__(self, world: Any) -> None:
        self.sim = world.sim
        self.machine = world.machine
        self.transport = world.transport
        #: bound reachability check (the network object never changes)
        self.reachable: Callable[[int, int], bool] = (
            world.machine.network.reachable
        )
        #: node-local store views, one per node (nodes never move)
        self._stores: Dict[int, NodeLocalStore] = {}
        #: copy requests accumulated in the current tick, flushed as one
        #: round
        self._pending: List[_CopyRequest] = []
        self._sealed = False
        #: participant-tuple -> {rank: neighbor} map cache.  A world's
        #: teams are the initial one plus one per recovery, and every
        #: recovery consumes a spare, so the spare budget bounds its size
        self._neighbor_maps: Dict[Tuple[int, ...], Dict[int, Optional[int]]] = {}
        #: (participant-tuple, r) -> {rank: [holders]} placement cache for
        #: the replicated backend (bounded the same way)
        self._replica_maps: Dict[Tuple[Tuple[int, ...], int], Dict[int, List[int]]] = {}
        #: neighbor-backend location record: (tag, logical rank) -> the
        #: nodes that stored one of its blobs, in the order they first did
        self._locations: Dict[Tuple[str, int], Tuple[int, ...]] = {}
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

    @cached_property
    def pfs(self) -> ParallelFileSystem:
        """The world's parallel file system, made on first use (its
        constructor schedules nothing, so no virtual time moves)."""
        return ParallelFileSystem(self.sim)

    def pack_blob(self, payload: Dict[str, np.ndarray],
                  nominal_bytes: Optional[int] = None) -> StoredBlob:
        """Pack one payload into the immutable blob the stores keep.
        ``nominal_bytes`` defaults to the packed size."""
        data = pack_checkpoint(payload)
        return StoredBlob(data=data, nominal_bytes=nominal_bytes or len(data))

    # ------------------------------------------------------------------
    # placement map caches
    # ------------------------------------------------------------------
    def neighbor_map_for(
        self, participants: Tuple[int, ...]
    ) -> Dict[int, Optional[int]]:
        """The full mirror-partner map of a (sorted) participant set.

        Built once per distinct set with the O(n) vectorized
        :func:`neighbor_map` kernel.
        """
        cached = self._neighbor_maps.get(participants)
        if cached is None:
            cached = neighbor_map(participants, self.machine.node_of)
            self._neighbor_maps[participants] = cached
        return cached

    def replica_map_for(
        self, participants: Tuple[int, ...], r: int
    ) -> Dict[int, List[int]]:
        """The full replica-holder map of a (sorted) participant set.

        Built once per distinct ``(set, r)`` with the vectorized placement
        kernel (no holder on the owner's node or its mirror neighbor's
        node — see ``CHECKPOINTS.md``).
        """
        cache_key = (participants, r)
        cached = self._replica_maps.get(cache_key)
        if cached is None:
            cached = replica_holder_map(participants, self.machine.node_of, r)
            self._replica_maps[cache_key] = cached
        return cached

    def store(self, node_id: int) -> NodeLocalStore:
        """The (cached) checkpoint store view of one node."""
        store = self._stores.get(node_id)
        if store is None:
            store = NodeLocalStore(self.machine.node(node_id))
            self._stores[node_id] = store
        return store

    # ------------------------------------------------------------------
    # location records
    # ------------------------------------------------------------------
    def put(self, node_id: int, key: Key, blob: StoredBlob,
            keep: int) -> None:
        """Store a neighbor-backend blob on ``node_id`` (pruned to
        ``keep`` versions) — every local write, landed mirror and
        reprotect goes through here.  The node's first blob of the pair
        enters the location record; later ones find it there already."""
        if self.store(node_id).put_pruned(key, blob, keep):
            pair = key[:2]
            self._locations[pair] = self._locations.get(pair, ()) + (node_id,)

    def locations(self, tag: str, logical_rank: int) -> Tuple[int, ...]:
        """Nodes that stored a blob of ``(tag, logical_rank)``, in the
        order they first did (some may since have died)."""
        return self._locations.get((tag, logical_rank), ())

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
    # the copy pipeline: flush -> price -> classify -> post ->
    # land or hang/timeout -> finish -> FIFO release
    # ------------------------------------------------------------------
    def local_written(self, lib: _CopySource, key: Key, blob: StoredBlob,
                      t0: float, done: Event) -> None:
        """Epilogue of every commit's local write (started at ``t0``):
        emit ``ckpt_write`` and submit the copy."""
        tracer = lib._tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.emit(now, lib.ctx.rank, "ckpt_write", dur=now - t0,
                        version=key[2], bytes=blob.nominal_bytes)
        self.submit(lib, key, blob, done)

    def submit(self, lib: _CopySource, key: Key, blob: StoredBlob,
               done: Event, reprotect: bool = False) -> None:
        """Register one library's copy request (the helper-signal analogue).

        Requests submitted in the same tick coalesce into one flush round;
        a request for a library whose previous copy is still in flight
        queues behind it (per-library FIFO).  A ``reprotect`` request — a
        neighbor re-mirror after a remote restore — runs beside that FIFO
        without queuing.
        """
        request = _CopyRequest(lib, key, blob, done, reprotect)
        if not reprotect:
            if lib._inflight is not None:
                lib._deferred.append(request)
                return
            lib._inflight = request
        self._enqueue(request)

    def _enqueue(self, request: _CopyRequest) -> None:
        self._pending.append(request)
        if not self._sealed:
            self._sealed = True
            self.sim.schedule(0.0, self._flush)

    def _flush(self) -> None:
        """Close the tick's round and drive every copy to completion.

        Holderless requests finish immediately; a copy whose library's
        copy queue is full is only modeled and lands after its expected
        transfer time; the rest ship as one scatter round on each
        library's dedicated copy queue, land at delivery+ack with the path
        re-checked there, and a severed path leaves the op hung until the
        flush timeout purges the queue.  A writer that died mid-flight
        takes no completion actions.
        """
        requests, self._pending, self._sealed = self._pending, [], False
        sim = self.sim
        now = sim.now
        copies: List[_Copy] = []
        for request in requests:
            request.t_start = now
            holders = request.lib.holders
            if not holders:
                self._finish(request)
                continue
            request.pending = len(holders)
            for holder, node_id in holders:
                copies.append(_Copy(request, holder, node_id))
        if not copies:
            return
        n = len(copies)
        expected = self.machine.network.transfer_time_round(
            np.fromiter((c.request.lib._my_node for c in copies),
                        dtype=np.int64, count=n),
            np.fromiter((c.node_id for c in copies), dtype=np.int64, count=n),
            np.fromiter((c.request.blob.nominal_bytes for c in copies),
                        dtype=np.int64, count=n),
        ).tolist()
        modeled: List[_Copy] = []
        modeled_t = []
        wired: List[_Copy] = []
        for copy, t_expected in zip(copies, expected):
            copy.expected = t_expected
            if copy.request.lib._copy_queue_obj.full:
                # QUEUE_FULL: the copy is only modeled — delivered after
                # its expected transfer time
                modeled.append(copy)
                modeled_t.append(now + t_expected)
                continue
            wired.append(copy)
        if modeled:
            t_arr = np.asarray(modeled_t, dtype=np.float64)
            for t_val in np.unique(t_arr).tolist():
                group = [modeled[i] for i in np.nonzero(t_arr == t_val)[0]]

                def land_modeled(group: List[_Copy] = group) -> None:
                    for copy in group:
                        copy.apply()

                sim.schedule_at(t_val, land_modeled)
        if wired:
            self._post_wired(wired)

    def _post_wired(self, wired: List[_Copy]) -> None:
        srcs: List[int] = []
        dsts: List[Optional[int]] = []
        sizes: List[int] = []
        apply_fns: List[Callable[[], Any]] = []
        hang_fns: List[Callable[[], None]] = []
        for copy in wired:
            srcs.append(copy.request.lib.ctx.rank)
            dsts.append(copy.holder)
            sizes.append(copy.request.blob.nominal_bytes)
            apply_fns.append(copy.apply)
            hang_fns.append(copy.hang)
        events = self.transport.post_rdma_scatter(
            srcs, dsts, sizes, apply_fns, hang_fns
        )
        for copy, event in zip(wired, events):
            copy.request.lib._copy_queue_obj.post(event)

    def _on_timeout(self, copy: _Copy) -> None:
        lib = copy.request.lib
        if lib._endpoint_obj.alive:
            lib.ctx.queue_purge(lib._copy_queue)
            self._settle(copy, False)

    def _settle(self, copy: _Copy, landed: bool) -> None:
        """One copy resolved; the request finishes after its last copy."""
        request = copy.request
        if landed:
            request.landed += 1
        request.pending -= 1
        if request.pending == 0:
            self._finish(request)

    def count_copy(self, phase: str, request: _CopyRequest,
                   now: float) -> None:
        """Add one landed copy to the ``mirror`` or ``scatter`` totals."""
        totals = self.phase_totals
        totals[phase + "_ops"] += 1
        totals[phase + "_bytes"] += request.blob.nominal_bytes
        totals[phase + "_s"] += now - request.t_start

    def _finish(self, request: _CopyRequest) -> None:
        """Close a request: fire ``done`` with the landed-copy count and
        release the library's next queued request."""
        request.done.succeed(request.landed)
        lib = request.lib
        if lib._inflight is request:
            lib._inflight = None
            if lib._deferred:
                nxt = lib._deferred.popleft()
                lib._inflight = nxt
                self._enqueue(nxt)

    # ------------------------------------------------------------------
    # whole-round commit (the coordinator API)
    # ------------------------------------------------------------------
    def commit_round(
        self,
        libs: Mapping[int, CheckpointLib],
        version: int,
        payloads: Mapping[int, Dict[str, np.ndarray]],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Dict[int, Event]]:
        """Generator: commit one checkpoint round for many ranks at once.

        Equivalent to every rank in ``payloads`` calling its library's
        ``write_checkpoint(version, payload, nominal_bytes)`` in the same
        tick — same store contents, tracer events and virtual timestamps
        — but driven by one coordinator: one grouped callback per
        distinct local-write duration, and the manager's copy pipeline.
        Returns ``{rank: mirrored_event}`` once the *synchronous* part
        (every rank's local write) finished; the mirrors complete in the
        background as for ``write_checkpoint``.  A rank that dies before
        its local write completes takes no actions, like its killed
        generator wouldn't.
        """
        ranks = sorted(payloads)
        sim = self.sim
        t0 = sim.now
        items: List[Tuple[CheckpointLib, "Key", StoredBlob, Event]] = []
        mirrors: Dict[int, Event] = {}
        durations = np.empty(len(ranks), dtype=np.float64)
        for i, rank in enumerate(ranks):
            lib = libs[rank]
            blob = self.pack_blob(payloads[rank], nominal_bytes)
            key = (lib.config.tag, lib.logical_rank, version)
            # event names are diagnostic only: a constant name keeps the
            # per-rank construction cost flat without changing observables
            mirrored = Event(name="ckpt-mirrored")
            mirrors[rank] = mirrored
            items.append((lib, key, blob, mirrored))
            durations[i] = blob.nominal_bytes / LOCAL_BANDWIDTH
        t_local = t0 + durations

        def local_done(idxs: List[int]) -> None:
            for i in idxs:
                lib, key, blob, mirrored = items[i]
                if not lib._endpoint_obj.alive:
                    continue
                self.put(lib._my_node, key, blob, lib.config.keep_versions)
                self.local_written(lib, key, blob, t0, mirrored)

        for t_val in np.unique(t_local).tolist():
            idxs = np.nonzero(t_local == t_val)[0].tolist()
            sim.schedule_at(t_val, lambda idxs=idxs: local_done(idxs))

        committed = Event(name="ckpt-round")
        sim.schedule_at(float(t_local.max()) if len(items) else t0,
                        lambda: committed.succeed(None))
        yield WaitEvent(committed)  # ftlint: disable=FT001 -- committed fires unconditionally at the round's max local-write time; no remote peer involved
        return mirrors

    # ------------------------------------------------------------------
    # restore epilogue
    # ------------------------------------------------------------------
    def restored(self, rank: int, version: int, blob: StoredBlob,
                 source: str, t0: float,
                 ) -> Tuple[int, Dict[str, np.ndarray]]:
        """Epilogue of every backend's restore (started at ``t0`` by
        ``rank`` from ``source``): emit ``restore``, add it to the phase
        totals and return ``(version, payload)`` unpacked."""
        now = self.sim.now
        elapsed = now - t0
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(now, rank, "restore", dur=elapsed, version=version,
                        source=source)
        totals = self.phase_totals
        totals["restore_ops"] += 1
        totals["restore_bytes"] += blob.nominal_bytes
        totals["restore_s"] += elapsed
        totals[f"restore_{source}_ops"] += 1
        return version, unpack_checkpoint(blob.data)
