"""ReStore-style in-memory replicated checkpoints (third backend).

Where the paper's §IV-C neighbor backend keeps one mirror copy on the
next node, ReStore (arXiv:2203.01107) keeps each rank's checkpoint
*replicated in the memory of other ranks*: commit scatters ``r`` copies
to replica holders, and recovery fetches the surviving replica set
without touching the parallel file system — near-instant restores at the
cost of ``r``× the network volume per checkpoint.  FTHP-MPI
(arXiv:2504.09989) motivates exposing ``r`` as a tunable cost/MTTR knob,
which is exactly :attr:`CheckpointConfig.replication` here.

Placement (the deterministic kernel of ``CHECKPOINTS.md``): walk the
sorted participant ring forward from the owner, skipping the owner's own
node and its mirror neighbor's node, and take the first ``r`` ranks on
pairwise-distinct nodes.  Every surviving copy therefore sits on a node
that neither the owner's failure nor its neighbor-mirror's failure can
take down, and ``r`` copies on ``r`` distinct nodes tolerate any
``r - 1`` concurrent rank losses.

Three things live here rather than in :mod:`repro.checkpoint.manager`:
the placement kernel wrapper, :class:`ReplicatedCheckpointLib` (the
ReStore backend: an ``r``-holder placement over the manager's copy
pipeline), and :class:`PfsCheckpointLib` (the classical PFS-only
baseline the paper argues against) — plus the
:func:`make_checkpoint_lib` factory the FT driver dispatches through.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.sim import Event, Sleep
from repro.gaspi.constants import ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.checkpoint.manager import (
    COPY_SEGMENT,
    COPY_WINDOW,
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
    _Copy,
    _CopySource,
)
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.serialization import unpack_checkpoint
from repro.checkpoint.store import CheckpointNotFound, Key


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def replica_holder_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
    r: int,
) -> Dict[int, List[int]]:
    """Replica holders of every participant, via the rankstate kernel.

    Builds the sorted ring and its node lookup once and derives every
    position's holder rows with the :mod:`repro.ft.rankstate`
    ``replica_ring_holders`` kernel — O(n·r) for the whole map.  The
    scalar placement oracle lives in ``tests/checkpoint/test_replicated.py``.
    """
    from repro.ft import rankstate

    ring = sorted(participants)
    if not ring:
        return {}
    nodes = np.fromiter((node_of(x) for x in ring), dtype=np.int64,
                        count=len(ring))
    rows = rankstate.replica_ring_holders(nodes, r)
    return {
        rank: [ring[int(j)] for j in row if j >= 0]
        for rank, row in zip(ring, rows)
    }


# ----------------------------------------------------------------------
# the ReStore backend
# ----------------------------------------------------------------------
class ReplicatedCheckpointLib(_CopySource):
    """Per-rank instance of the ReStore-style replicated C/R backend.

    Same interface as :class:`CheckpointLib` (the neighbor backend), but
    protection comes from ``config.replication`` in-memory copies on
    other ranks instead of one neighbor-node mirror:

    * **commit** — pack through the world manager's shared arena, charge
      the staging cost, then hand the blob to the manager's copy pipeline
      with ``r`` holders (one ``transfer_time_round``-priced scatter per
      tick for all ranks' copies together).  The returned event fires
      with the number of copies that actually landed.
    * **recovery** — look up where replicas *actually* landed (the
      manager's location index), fetch the surviving set with one batched
      ``read_list`` per holder (each priced as its share of the blob),
      and CRC-validate the unpacked payload.  Tolerates any ``r - 1``
      concurrent rank losses; when losses exceed that, the raised
      :class:`CheckpointNotFound` names the dead holders (the
      detect-and-report path).

    A replica lives in the *process* memory of its holder: a dead holder
    endpoint loses the copy even if its node survived, and a wiped node
    loses every copy it hosted (the ``"repl:"``-namespaced store keys die
    with ``Node.wipe``).
    """

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        # the replicated backend never touches the PFS (that is its point):
        # ``pfs`` is accepted for interface parity only
        super().__init__(ctx, logical_rank, participants,
                         config or CheckpointConfig(backend="replicated"),
                         None)
        self._fetch_queue = ctx.queue_create()
        self.stats = {"local_writes": 0, "replica_copies": 0,
                      "failed_copies": 0, "replica_reads": 0}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def refresh(self, participants: Iterable[int]) -> None:
        """Fault-aware placement update after group reconstruction.

        Re-derives this rank's holder set from the manager's cached
        placement map.  Already-landed replicas are unaffected: recovery
        reads consult the manager's *location* index, so holder-map drift
        never orphans live copies.
        """
        members = _Members.intern(tuple(sorted(participants)))
        self.participants: Sequence[int] = members
        self.holders = []
        if self.ctx.rank in members.member_set() and len(members) > 1:
            node_of = self.machine.node_of
            self.holders = [(holder, node_of(holder)) for holder in
                            self._manager.replica_map_for(
                                members, self.config.replication
                            ).get(self.ctx.rank, ())]

    @property
    def replica_ranks(self) -> List[int]:
        """Current replica holders (placement, not location — reads use
        the manager's location index instead)."""
        return [holder for holder, _ in self.holders]

    def land(self, copy: _Copy) -> bool:
        """Landing rule: ReStore's in-memory-of-another-process semantics.

        The copy lands only when the holder *process* is alive, its node
        is up, and the path from the owner is intact — a dead holder
        process loses the replica even if its node survived.  A landed
        copy is stored under ``"repl:" + tag`` and indexed by location.
        """
        manager = self._manager
        store = manager.store(copy.node_id)
        if not (manager.transport.endpoint(copy.holder).alive
                and store.available
                and manager.reachable(self._my_node, copy.node_id)):
            return False
        request = copy.request
        key = request.key
        store.put_pruned(("repl:" + key[0], key[1], key[2]), request.blob,
                         self.config.keep_versions)
        manager.record_replica(key, copy.holder)
        self.stats["replica_copies"] += 1
        now = manager.sim.now
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, self.ctx.rank, "ckpt_scatter",
                        dur=now - request.t_start, version=key[2],
                        holder=copy.holder, node=copy.node_id)
        manager.count_copy("scatter", request, now)
        return True

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous pack + async ``r``-way replica scatter.

        The application pays only the local staging cost (ReStore's
        asynchronous commit); the returned :class:`Event` fires with the
        number of copies that landed once the background scatter round
        resolved every holder.
        """
        t0 = self.ctx.now
        manager = self._manager
        blob = manager.pack_blob(payload, nominal_bytes)
        yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
        key: Key = (self.config.tag, self.logical_rank, version)
        protected = Event(name=f"ckpt-protected-{self.ctx.rank}-v{version}")
        manager.local_written(self, key, blob, t0, protected)
        return protected

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _usable_holders(self, key: Key) -> List[int]:
        """Recorded holders whose replica of ``key`` is fetchable now:
        live endpoint, live node actually holding the blob, intact path."""
        manager = self._manager
        repl_key: Key = ("repl:" + key[0], key[1], key[2])
        node_of = self.machine.node_of
        return [
            holder for holder in manager.replica_holders_of(key)
            if manager.transport.endpoint(holder).alive
            and manager.store(node_of(holder)).has(repl_key)
            and manager.reachable(self._my_node, node_of(holder))
        ]

    def restorable_latest(self, extra_nodes: Sequence[int] = ()) -> int:
        """Newest version with at least one fetchable replica, or -1.

        ``extra_nodes`` is accepted for interface parity and ignored —
        replica locations come from the manager's index, not from node
        hints.
        """
        versions = self._manager.replica_versions(self.config.tag,
                                                  self.logical_rank)
        for version in reversed(versions):
            if self._usable_holders(
                (self.config.tag, self.logical_rank, version)
            ):
                return version
        return -1

    def has_local(self, version: int) -> bool:
        """Whether the version is restorable from the current replica set.

        The replicated backend keeps no owner-local copy (pure ReStore),
        so "local" here means *in the memory of a live, reachable
        holder* — the closest analogue of the neighbor backend's
        own-node check.
        """
        return bool(self._usable_holders(
            (self.config.tag, self.logical_rank, version)
        ))

    def read_checkpoint(
        self, version: Optional[int] = None,
        extra_nodes: Sequence[int] = (),
        reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)`` from the replica set.

        The fetch splits the blob evenly across every usable holder and
        issues one batched ``read_list`` per holder on the dedicated
        fetch queue (each priced as its share), then waits once for the
        whole batch — recovery latency is the *slowest share*, which
        shrinks as more holders survive.  A holder dying mid-fetch times
        the wait out; the queue is purged and the fetch retried against
        the re-filtered survivor set (bounded by the recorded holder
        count).  The unpacked payload is CRC-validated, proving the
        restored bytes identical to the committed ones.

        Raises :class:`CheckpointNotFound` naming the dead holders when
        losses exceeded the ``r - 1`` tolerance.  With ``reprotect``
        (default), the restored version is immediately re-scattered to
        the current holder set, restoring full protection.
        """
        if version is None:
            version = self.restorable_latest(extra_nodes)
            if version < 0:
                raise CheckpointNotFound(
                    f"no replicated checkpoint for logical rank "
                    f"{self.logical_rank}"
                )
        key: Key = (self.config.tag, self.logical_rank, version)
        repl_key: Key = ("repl:" + key[0], key[1], key[2])
        t0 = self.ctx.now
        ctx = self.ctx
        manager = self._manager
        network = self.machine.network
        seg_id = COPY_SEGMENT
        recorded = manager.replica_holders_of(key)
        for _ in range(len(recorded) + 1):
            usable = self._usable_holders(key)
            if not usable:
                transport = ctx.world.transport
                dead = [h for h in recorded
                        if not transport.endpoint(h).alive]
                raise CheckpointNotFound(
                    f"version {version} for logical rank "
                    f"{self.logical_rank}: no usable replica among "
                    f"recorded holders {recorded} (r="
                    f"{self.config.replication}, dead holders {dead}) — "
                    f"concurrent losses exceeded the r-1 tolerance"
                )
            blob = manager.store(self.machine.node_of(usable[0])).get(repl_key)
            share = -(-blob.nominal_bytes // len(usable))
            t_wait = 0.0
            posted = 0
            for holder in usable:
                node_id = self.machine.node_of(holder)
                t_wait = max(t_wait, network.transfer_time(
                    self._my_node, node_id, share
                ))
                stage = min(len(blob.data), COPY_WINDOW)
                remote = ctx.world.contexts[holder].segments.find(seg_id)
                if stage == 0 or remote is None:
                    continue  # modeled share; its time is in t_wait
                chunk = max(1, (stage + 7) // 8)
                entries = []
                off = 0
                while off < stage:
                    n = min(chunk, stage - off)
                    entries.append((seg_id, off, n, seg_id, off))
                    off += n
                ret = ctx.read_list(entries, holder,
                                    queue_id=self._fetch_queue,
                                    modeled_bytes=share)
                if ret is ReturnCode.SUCCESS:
                    posted += 1
                # QUEUE_FULL: the share stays modeled, time already in
                # t_wait (checked before any yield, per FT004)
            if posted:
                ret = yield from ctx.wait(self._fetch_queue,
                                          timeout=t_wait * 1.5 + 1.0)
                if ret is ReturnCode.TIMEOUT:
                    # a holder died mid-fetch: purge and retry against
                    # the re-filtered survivor set
                    ctx.queue_purge(self._fetch_queue)
                    continue
            else:
                yield Sleep(t_wait)
            self.stats["replica_reads"] += 1
            elapsed = ctx.now - t0
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(ctx.now, ctx.rank, "restore", dur=elapsed,
                            version=version, source="replicated")
            manager.record_restore("replicated", blob.nominal_bytes,
                                   elapsed)
            payload = unpack_checkpoint(blob.data)
            if reprotect:
                yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
                manager.submit(
                    self, key, blob,
                    Event(name=f"reprotect-{ctx.rank}-v{version}"),
                )
            return version, payload
        raise CheckpointNotFound(
            f"version {version} unavailable for {key} after retries"
        )


# ----------------------------------------------------------------------
# the classical PFS baseline
# ----------------------------------------------------------------------
class PfsCheckpointLib:
    """Per-rank instance of the classical PFS-only C/R baseline.

    The scheme the paper (and ReStore) argue against: every checkpoint is
    a *synchronous* write to the shared parallel file system, and every
    restore a PFS read — the application pays the full PFS round-trip
    both ways, with all ranks contending for the same aggregate
    bandwidth.  Serves as the third column of ``recovery_compare``'s
    backend table; see ``CHECKPOINTS.md`` for the cost model.
    """

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        if pfs is None:
            raise ValueError("the pfs backend requires a ParallelFileSystem")
        self.ctx = ctx
        self.machine = ctx.world.machine
        self._my_node: int = self.machine.node_of(ctx.rank)
        self._tracer = ctx.tracer
        self.logical_rank = logical_rank
        self.config = config or CheckpointConfig(backend="pfs")
        self.pfs = pfs
        self.participants: Sequence[int] = _Members.intern(
            tuple(sorted(participants)))
        self.stats = {"local_writes": 0, "pfs_copies": 0, "pfs_reads": 0}

    @property
    def my_node(self) -> int:
        return self._my_node

    def refresh(self, participants: Iterable[int]) -> None:
        """The PFS is location-independent; only the roster updates."""
        self.participants = _Members.intern(tuple(sorted(participants)))

    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous PFS checkpoint (the classical cost).

        Blocks the application for the full shared-bandwidth PFS write;
        the returned event has already fired (nothing is asynchronous).
        """
        t0 = self.ctx.now
        blob = CheckpointManager.of(self.ctx.world).pack_blob(payload,
                                                              nominal_bytes)
        key: Key = (self.config.tag, self.logical_rank, version)
        yield from self.pfs.write(key, blob)
        self.stats["local_writes"] += 1
        self.stats["pfs_copies"] += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "ckpt_write",
                        dur=self.ctx.now - t0, version=version,
                        bytes=blob.nominal_bytes)
        done = Event(name=f"ckpt-pfs-{self.ctx.rank}-v{version}")
        done.succeed(True)
        return done

    def restorable_latest(self, extra_nodes: Sequence[int] = ()) -> int:
        """Newest version on the PFS, or -1 (``extra_nodes`` ignored)."""
        latest = self.pfs.latest_version(self.config.tag, self.logical_rank)
        return -1 if latest is None else latest

    def has_local(self, version: int) -> bool:
        """Whether the PFS holds the version (nothing is node-local)."""
        return self.pfs.has((self.config.tag, self.logical_rank, version))

    def read_checkpoint(
        self, version: Optional[int] = None,
        extra_nodes: Sequence[int] = (),
        reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)`` from the PFS.

        ``extra_nodes`` and ``reprotect`` are accepted for interface
        parity; the PFS copy *is* the protection, so there is nothing to
        re-establish after a restore.
        """
        if version is None:
            version = self.restorable_latest(extra_nodes)
            if version < 0:
                raise CheckpointNotFound(
                    f"no PFS checkpoint for logical rank {self.logical_rank}"
                )
        key: Key = (self.config.tag, self.logical_rank, version)
        if not self.pfs.has(key):
            raise CheckpointNotFound(f"version {version} unavailable on PFS")
        t0 = self.ctx.now
        blob = yield from self.pfs.read(key)
        self.stats["pfs_reads"] += 1
        elapsed = self.ctx.now - t0
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "restore", dur=elapsed,
                        version=version, source="pfs")
        manager = CheckpointManager.maybe_of(self.ctx.world)
        if manager is not None:
            manager.record_restore("pfs", blob.nominal_bytes, elapsed)
        return version, unpack_checkpoint(blob.data)


#: any of the three backend implementations (duck-typed interface)
CheckpointBackend = Union[CheckpointLib, PfsCheckpointLib,
                          ReplicatedCheckpointLib]


def make_checkpoint_lib(
    ctx: GaspiContext,
    logical_rank: int,
    participants: Sequence[int],
    config: Optional[CheckpointConfig] = None,
    pfs: Optional[ParallelFileSystem] = None,
) -> CheckpointBackend:
    """Build the checkpoint library ``config.backend`` selects.

    ``"neighbor"`` (default) is the paper's §IV-C node-level neighbor
    mirroring, ``"pfs"`` the classical PFS-only baseline, and
    ``"replicated"`` the ReStore-style in-memory replication — all behind
    the same interface, so the FT driver is backend-agnostic.
    """
    cfg = config or CheckpointConfig()
    if cfg.backend == "neighbor":
        return CheckpointLib(ctx, logical_rank, participants,
                             config=cfg, pfs=pfs)
    if cfg.backend == "pfs":
        return PfsCheckpointLib(ctx, logical_rank, participants,
                                config=cfg, pfs=pfs)
    if cfg.backend == "replicated":
        return ReplicatedCheckpointLib(ctx, logical_rank, participants,
                                       config=cfg, pfs=pfs)
    raise ValueError(
        f"unknown checkpoint backend {cfg.backend!r} "
        f"(expected one of 'neighbor', 'pfs', 'replicated')"
    )
