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

Two libraries live here rather than in :mod:`repro.checkpoint.manager`:
:class:`ReplicatedCheckpointLib` (the ReStore backend: an ``r``-holder
placement over the manager's copy pipeline), and
:class:`PfsCheckpointLib` (the classical PFS-only baseline the paper
argues against, on the manager's world PFS) — plus the
:func:`make_checkpoint_lib` factory the FT driver dispatches through:
``config.backend`` alone picks the library.  The placement kernel is
:func:`repro.checkpoint.placement.replica_holder_map`.
"""

from __future__ import annotations

from typing import (
    Any,
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
    LOCAL_BANDWIDTH,
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
    _Copy,
    _CopySource,
)
from repro.checkpoint.store import CheckpointNotFound, Key


def _fetched() -> None:
    """Delivery of one replica share: the restore unpacks the blob from
    the holder's store, so the op only carries time and liveness."""


# ----------------------------------------------------------------------
# the ReStore backend
# ----------------------------------------------------------------------
class ReplicatedCheckpointLib(_CopySource):
    """Per-rank instance of the ReStore-style replicated C/R backend.

    Same interface as :class:`CheckpointLib` (the neighbor backend), but
    protection comes from ``config.replication`` in-memory copies on
    other ranks instead of one neighbor-node mirror:

    * **commit** — pack the payload, charge the local staging cost,
      then hand the blob to the manager's copy pipeline
      with ``r`` holders (one ``transfer_time_round``-priced scatter per
      tick for all ranks' copies together).  The returned event fires
      with the number of copies that actually landed.
    * **recovery** — look up where replicas *actually* landed (the
      manager's location index), fetch the surviving set with one list
      read per holder on the fetch queue (each priced as its share of
      the blob), and CRC-validate the unpacked payload.  Tolerates any
      ``r - 1`` concurrent rank losses; when losses exceed that, the
      raised :class:`CheckpointNotFound` names the dead holders (the
      detect-and-report path).

    A replica lives in the *process* memory of its holder: a dead holder
    endpoint loses the copy even if its node survived, and a wiped node
    loses every copy it hosted (the ``"repl:"``-namespaced store keys die
    with ``Node.wipe``).  Both copy directions move the blob object
    itself: a scatter lands it in the holder's node store, and a fetch
    restores the one it finds there; the transport ops carry the time,
    queue slots and liveness.
    """

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
    ) -> None:
        super().__init__(ctx, logical_rank, participants,
                         config or CheckpointConfig(backend="replicated"))
        self._fetch_queue = ctx.queue_create()

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
        members = _Members.of(participants)
        self.holders = []
        if self.ctx.rank in members.member_set() and len(members) > 1:
            node_of = self.machine.node_of
            self.holders = [(holder, node_of(holder)) for holder in
                            self._manager.replica_map_for(
                                members, self.config.replication
                            ).get(self.ctx.rank, ())]

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
        yield Sleep(blob.nominal_bytes / LOCAL_BANDWIDTH)
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

    def restorable_latest(self) -> int:
        """Newest version with at least one fetchable replica, or -1."""
        versions = self._manager.replica_versions(self.config.tag,
                                                  self.logical_rank)
        for version in reversed(versions):
            if self._usable_holders(
                (self.config.tag, self.logical_rank, version)
            ):
                return version
        return -1

    def read_checkpoint(
        self, version: Optional[int] = None, reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)`` from the replica set.

        The fetch splits the blob evenly across every usable holder and
        posts one list read per holder on the dedicated fetch queue (each
        priced as its share), then waits once for the whole batch —
        recovery latency is the *slowest share*, which shrinks as more
        holders survive.  A holder dying mid-fetch times the wait out;
        the queue is purged and the fetch retried against the re-filtered
        survivor set (bounded by the recorded holder count).  The blob
        comes from the holder's store and its unpacked payload is
        CRC-validated, proving the restored bytes identical to the
        committed ones.

        Raises :class:`CheckpointNotFound` naming the dead holders when
        losses exceeded the ``r - 1`` tolerance.  With ``reprotect``
        (default), the restored version is immediately re-scattered to
        the current holder set, restoring full protection.
        """
        if version is None:
            version = self.restorable_latest()
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
        transport = manager.transport
        network = self.machine.network
        fetch = ctx.queue(self._fetch_queue)
        recorded = manager.replica_holders_of(key)
        for _ in range(len(recorded) + 1):
            usable = self._usable_holders(key)
            if not usable:
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
                if fetch.full:
                    # QUEUE_FULL: the share stays modeled, time already in
                    # t_wait (checked before any yield, per FT004)
                    continue
                fetch.post(transport.post_rdma_list(
                    ctx.rank, holder, (share,), _fetched,
                    doorbell=self._fetch_queue,
                ))
                posted += 1
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
            _, payload = manager.restored(ctx.rank, version, blob,
                                          "replicated", t0)
            if reprotect:
                yield Sleep(blob.nominal_bytes / LOCAL_BANDWIDTH)
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
    bandwidth.  The PFS is the world's (:attr:`CheckpointManager.pfs`),
    so every rank's library writes to the same one.  Serves as the third
    column of ``recovery_compare``'s backend table; see
    ``CHECKPOINTS.md`` for the cost model.
    """

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
    ) -> None:
        self.ctx = ctx
        self._tracer = ctx.tracer
        self._manager = CheckpointManager.of(ctx.world)
        self.logical_rank = logical_rank
        self.config = config or CheckpointConfig(backend="pfs")
        self.pfs = self._manager.pfs

    def refresh(self, participants: Iterable[int]) -> None:
        """No-op: the PFS is location-independent, so a recovery changes
        nothing about where this rank's checkpoints live."""

    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous PFS checkpoint (the classical cost).

        Blocks the application for the full shared-bandwidth PFS write;
        the returned event has already fired (nothing is asynchronous).
        """
        t0 = self.ctx.now
        blob = self._manager.pack_blob(payload, nominal_bytes)
        key: Key = (self.config.tag, self.logical_rank, version)
        yield from self.pfs.write(key, blob)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "ckpt_write",
                        dur=self.ctx.now - t0, version=version,
                        bytes=blob.nominal_bytes)
        done = Event(name=f"ckpt-pfs-{self.ctx.rank}-v{version}")
        done.succeed(True)
        return done

    def restorable_latest(self) -> int:
        """Newest version on the PFS, or -1."""
        latest = self.pfs.latest_version(self.config.tag, self.logical_rank)
        return -1 if latest is None else latest

    def read_checkpoint(
        self, version: Optional[int] = None, reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)`` from the PFS.

        ``reprotect`` is accepted for interface parity; the PFS copy *is*
        the protection, so there is nothing to re-establish after a
        restore.
        """
        if version is None:
            version = self.restorable_latest()
            if version < 0:
                raise CheckpointNotFound(
                    f"no PFS checkpoint for logical rank {self.logical_rank}"
                )
        key: Key = (self.config.tag, self.logical_rank, version)
        if not self.pfs.has(key):
            raise CheckpointNotFound(f"version {version} unavailable on PFS")
        t0 = self.ctx.now
        blob = yield from self.pfs.read(key)
        return self._manager.restored(self.ctx.rank, version, blob, "pfs", t0)


#: any of the three backend implementations (duck-typed interface)
CheckpointBackend = Union[CheckpointLib, PfsCheckpointLib,
                          ReplicatedCheckpointLib]


def make_checkpoint_lib(
    ctx: GaspiContext,
    logical_rank: int,
    participants: Sequence[int],
    config: Optional[CheckpointConfig] = None,
) -> CheckpointBackend:
    """Build the checkpoint library ``config.backend`` selects.

    ``"neighbor"`` (default) is the paper's §IV-C node-level neighbor
    mirroring, ``"pfs"`` the classical PFS-only baseline, and
    ``"replicated"`` the ReStore-style in-memory replication — all behind
    the same interface, so the FT driver is backend-agnostic.  The config
    is the whole contract: whatever a backend needs beyond it (the copy
    plane, the PFS) is the world's :class:`CheckpointManager`'s.
    """
    cfg = config or CheckpointConfig()
    if cfg.backend == "neighbor":
        return CheckpointLib(ctx, logical_rank, participants, config=cfg)
    if cfg.backend == "pfs":
        return PfsCheckpointLib(ctx, logical_rank, participants, config=cfg)
    if cfg.backend == "replicated":
        return ReplicatedCheckpointLib(ctx, logical_rank, participants,
                                       config=cfg)
    raise ValueError(
        f"unknown checkpoint backend {cfg.backend!r} "
        f"(expected one of 'neighbor', 'pfs', 'replicated')"
    )
