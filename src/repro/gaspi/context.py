"""Per-rank GASPI handle: the API the application generators program to.

Blocking procedures are generators (call with ``yield from``) returning a
:class:`ReturnCode` (possibly inside a tuple); non-blocking posts are plain
methods.  Timeouts are virtual seconds; ``GASPI_BLOCK`` blocks forever and
``GASPI_TEST`` only polls.  This mirrors the C API shape used throughout
the paper's listings, e.g.::

    ret = yield from ctx.proc_ping(rem_id, GASPI_BLOCK)
    if ret is ReturnCode.ERROR:
        avoid_list[rem_id] = 1
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Any, Callable, Generator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.sim import WaitEvent
from repro.gaspi.constants import (
    GASPI_BLOCK,
    GASPI_ERROR,
    GASPI_QUEUE_FULL,
    GASPI_SUCCESS,
    GASPI_TIMEOUT,
    AllreduceOp,
    HealthState,
    ReturnCode,
)
from repro.gaspi.errors import GaspiUsageError
from repro.gaspi.groups import Group
from repro.gaspi.queues import Queue
from repro.gaspi.segments import Segment, SegmentTable
from repro.gaspi.state import StateVector

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.transport import SweepResults
    from repro.gaspi.runtime import GaspiWorld
    from repro.obs.tracer import TracerLike
    from repro.sim import Event

#: one ``(segment_id, offset, size, remote_segment, remote_offset)`` entry
#: of a list operation.
ListEntry = Tuple[int, int, int, int, int]


def _clip_timeout(timeout: float) -> Optional[float]:
    """Map a GASPI timeout to the kernel's (None = forever)."""
    if timeout is None:
        raise GaspiUsageError("timeout must be a number, GASPI_BLOCK or GASPI_TEST")
    if timeout < 0:
        raise GaspiUsageError(f"negative timeout {timeout}")
    if math.isinf(timeout):
        return None
    return timeout


class GaspiContext:
    """One rank's view of the GASPI world."""

    def __init__(self, world: "GaspiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.segments = SegmentTable()
        self.state_vector = StateVector(world.n_ranks)
        #: queue table, built on first queue touch (most ranks of a large
        #: world never post before their first wait/purge)
        self._queues: Optional[List[Queue]] = None
        self._n_queues = world.config.n_queues
        #: flyweight: every context shares the world's interned all-ranks
        #: membership; only the collective sequence number is private
        self.group_all = Group.from_members(tag=-1, members=world.members_all)

    # ------------------------------------------------------------------
    # identity / environment
    # ------------------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        """``gaspi_proc_num``."""
        return self.world.n_ranks

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.world.sim.now

    @property
    def tracer(self) -> "TracerLike":
        """This job's structured tracer (``repro.obs``; no-op by default)."""
        return self.world.sim.tracer

    @property
    def n_queues(self) -> int:
        return self._n_queues

    def _queue_table(self) -> List[Queue]:
        queues = self._queues
        if queues is None:
            depth = self.world.config.queue_depth
            queues = self._queues = [
                Queue(i, depth) for i in range(self._n_queues)
            ]
        return queues

    def _queue(self, queue_id: int) -> Queue:
        queues = self._queues
        if queues is None:
            queues = self._queue_table()
        if not (0 <= queue_id < len(queues)):
            raise GaspiUsageError(f"queue {queue_id} outside [0, {len(queues)})")
        return queues[queue_id]

    def _remote(self, rank: int) -> "GaspiContext":
        if not (0 <= rank < self.world.n_ranks):
            raise GaspiUsageError(f"rank {rank} outside [0, {self.world.n_ranks})")
        return self.world.contexts[rank]

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def segment_create(self, segment_id: int, size: int) -> Segment:
        """``gaspi_segment_create`` (registration is implicit here)."""
        san = self.world.sanitizer
        if san is not None:
            san.on_segment_create(self.rank, segment_id)
        return self.segments.create(
            segment_id, size, self.world.config.n_notifications)

    def segment(self, segment_id: int) -> Segment:
        san = self.world.sanitizer
        if san is not None:
            san.on_segment_access(self.rank, segment_id, "segment")
        return self.segments.get(segment_id)

    def segment_view(self, segment_id: int, dtype: Any, offset: int = 0,
                     count: Optional[int] = None) -> np.ndarray:
        """Zero-copy typed view into a local segment (``gaspi_segment_ptr``)."""
        san = self.world.sanitizer
        if san is None:
            return self.segments.get(segment_id).view(dtype, offset, count)
        san.on_segment_access(self.rank, segment_id, "segment_view")
        segment = self.segments.get(segment_id)
        san.on_segment_view(self.rank, segment, dtype, offset, count)
        return segment.view(dtype, offset, count)

    # ------------------------------------------------------------------
    # one-sided communication (non-blocking posts)
    # ------------------------------------------------------------------
    def _san_post(self, queue_full: bool, queue_id: int) -> bool:
        """Sanitizer bookkeeping for one posting attempt.

        Returns ``queue_full`` unchanged so posting methods can write
        ``if self._san_post(queue.full, queue_id): return QUEUE_FULL``.
        """
        san = self.world.sanitizer
        if san is not None:
            if queue_full:
                san.on_queue_full(self.rank, queue_id)
            else:
                san.on_post(self.rank, queue_id)
        return queue_full

    def write(self, segment_id: int, offset: int, size: int, dst_rank: int,
              remote_segment: int, remote_offset: int, queue_id: int = 0) -> ReturnCode:
        """``gaspi_write``: one-sided put, completion tracked on the queue."""
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        data = self.segments.get(segment_id).read_bytes(offset, size)
        self._remote(dst_rank)  # validate rank early

        def apply() -> None:
            self.world.contexts[dst_rank].segments.get(remote_segment).write_bytes(
                remote_offset, data
            )

        done = self.world.transport.post_rdma(self.rank, dst_rank, size, apply)
        queue.post(done)
        return GASPI_SUCCESS

    def read(self, segment_id: int, offset: int, size: int, src_rank: int,
             remote_segment: int, remote_offset: int, queue_id: int = 0) -> ReturnCode:
        """``gaspi_read``: one-sided get into the local segment."""
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        local = self.segments.get(segment_id)
        local.check_range(offset, size)
        self._remote(src_rank)

        def apply() -> bytes:
            return self.world.contexts[src_rank].segments.get(remote_segment).read_bytes(
                remote_offset, size
            )

        done = self.world.transport.post_rdma(self.rank, src_rank, size, apply)
        done.add_callback(lambda ev: local.write_bytes(offset, ev.value[1]))
        queue.post(done)
        return GASPI_SUCCESS

    def notify(self, dst_rank: int, remote_segment: int, notification_id: int,
               value: int = 1, queue_id: int = 0) -> ReturnCode:
        """``gaspi_notify``: set a notification slot on the remote segment."""
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if value == 0:
            raise GaspiUsageError("notification value must be non-zero")
        san = self.world.sanitizer
        if san is not None:
            san.on_notify(self.rank, dst_rank, remote_segment,
                          notification_id, value)
        self._remote(dst_rank)

        def apply() -> None:
            self.world.contexts[dst_rank].segments.get(remote_segment).notifications.post(
                notification_id, value
            )

        done = self.world.transport.post_rdma(self.rank, dst_rank, 8, apply)
        queue.post(done)
        return GASPI_SUCCESS

    def write_notify(self, segment_id: int, offset: int, size: int, dst_rank: int,
                     remote_segment: int, remote_offset: int, notification_id: int,
                     value: int = 1, queue_id: int = 0) -> ReturnCode:
        """``gaspi_write_notify``: fused put + notification (data first)."""
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if value == 0:
            raise GaspiUsageError("notification value must be non-zero")
        san = self.world.sanitizer
        if san is not None:
            san.on_notify(self.rank, dst_rank, remote_segment,
                          notification_id, value)
        data = self.segments.get(segment_id).read_bytes(offset, size)
        self._remote(dst_rank)

        def apply() -> None:
            remote = self.world.contexts[dst_rank].segments.get(remote_segment)
            remote.write_bytes(remote_offset, data)
            remote.notifications.post(notification_id, value)

        done = self.world.transport.post_rdma(self.rank, dst_rank, size + 8, apply)
        queue.post(done)
        return GASPI_SUCCESS

    def write_list(self, entries: Sequence[ListEntry], dst_rank: int,
                   queue_id: int = 0) -> ReturnCode:
        """``gaspi_write_list``: several puts to one rank as one request.

        ``entries`` is a sequence of
        ``(segment_id, offset, size, remote_segment, remote_offset)``
        tuples; data of all entries travels as a single transport operation
        with a vectorized time model — one latency, one per-message
        overhead, sum-of-bytes bandwidth (GPI-2 fuses list operations into
        one work request).
        """
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if not entries:
            raise GaspiUsageError("write_list needs at least one entry")
        self._remote(dst_rank)
        snapshots = []
        sizes = []
        for segment_id, offset, size, remote_segment, remote_offset in entries:
            snapshots.append(
                (remote_segment, remote_offset,
                 self.segments.get(segment_id).read_bytes(offset, size))
            )
            sizes.append(size)

        def apply() -> None:
            target = self.world.contexts[dst_rank].segments
            for remote_segment, remote_offset, data in snapshots:
                target.get(remote_segment).write_bytes(remote_offset, data)

        done = self.world.transport.post_rdma_list(
            self.rank, dst_rank, sizes, apply, doorbell=queue_id,
        )
        queue.post(done)
        return GASPI_SUCCESS

    def write_list_notify(self, entries: Sequence[ListEntry], dst_rank: int,
                          notify_segment: int,
                          notifications: Union[Tuple[int, int],
                                               Sequence[Tuple[int, int]]],
                          queue_id: int = 0) -> ReturnCode:
        """``gaspi_write_list_notify``: batched puts + notifications, fused.

        All entry payloads and the notification flags travel as **one**
        transport operation; every byte of data lands before any flag
        becomes visible — the same write-then-notify ordering a chain of
        sequential ``write_notify`` calls guarantees, at a fraction of the
        simulated (and simulation) cost.

        ``notifications`` is a single ``(notification_id, value)`` pair or
        a list of such pairs, posted on ``notify_segment`` of the target in
        ascending id order.
        """
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if not entries:
            raise GaspiUsageError("write_list_notify needs at least one entry")
        if isinstance(notifications, tuple):
            notifications = [notifications]
        notifications = [(int(nid), int(value)) for nid, value in notifications]
        if not notifications:
            raise GaspiUsageError("write_list_notify needs a notification")
        for _nid, value in notifications:
            if value == 0:
                raise GaspiUsageError("notification value must be non-zero")
        san = self.world.sanitizer
        if san is not None:
            for nid, value in notifications:
                san.on_notify(self.rank, dst_rank, notify_segment, nid, value)
        self._remote(dst_rank)
        snapshots = []
        sizes = []
        for segment_id, offset, size, remote_segment, remote_offset in entries:
            snapshots.append(
                (remote_segment, remote_offset,
                 self.segments.get(segment_id).read_bytes(offset, size))
            )
            sizes.append(size)
        sizes.append(8 * len(notifications))

        def apply() -> None:
            target = self.world.contexts[dst_rank].segments
            for remote_segment, remote_offset, data in snapshots:
                target.get(remote_segment).write_bytes(remote_offset, data)
            target.get(notify_segment).notifications.post_many(notifications)

        done = self.world.transport.post_rdma_list(
            self.rank, dst_rank, sizes, apply, doorbell=queue_id,
        )
        queue.post(done)
        return GASPI_SUCCESS

    def write_round(self, segment_id: int, offset: int, size: int,
                    dst_ranks: Sequence[int], remote_segment: int,
                    remote_offset: int, queue_id: int = 0) -> ReturnCode:
        """Round-priced broadcast put: one local range to many ranks.

        Virtual-time equivalent of calling :meth:`write` once per rank in
        ``dst_ranks`` within one tick — data lands at each target at its
        own delivery latency, liveness re-checked per target — but the fan
        costs one queue slot and O(1) simulator events on a uniform fabric
        (:meth:`Transport.post_rdma_round`).  The single completion fires
        only when *every* target took the data; a dead target hangs it, so
        ``wait`` returns ``TIMEOUT`` exactly like the per-target loop.
        This is the notice-broadcast fast path of the FT control block.
        """
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if not dst_ranks:
            raise GaspiUsageError("write_round needs at least one target")
        for dst_rank in dst_ranks:
            self._remote(dst_rank)
        data = self.segments.get(segment_id).read_bytes(offset, size)

        def apply(dst_rank: int) -> None:
            self.world.contexts[dst_rank].segments.get(remote_segment).write_bytes(
                remote_offset, data
            )

        done = self.world.transport.post_rdma_round(
            self.rank, list(dst_ranks), size, apply
        )
        queue.post(done)
        return GASPI_SUCCESS

    def read_list(self, entries: Sequence[ListEntry], src_rank: int,
                  queue_id: int = 0) -> ReturnCode:
        """``gaspi_read_list``: several gets from one rank as one request."""
        queue = self._queue(queue_id)
        if self._san_post(queue.full, queue_id):
            return GASPI_QUEUE_FULL
        if not entries:
            raise GaspiUsageError("read_list needs at least one entry")
        self._remote(src_rank)
        local_targets = []
        for segment_id, offset, size, remote_segment, remote_offset in entries:
            local = self.segments.get(segment_id)
            local.check_range(offset, size)
            local_targets.append((local, offset))
        remote_specs = [(e[3], e[4], e[2]) for e in entries]

        def apply() -> List[bytes]:
            source = self.world.contexts[src_rank].segments
            return [
                source.get(seg).read_bytes(off, size)
                for seg, off, size in remote_specs
            ]

        done = self.world.transport.post_rdma_list(
            self.rank, src_rank, [e[2] for e in entries], apply,
            doorbell=queue_id,
        )

        def land(ev: "Event") -> None:
            for (local, offset), data in zip(local_targets, ev.value[1]):
                local.write_bytes(offset, data)

        done.add_callback(land)
        queue.post(done)
        return GASPI_SUCCESS

    def segment_delete(self, segment_id: int) -> None:
        """``gaspi_segment_delete``: unregister a local segment."""
        san = self.world.sanitizer
        if san is not None:
            # a second delete of the same id is itself use-after-free
            san.on_segment_access(self.rank, segment_id, "segment_delete")
        self.segments.delete(segment_id)
        if san is not None:
            san.on_segment_delete(self.rank, segment_id)

    def wait(self, queue_id: int = 0, timeout: float = GASPI_BLOCK,
             recheck: Optional[Callable[[], Any]] = None,
             ) -> Generator[Any, Any, ReturnCode]:
        """``gaspi_wait``: flush the queue (generator).

        Blocks until every operation outstanding at call time completed;
        returns ``TIMEOUT`` otherwise — operations stuck on dead targets
        stay queued (purge them in recovery with :meth:`queue_purge`).
        ``recheck`` re-arms the timeout as in :meth:`group_commit`.

        Fast path: an already-drained queue returns without yielding to
        the kernel at all, and a non-empty one blocks exactly **once** on
        an aggregate drain event instead of once per outstanding op.
        """
        san = self.world.sanitizer
        if san is not None:
            san.on_queue_relief(self.rank, queue_id)
        drained = self._queue(queue_id).drain_event()
        if drained is None:
            return GASPI_SUCCESS
        ok, _ = yield WaitEvent(drained, _clip_timeout(timeout), recheck)
        return GASPI_SUCCESS if ok else GASPI_TIMEOUT

    def queue_purge(self, queue_id: int = 0) -> int:
        """GPI-2 FT extension ``gaspi_queue_purge``: drop stuck operations."""
        san = self.world.sanitizer
        if san is not None:
            san.on_queue_relief(self.rank, queue_id)
        return self._queue(queue_id).purge()

    def queue_size(self, queue_id: int = 0) -> int:
        return self._queue(queue_id).size

    def queue(self, queue_id: int = 0) -> Queue:
        """The queue object itself, like :meth:`segment` for segments.

        The checkpoint copy pipeline and the replicated restore post
        their transport ops straight onto a queue; handing out the
        handle keeps that bypass on the public surface instead of
        reaching through ``_queue``.
        """
        return self._queue(queue_id)

    def queue_create(self) -> int:
        """GPI-2 ``gaspi_queue_create``: add a queue, returning its id.

        The paper's threaded FD monitors pings "on different communication
        queues"; applications create extras the same way.
        """
        queues = self._queue_table()
        if len(queues) >= 1024:
            raise GaspiUsageError("queue limit (1024) reached")
        queue_id = len(queues)
        queues.append(Queue(queue_id, self.world.config.queue_depth))
        self._n_queues = len(queues)
        return queue_id

    def queue_delete(self, queue_id: int) -> None:
        """GPI-2 ``gaspi_queue_delete``: only the most recent queue, and
        only when it has no outstanding operations."""
        queue = self._queue(queue_id)
        queues = self._queue_table()
        if queue_id != len(queues) - 1:
            raise GaspiUsageError("only the last-created queue can be deleted")
        if queue_id < self.world.config.n_queues:
            raise GaspiUsageError("the initial queues cannot be deleted")
        if queue.size:
            raise GaspiUsageError(
                f"queue {queue_id} still has {queue.size} outstanding ops"
            )
        queues.pop()
        self._n_queues = len(queues)

    # ------------------------------------------------------------------
    # notifications (consumer side)
    # ------------------------------------------------------------------
    def notify_waitsome(self, segment_id: int, first: int, num: int,
                        timeout: float = GASPI_BLOCK,
                        ) -> Generator[Any, Any, Tuple[ReturnCode, int]]:
        """``gaspi_notify_waitsome`` (generator).

        Returns ``(ReturnCode, notification_id)``; the id is -1 on timeout.
        """
        board = self.segments.get(segment_id).notifications
        pending = board.pending_in(first, num)
        if pending >= 0:
            return (GASPI_SUCCESS, pending)
        limit = _clip_timeout(timeout)
        event = board.subscribe(first, num)
        ok, nid = yield WaitEvent(event, limit)
        if not ok:
            board.unsubscribe(event)
            return (GASPI_TIMEOUT, -1)
        return (GASPI_SUCCESS, int(nid))

    def notify_reset(self, segment_id: int, notification_id: int) -> int:
        """``gaspi_notify_reset``: consume and clear a slot, return old value."""
        old = self.segments.get(segment_id).notifications.reset(notification_id)
        san = self.world.sanitizer
        if san is not None:
            san.on_notify_reset(self.rank, segment_id, notification_id, old)
        return old

    def notify_reset_many(self, segment_id: int,
                          notification_ids: Sequence[int]) -> List[int]:
        """Batched ``gaspi_notify_reset``: consume several slots at once.

        Returns the old values in the order the ids were given.
        """
        olds = self.segments.get(segment_id).notifications.reset_many(
            notification_ids
        )
        san = self.world.sanitizer
        if san is not None:
            for notification_id, old in zip(notification_ids, olds):
                san.on_notify_reset(self.rank, segment_id,
                                    notification_id, old)
        return olds

    # ------------------------------------------------------------------
    # passive communication
    # ------------------------------------------------------------------
    def passive_send(self, dst_rank: int, payload: Any, nbytes: int = 256,
                     timeout: float = GASPI_BLOCK,
                     ) -> Generator[Any, Any, ReturnCode]:
        """``gaspi_passive_send`` (generator): two-sided, CPU-involving send."""
        self._remote(dst_rank)
        done = self.world.transport.post_control(
            self.rank, dst_rank, "passive", payload, nbytes
        )
        ok, _ = yield WaitEvent(done, _clip_timeout(timeout))
        return GASPI_SUCCESS if ok else GASPI_TIMEOUT

    def passive_receive(self, timeout: float = GASPI_BLOCK,
                        ) -> Generator[Any, Any, Tuple[ReturnCode, int, Any]]:
        """``gaspi_passive_receive`` (generator).

        Returns ``(ReturnCode, src_rank, payload)``.
        """
        inbox = self.world.transport.endpoint(self.rank).inbox("passive")
        ok, msg = yield from inbox.get(_clip_timeout(timeout))
        if not ok:
            return (GASPI_TIMEOUT, -1, None)
        return (GASPI_SUCCESS, msg.src, msg.payload)

    # ------------------------------------------------------------------
    # global atomics (on int64 cells of remote segments)
    # ------------------------------------------------------------------
    def atomic_fetch_add(
        self, dst_rank: int, segment_id: int, offset: int,
        delta: int, timeout: float = GASPI_BLOCK,
    ) -> Generator[Any, Any, Tuple[ReturnCode, Optional[int]]]:
        """``gaspi_atomic_fetch_add`` (generator): returns ``(ret, old)``."""
        self._check_atomic(offset)
        self._remote(dst_rank)

        def apply() -> int:
            cell = self.world.contexts[dst_rank].segments.get(segment_id).view(
                np.int64, offset, 1
            )
            old = int(cell[0])
            cell[0] = old + delta
            return old

        done = self.world.transport.post_rdma(self.rank, dst_rank, 8, apply)
        ok, res = yield WaitEvent(done, _clip_timeout(timeout))
        if not ok:
            return (GASPI_TIMEOUT, None)
        return (GASPI_SUCCESS, res[1])

    def atomic_compare_swap(
        self, dst_rank: int, segment_id: int, offset: int,
        comparator: int, new_value: int, timeout: float = GASPI_BLOCK,
    ) -> Generator[Any, Any, Tuple[ReturnCode, Optional[int]]]:
        """``gaspi_atomic_compare_swap`` (generator): returns ``(ret, old)``."""
        self._check_atomic(offset)
        self._remote(dst_rank)

        def apply() -> int:
            cell = self.world.contexts[dst_rank].segments.get(segment_id).view(
                np.int64, offset, 1
            )
            old = int(cell[0])
            if old == comparator:
                cell[0] = new_value
            return old

        done = self.world.transport.post_rdma(self.rank, dst_rank, 8, apply)
        ok, res = yield WaitEvent(done, _clip_timeout(timeout))
        if not ok:
            return (GASPI_TIMEOUT, None)
        return (GASPI_SUCCESS, res[1])

    @staticmethod
    def _check_atomic(offset: int) -> None:
        if offset % 8 != 0:
            raise GaspiUsageError(f"atomic offset {offset} not 8-byte aligned")

    # ------------------------------------------------------------------
    # groups and collectives
    # ------------------------------------------------------------------
    def group_create(self, tag: int = 0) -> Group:
        """``gaspi_group_create``; pass the recovery epoch as ``tag``."""
        return Group(tag=tag)

    @staticmethod
    def group_add(group: Group, rank: int) -> None:
        """``gaspi_group_add``."""
        group.add(rank)

    @staticmethod
    def group_add_many(group: Group, ranks: Sequence[int]) -> None:
        """Batched ``gaspi_group_add``: ingest a whole membership array.

        Same validation semantics as per-rank :meth:`group_add` at O(n)
        total cost — the vectorized group-rebuild path.
        """
        group.add_many(ranks)

    def group_commit(self, group: Group, timeout: float = GASPI_BLOCK,
                     recheck: Optional[Callable[[], Any]] = None,
                     ) -> Generator[Any, Any, ReturnCode]:
        """``gaspi_group_commit`` (generator): blocking collective.

        Its cost is linear in group size (connection establishment) — the
        dominant part of the paper's OHF2 rebuild overhead.

        With ``recheck``, a timeout retries the commit inside the kernel
        while the check returns ``None`` (see :class:`repro.sim.WaitEvent`),
        so ``TIMEOUT`` means the check tripped.
        """
        if self.rank not in group:
            raise GaspiUsageError(f"rank {self.rank} commits group it is not part of")
        event = self.world.engine.arrive(
            "commit", group.identity(), group.coll_seq, self.rank,
            group.members,
        )
        ok, _ = yield WaitEvent(event, _clip_timeout(timeout), recheck)
        if not ok:
            return GASPI_TIMEOUT
        group.coll_seq += 1
        group.committed = True
        return GASPI_SUCCESS

    @staticmethod
    def group_delete(group: Group) -> None:
        """``gaspi_group_delete``: the handle must not be used afterwards."""
        group.committed = False

    def barrier(self, group: Optional[Group] = None,
                timeout: float = GASPI_BLOCK,
                recheck: Optional[Callable[[], Any]] = None,
                ) -> Generator[Any, Any, ReturnCode]:
        """``gaspi_barrier`` (generator); ``recheck`` as in :meth:`group_commit`."""
        if group is None:
            group = self.group_all
        group.require_committed()
        event = self.world.engine.arrive(
            "barrier", group.identity(), group.coll_seq, self.rank,
            group.members,
        )
        ok, _ = yield WaitEvent(event, _clip_timeout(timeout), recheck)
        if not ok:
            return GASPI_TIMEOUT
        group.coll_seq += 1
        return GASPI_SUCCESS

    def allreduce(
        self, values: Any, op: AllreduceOp, group: Optional[Group] = None,
        timeout: float = GASPI_BLOCK,
        recheck: Optional[Callable[[], Any]] = None,
    ) -> Generator[Any, Any, Tuple[ReturnCode, Any]]:
        """``gaspi_allreduce`` (generator): returns ``(ret, reduced)``.

        An exact ``int`` (an integer agreement) contributes itself, is
        priced as one int64 element and reduces to an ``int``.  Any other
        ``values`` contributes an array copy and reduces to an ndarray.
        ``recheck`` re-arms the timeout as in :meth:`group_commit`.
        """
        if group is None:
            group = self.group_all
        group.require_committed()
        if type(values) is int:
            # immutable, so no send-buffer copy; priced as one int64
            contribution: Any = values
            nbytes = 8
        else:
            contribution = np.array(values, copy=True)
            nbytes = contribution.nbytes
        event = self.world.engine.arrive(
            "allreduce", group.identity(), group.coll_seq, self.rank,
            group.members, contribution=contribution, finisher=op,
            nbytes=nbytes,
        )
        ok, result = yield WaitEvent(event, _clip_timeout(timeout), recheck)
        if not ok:
            return (GASPI_TIMEOUT, None)
        group.coll_seq += 1
        return (GASPI_SUCCESS, result)

    # ------------------------------------------------------------------
    # fault tolerance surface
    # ------------------------------------------------------------------
    def proc_ping(self, dst_rank: int, timeout: float = GASPI_BLOCK,
                  ) -> Generator[Any, Any, ReturnCode]:
        """GPI-2 extension ``gaspi_proc_ping`` (generator).

        A one-target :meth:`proc_ping_sweep`.  ``SUCCESS`` from a live,
        reachable peer; ``ERROR`` once the transport diagnosed a broken
        channel (the sweep also marks the peer ``CORRUPT`` in the local
        state vector); ``TIMEOUT`` if the caller's own patience ran out
        first.
        """
        _, results = yield from self.proc_ping_sweep((dst_rank,), 1, timeout)
        if results is None:
            return GASPI_TIMEOUT
        return GASPI_ERROR if results.failed else GASPI_SUCCESS

    def proc_ping_sweep(
        self, targets: Sequence[int], width: int = 1,
        timeout: float = GASPI_BLOCK,
    ) -> Generator[Any, Any, Tuple[ReturnCode, Optional["SweepResults"]]]:
        """Batched ``gaspi_proc_ping`` over a whole round (generator).

        Probes ``targets`` with at most ``width`` pings in flight (the FD's
        ``fd_threads`` knob) but blocks the caller **once** for the entire
        sweep rather than once per probe.  Returns ``(ReturnCode, results)``
        with ``results`` a sequence of ``(target, alive, t_start, t_end)``
        tuples in ``targets`` order; targets that did not answer are marked
        ``CORRUPT`` in the state vector.  On ``TIMEOUT`` the results are
        ``None`` and no state is updated.
        """
        if targets and not (0 <= min(targets)
                            and max(targets) < self.world.n_ranks):
            for dst_rank in targets:  # reuse _remote's exact error text
                self._remote(dst_rank)
        done = self.world.transport.post_ping_sweep(self.rank, targets, width)
        ok, res = yield WaitEvent(done, _clip_timeout(timeout))
        if not ok:
            return (GASPI_TIMEOUT, None)
        _ok, results = res
        for dst_rank in results.failed:
            self.state_vector.mark_corrupt(dst_rank)
        return (GASPI_SUCCESS, results)

    def proc_kill(self, dst_rank: int, timeout: float = GASPI_BLOCK,
                  ) -> Generator[Any, Any, ReturnCode]:
        """GPI-2 extension ``gaspi_proc_kill`` (generator).

        Forces the target to die if it is reachable from here (the recovery
        protocol has *every* healthy rank issue the kill, so any working
        path enforces it — this is how false-positive detections are made
        safe).  Returns ``SUCCESS`` also for already-dead targets.
        """
        self._remote(dst_rank)
        done = self.world.transport.post_kill(self.rank, dst_rank)
        ok, _ = yield WaitEvent(done, _clip_timeout(timeout))
        if not ok:
            return GASPI_TIMEOUT
        self.state_vector.mark_corrupt(dst_rank)
        return GASPI_SUCCESS

    def state_vec_get(self) -> np.ndarray:
        """``gaspi_state_vec_get``: copy of the local health vector."""
        return self.state_vector.snapshot()

    def health_of(self, rank: int) -> HealthState:
        return self.state_vector.state_of(rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GaspiContext rank={self.rank}/{self.world.n_ranks}>"
