"""Segments: the registered, remotely-accessible memory of each rank.

A GASPI segment is a contiguous block of memory that one-sided operations
from any rank can read and write.  Here a segment is a NumPy ``uint8``
buffer plus a :class:`NotificationBoard`.  Applications view slices of the
buffer with ``Segment.view(dtype, offset, count)`` — a zero-copy NumPy view,
so a remote write is immediately visible to the owner (exactly the PGAS
property the paper's failure-acknowledgment flags rely on).

World construction is flyweight: a segment's backing buffer and its
notification board are built on first touch, not at registration.  Two
sharing schemes keep a 4096-rank world's setup O(world) instead of
O(ranks):

* an **arena** (:class:`SegmentArena`, one per :class:`GaspiWorld`) backs
  all same-shaped per-rank segments — e.g. every rank's checkpoint mirror
  window — with one pooled allocation grown in a single pass;
* a **template** (read-only array adopted via :meth:`Segment.adopt_template`)
  serves reads of a segment whose initial content is identical on every
  rank — e.g. the FT control block — and is copied on first write.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple, Union

import numpy as np

from repro.gaspi.errors import GaspiUsageError
from repro.gaspi.notifications import NotificationBoard

#: a segment's backing store: a concrete buffer (e.g. an arena slot view)
#: or a zero-argument provider called on first materialisation.
Backing = Union[np.ndarray, Callable[[], np.ndarray]]


class SegmentArena:
    """One pooled backing store for a world's same-shaped rank segments.

    Per-rank data planes (checkpoint mirror windows, replica landing
    windows) used to allocate one private buffer per rank — O(ranks)
    allocations dominating world construction at 4096 ranks.  The arena
    allocates **one** pool per ``(segment_id, slot size)`` shape in a
    single pass, on the first touch of any slot, and hands out aligned
    zero-copy slices.  A slot handed out twice (delete + re-create) is
    re-zeroed so a recycled slot is indistinguishable from a fresh
    buffer.
    """

    #: slot stride alignment (bytes); keeps typed views on slot starts
    #: aligned regardless of the requested slot size
    ALIGN = 64

    __slots__ = ("_pools", "_handed", "allocations")

    def __init__(self) -> None:
        self._pools: Dict[Tuple[int, int], np.ndarray] = {}
        self._handed: Set[Tuple[int, int, int]] = set()
        #: number of pool allocations performed (regression-tested to be
        #: O(distinct segment shapes), never O(ranks))
        self.allocations = 0

    def slot(self, key: int, slot_size: int, n_slots: int,
             index: int) -> np.ndarray:
        """The ``index``-th slot of the ``(key, slot_size)`` pool."""
        if not (0 <= index < n_slots):
            raise GaspiUsageError(
                f"arena slot {index} outside [0, {n_slots}) for key {key}")
        pool_key = (key, slot_size)
        pool = self._pools.get(pool_key)
        stride = -(-slot_size // self.ALIGN) * self.ALIGN
        if pool is None:
            pool = np.zeros(stride * n_slots, dtype=np.uint8)
            self._pools[pool_key] = pool
            self.allocations += 1
        start = index * stride
        view = pool[start:start + slot_size]
        handed_key = (key, slot_size, index)
        if handed_key in self._handed:
            view[:] = 0
        else:
            self._handed.add(handed_key)
        return view


class Segment:
    """One registered memory block owned by one rank.

    The buffer materialises on first touch: reads of a pristine segment
    are served from the (shared, read-only) template when one was
    adopted, or synthesised as zeros; the first write — local or via a
    remote one-sided delivery — allocates/copies the private buffer.
    """

    __slots__ = ("segment_id", "size", "_buf", "_backing", "_template",
                 "_n_notifications", "_notifications", "_cells64")

    def __init__(self, segment_id: int, size: int,
                 n_notifications: int = 1024,
                 backing: Optional[Backing] = None) -> None:
        if size <= 0:
            raise GaspiUsageError(f"segment size must be positive, got {size}")
        self.segment_id = segment_id
        self.size = int(size)
        self._buf: Optional[np.ndarray] = None
        self._backing = backing
        self._template: Optional[np.ndarray] = None
        self._n_notifications = n_notifications
        self._notifications: Optional[NotificationBoard] = None
        self._cells64: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # lazy backing stores
    # ------------------------------------------------------------------
    def _materialize(self) -> np.ndarray:
        backing = self._backing
        if backing is None:
            buf = np.zeros(self.size, dtype=np.uint8)
        elif callable(backing):
            buf = backing()
        else:
            buf = backing
        if buf.nbytes != self.size:
            raise GaspiUsageError(
                f"segment {self.segment_id} backing has {buf.nbytes} bytes, "
                f"expected {self.size}")
        template = self._template
        if template is not None:
            buf[:] = template.view(np.uint8)
        self._buf = buf
        self._backing = None
        self._cells64 = None  # template views must not outlive pristinity
        return buf

    @property
    def buf(self) -> np.ndarray:
        """The private backing buffer (materialises on first access)."""
        buf = self._buf
        if buf is None:
            buf = self._materialize()
        return buf

    @property
    def pristine(self) -> bool:
        """True while no buffer was materialised (no write ever landed)."""
        return self._buf is None

    def adopt_template(self, template: np.ndarray) -> None:
        """Serve reads from a shared read-only array until first write.

        The template must hold the segment's initial content; every rank
        whose segment content starts identical can adopt the *same*
        array, so a 4096-rank world holds one copy instead of 4096.
        """
        if self._buf is not None:
            raise GaspiUsageError(
                f"segment {self.segment_id} already materialised")
        if template.nbytes != self.size:
            raise GaspiUsageError(
                f"template has {template.nbytes} bytes, expected {self.size}")
        self._template = template
        self._cells64 = None

    def cells64(self) -> np.ndarray:
        """Cached whole-segment ``int64`` view (control-block fast path).

        Pristine segments return a **read-only** view of the shared
        template; writers must go through :attr:`buf` (or any write
        method), which materialises and invalidates this cache.
        """
        cells = self._cells64
        if cells is None:
            base: np.ndarray
            if self._buf is not None:
                base = self._buf
            elif self._template is not None:
                base = self._template.view(np.uint8)
            else:
                base = self.buf
            cells = base.view(np.int64)
            self._cells64 = cells
        return cells

    @property
    def notifications(self) -> NotificationBoard:
        """The notification board, built on first touch."""
        board = self._notifications
        if board is None:
            board = self._notifications = NotificationBoard(
                self._n_notifications)
        return board

    # ------------------------------------------------------------------
    def check_range(self, offset: int, nbytes: int) -> None:
        """Validate an access window (raises on out-of-range)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise GaspiUsageError(
                f"access [{offset}, {offset + nbytes}) outside segment "
                f"{self.segment_id} of size {self.size}"
            )

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Snapshot ``nbytes`` at ``offset`` (bounds-checked).

        Returns an immutable copy — the right call when the bytes must
        survive later segment writes (e.g. an in-flight RDMA payload).
        For a zero-copy window consumed immediately, use
        :meth:`read_view`.
        """
        self.check_range(offset, nbytes)
        buf = self._buf
        if buf is None:
            template = self._template
            if template is None:
                return bytes(nbytes)
            return template.view(np.uint8)[offset:offset + nbytes].tobytes()
        return buf[offset:offset + nbytes].tobytes()

    def read_view(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy byte window at ``offset`` (bounds-checked).

        The view aliases live segment memory: remote writes landing after
        this call are visible through it.  Use it for one-pass consumers
        — streaming a checkpoint straight out of the segment with
        ``pack_checkpoint_into`` / ``unpack_checkpoint`` moves the bytes
        exactly once.
        """
        self.check_range(offset, nbytes)
        return memoryview(self.buf)[offset:offset + nbytes]

    def write_view(self, offset: int, nbytes: int) -> memoryview:
        """Writable zero-copy byte window at ``offset`` (bounds-checked).

        The writing counterpart of :meth:`read_view`: the caller copies
        its payload straight into live segment memory (``view[:] = src``)
        with one memcpy and no intermediate array wrapping — the shape
        a doorbell-coalesced delivery callback wants.
        """
        self.check_range(offset, nbytes)
        return memoryview(self.buf)[offset:offset + nbytes]

    def write_bytes(self, offset: int, data: Any) -> None:
        """Copy ``data`` into the segment at ``offset`` (bounds-checked).

        ``data`` is any C-contiguous buffer — ``bytes``, ``bytearray``,
        ``memoryview`` or numpy array — written without intermediate
        conversion copies, so a caller-staged buffer moves bytes once.
        """
        src = np.frombuffer(data, dtype=np.uint8)
        self.check_range(offset, src.nbytes)
        self.buf[offset:offset + src.nbytes] = src

    def view(self, dtype: Any, offset: int = 0,
             count: Optional[int] = None) -> np.ndarray:
        """Zero-copy typed view into the segment.

        ``count`` is in elements of ``dtype``; ``None`` extends to the end
        of the segment (truncated to whole elements).
        """
        dt = np.dtype(dtype)
        if count is None:
            count = (self.size - offset) // dt.itemsize
        nbytes = count * dt.itemsize
        self.check_range(offset, nbytes)
        return self.buf[offset:offset + nbytes].view(dt)


class SegmentTable:
    """The set of segments registered by one rank."""

    def __init__(self) -> None:
        self._segments: Dict[int, Segment] = {}

    def create(self, segment_id: int, size: int, n_notifications: int = 1024,
               backing: Optional[Backing] = None) -> Segment:
        if segment_id in self._segments:
            raise GaspiUsageError(f"segment {segment_id} already exists")
        seg = Segment(segment_id, size, n_notifications, backing=backing)
        self._segments[segment_id] = seg
        return seg

    def get(self, segment_id: int) -> Segment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise GaspiUsageError(f"segment {segment_id} does not exist") from None

    def find(self, segment_id: int) -> Optional[Segment]:
        """The segment if registered, else ``None`` (non-raising lookup)."""
        return self._segments.get(segment_id)

    def delete(self, segment_id: int) -> None:
        if segment_id not in self._segments:
            raise GaspiUsageError(f"segment {segment_id} does not exist")
        del self._segments[segment_id]

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments.values())

    def __len__(self) -> int:
        return len(self._segments)
