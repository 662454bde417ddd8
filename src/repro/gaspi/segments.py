"""Segments: the registered, remotely-accessible memory of each rank.

A GASPI segment is a contiguous block of memory that one-sided operations
from any rank can read and write.  Here a segment is a NumPy ``uint8``
buffer plus a :class:`NotificationBoard`.  Applications view slices of the
buffer with ``Segment.view(dtype, offset, count)`` — a zero-copy NumPy view,
so a remote write is immediately visible to the owner (exactly the PGAS
property the paper's failure-acknowledgment flags rely on).

World construction is flyweight: a segment's backing buffer and its
notification board are built on first touch, not at registration.  Until
then, an **image** — immutable ``bytes`` that a pristine segment adopts
when a write covers it whole — serves reads, so a partial write (or a
writable view) is what needs a private buffer.  Every rank whose segment
receives the same whole-segment payload shares one object: the FT control
block's initial content, each broadcast failure notice and the done flag.
That keeps a 4096-rank world's control blocks O(world) instead of
O(ranks).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

import numpy as np

from repro.gaspi.errors import GaspiUsageError
from repro.gaspi.notifications import NotificationBoard


class Segment:
    """One registered memory block owned by one rank.

    The buffer materialises on first touch: reads of a pristine segment
    are served from its image — the last whole-segment ``bytes`` payload
    written into it, shared with whoever else holds that object — or
    synthesised as zeros.  A whole-segment ``bytes`` write into a
    pristine segment adopts the payload as the new image, with no copy;
    any other write, local or via a remote one-sided delivery, and any
    writable view, copies the image into the private buffer first.
    """

    __slots__ = ("segment_id", "size", "_buf", "_image",
                 "_n_notifications", "_notifications", "_cells64")

    def __init__(self, segment_id: int, size: int,
                 n_notifications: int = 1024) -> None:
        if size <= 0:
            raise GaspiUsageError(f"segment size must be positive, got {size}")
        self.segment_id = segment_id
        self.size = int(size)
        self._buf: Optional[np.ndarray] = None
        self._image: Optional[bytes] = None
        self._n_notifications = n_notifications
        self._notifications: Optional[NotificationBoard] = None
        self._cells64: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # lazy backing buffer
    # ------------------------------------------------------------------
    def _materialize(self) -> np.ndarray:
        buf = np.zeros(self.size, dtype=np.uint8)
        image = self._image
        if image is not None:
            buf[:] = np.frombuffer(image, dtype=np.uint8)
            self._image = None
        self._buf = buf
        self._cells64 = None  # image views must not outlive pristinity
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
        """True while no private buffer was materialised (reads are served
        from the image, if one landed, or as zeros)."""
        return self._buf is None

    def cells64(self) -> np.ndarray:
        """Cached whole-segment ``int64`` view (control-block fast path).

        Pristine segments return a **read-only** view of the image;
        writers must go through :attr:`buf` (or any write method), which
        materialises, or replaces the image, and invalidates this cache.
        """
        cells = self._cells64
        if cells is None:
            if self._buf is None and self._image is not None:
                cells = np.frombuffer(self._image, dtype=np.int64)
            else:
                cells = self.buf.view(np.int64)
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

        Returns immutable bytes, shared for a whole pristine segment (its
        image object itself) — the right call when the bytes must survive
        later segment writes (e.g. an in-flight RDMA payload).
        """
        self.check_range(offset, nbytes)
        buf = self._buf
        if buf is None:
            image = self._image
            if image is None:
                return bytes(nbytes)
            if nbytes == self.size:
                return image
            return image[offset:offset + nbytes]
        return buf[offset:offset + nbytes].tobytes()

    def write_bytes(self, offset: int, data: Any) -> None:
        """Copy ``data`` into the segment at ``offset`` (bounds-checked).

        ``data`` is any C-contiguous buffer — ``bytes``, ``bytearray``,
        ``memoryview`` or numpy array — written without intermediate
        conversion copies, so a caller-staged buffer moves bytes once.
        A pristine segment adopts a whole-segment ``bytes`` payload as its
        image instead: immutable, so sharing it needs no copy at all.
        Mutable buffers are always copied (their owner may still change
        them), and so is every write into a materialised segment, whose
        buffer may back live views.
        """
        if (type(data) is bytes and offset == 0 and len(data) == self.size
                and self._buf is None):
            self._image = data
            self._cells64 = None
            return
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

    def create(self, segment_id: int, size: int,
               n_notifications: int = 1024) -> Segment:
        if segment_id in self._segments:
            raise GaspiUsageError(f"segment {segment_id} already exists")
        seg = Segment(segment_id, size, n_notifications)
        self._segments[segment_id] = seg
        return seg

    def get(self, segment_id: int) -> Segment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise GaspiUsageError(f"segment {segment_id} does not exist") from None

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
