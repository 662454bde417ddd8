"""Unit tests for segments and notification boards (no simulator needed)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaspi import GaspiUsageError, NotificationBoard, Segment, SegmentTable


class TestSegment:
    def test_zero_initialised(self):
        seg = Segment(0, 64)
        assert seg.size == 64
        assert not seg.buf.any()

    def test_read_write_roundtrip(self):
        seg = Segment(0, 64)
        seg.write_bytes(8, b"hello")
        assert seg.read_bytes(8, 5) == b"hello"
        assert seg.read_bytes(0, 8) == b"\0" * 8

    def test_bounds_checked(self):
        seg = Segment(0, 16)
        with pytest.raises(GaspiUsageError):
            seg.read_bytes(10, 8)
        with pytest.raises(GaspiUsageError):
            seg.write_bytes(-1, b"x")
        with pytest.raises(GaspiUsageError):
            seg.write_bytes(16, b"x")

    def test_view_is_zero_copy(self):
        seg = Segment(0, 64)
        view = seg.view(np.float64, offset=8, count=4)
        view[:] = [1.0, 2.0, 3.0, 4.0]
        again = seg.view(np.float64, offset=8, count=4)
        assert list(again) == [1.0, 2.0, 3.0, 4.0]

    def test_view_default_count_extends_to_end(self):
        seg = Segment(0, 64)
        assert seg.view(np.float64).shape == (8,)
        assert seg.view(np.int32, offset=4).shape == (15,)

    def test_view_bounds_checked(self):
        seg = Segment(0, 16)
        with pytest.raises(GaspiUsageError):
            seg.view(np.float64, offset=0, count=3)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GaspiUsageError):
            Segment(0, 0)

    def test_write_bytes_accepts_any_buffer(self):
        seg = Segment(0, 64)
        seg.write_bytes(0, bytearray(b"abcd"))
        seg.write_bytes(4, memoryview(b"efgh"))
        seg.write_bytes(8, np.frombuffer(b"ijkl", dtype=np.uint8))
        assert seg.read_bytes(0, 12) == b"abcdefghijkl"

    def test_read_bytes_is_a_snapshot(self):
        seg = Segment(0, 16)
        seg.write_bytes(0, b"before")
        snap = seg.read_bytes(0, 6)
        seg.write_bytes(0, b"after!")
        assert snap == b"before"


#: the mutable buffer kinds a payload can arrive as (each is copied)
MUTABLE_KINDS = {
    "bytearray": bytearray,
    "memoryview": lambda b: memoryview(bytearray(b)),
    "ndarray": lambda b: np.frombuffer(b, dtype=np.uint8).copy(),
}
KINDS = {"bytes": bytes, **MUTABLE_KINDS}


class TestImageAdoption:
    """A whole-segment ``bytes`` write into a pristine segment adopts the
    payload as the segment's image, without allocating or copying."""

    def test_whole_bytes_write_stays_pristine_and_is_shared(self):
        seg = Segment(0, 16)
        image = bytes(range(16))
        seg.write_bytes(0, image)
        assert seg.pristine
        assert seg.read_bytes(0, 16) is image
        assert seg.read_bytes(4, 4) == image[4:8]  # partial reads slice it
        cells = seg.cells64()
        assert not cells.flags.writeable
        assert cells.tobytes() == image

    def test_later_whole_bytes_write_replaces_the_image(self):
        seg = Segment(0, 16)
        seg.write_bytes(0, bytes(16))
        seg.cells64()
        again = b"\x07" * 16
        seg.write_bytes(0, again)
        assert seg.pristine and seg.read_bytes(0, 16) is again
        assert seg.cells64().tobytes() == again  # the cached view was reset

    def test_partial_bytes_write_materialises(self):
        seg = Segment(0, 16)
        seg.write_bytes(0, b"\x01" * 16)
        seg.write_bytes(4, b"ab")
        assert not seg.pristine
        assert seg.read_bytes(0, 16) == b"\x01" * 4 + b"ab" + b"\x01" * 10

    @pytest.mark.parametrize("kind", sorted(MUTABLE_KINDS))
    def test_whole_mutable_write_materialises_a_copy(self, kind):
        seg = Segment(0, 16)
        payload = MUTABLE_KINDS[kind](bytes(range(16)))
        seg.write_bytes(0, payload)
        assert not seg.pristine
        payload[0] = 99  # the sender may still change its buffer
        assert seg.read_bytes(0, 16) == bytes(range(16))

    def test_whole_bytes_write_into_materialised_segment_is_in_place(self):
        seg = Segment(0, 16)
        view = seg.view(np.uint8)
        buf = seg.buf
        image = bytes(range(16, 32))
        seg.write_bytes(0, image)
        assert seg.buf is buf and not seg.pristine
        assert view.tobytes() == image
        assert seg.read_bytes(0, 16) is not image


_SIZE = 32

_write = st.tuples(
    st.just("write"), st.sampled_from(sorted(KINDS)), st.booleans(),
    st.integers(0, _SIZE - 1), st.binary(min_size=1, max_size=_SIZE))
_window = st.integers(0, _SIZE).flatmap(
    lambda off: st.tuples(st.just(off), st.integers(0, _SIZE - off)))
_read = st.tuples(st.sampled_from(["read_bytes", "view"]), _window)
_cells = st.tuples(st.just("cells64"))


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(_write, _read, _cells), max_size=25))
def test_segment_matches_a_bytearray_model(ops):
    """Any interleaving of whole/partial writes from any buffer kind and
    every read path reads exactly what a plain ``bytearray`` holds; live
    views keep tracking it, and snapshots never change."""
    seg = Segment(0, _SIZE)
    model = bytearray(_SIZE)
    live = []       # (offset, view) pairs that alias the segment memory
    snapshots = []  # (bytes, expected) pairs that must never change
    for op in ops:
        if op[0] == "write":
            _, kind, whole, offset, payload = op
            if whole:
                offset, payload = 0, (payload * _SIZE)[:_SIZE]
            payload = payload[:_SIZE - offset]
            data = KINDS[kind](payload)
            seg.write_bytes(offset, data)
            model[offset:offset + len(payload)] = payload
            if kind != "bytes":
                data[0] ^= 0xFF  # mutating the source must not show
        elif op[0] == "cells64":
            assert seg.cells64().tobytes() == model
        else:
            name, (offset, nbytes) = op
            if name == "read_bytes":
                snap = seg.read_bytes(offset, nbytes)
                assert type(snap) is bytes
                snapshots.append((snap, bytes(model[offset:offset + nbytes])))
            else:
                live.append((offset, seg.view(np.uint8, offset, nbytes)))
        assert seg.read_bytes(0, _SIZE) == model
        for offset, view in live:
            assert bytes(view) == model[offset:offset + len(view)]
    for snap, expected in snapshots:
        assert snap == expected


class TestSegmentTable:
    def test_create_get_delete(self):
        table = SegmentTable()
        seg = table.create(3, 128)
        assert table.get(3) is seg
        assert 3 in table
        assert len(table) == 1
        table.delete(3)
        assert 3 not in table

    def test_duplicate_id_rejected(self):
        table = SegmentTable()
        table.create(0, 16)
        with pytest.raises(GaspiUsageError):
            table.create(0, 16)

    def test_missing_segment_rejected(self):
        table = SegmentTable()
        with pytest.raises(GaspiUsageError):
            table.get(9)
        with pytest.raises(GaspiUsageError):
            table.delete(9)


class TestNotificationBoard:
    def test_post_and_pending(self):
        board = NotificationBoard(16)
        assert board.pending_in(0, 16) == -1
        board.post(5, 42)
        assert board.pending_in(0, 16) == 5
        assert board.pending_in(6, 10) == -1

    def test_lowest_pending_returned(self):
        board = NotificationBoard(16)
        board.post(9, 1)
        board.post(3, 1)
        assert board.pending_in(0, 16) == 3

    def test_reset_consumes_value(self):
        board = NotificationBoard(8)
        board.post(2, 77)
        assert board.reset(2) == 77
        assert board.reset(2) == 0
        assert board.pending_in(0, 8) == -1

    def test_zero_value_rejected(self):
        board = NotificationBoard(8)
        with pytest.raises(GaspiUsageError):
            board.post(0, 0)

    def test_out_of_range_rejected(self):
        board = NotificationBoard(8)
        with pytest.raises(GaspiUsageError):
            board.post(8, 1)
        with pytest.raises(GaspiUsageError):
            board.pending_in(0, 9)
        with pytest.raises(GaspiUsageError):
            board.pending_in(4, 0)

    def test_subscriber_woken_only_for_its_range(self):
        board = NotificationBoard(16)
        ev_low = board.subscribe(0, 4)
        ev_high = board.subscribe(8, 4)
        board.post(9, 1)
        assert not ev_low.fired
        assert ev_high.fired and ev_high.value == 9

    def test_unsubscribe(self):
        board = NotificationBoard(16)
        ev = board.subscribe(0, 16)
        board.unsubscribe(ev)
        board.post(0, 1)
        assert not ev.fired
