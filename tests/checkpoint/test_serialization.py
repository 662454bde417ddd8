"""Tests for the checkpoint container format, including corruption handling."""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointCorrupt,
    pack_checkpoint,
    pack_checkpoint_into,
    packed_size,
    unpack_checkpoint,
)


def test_roundtrip_arrays_and_scalars():
    payload = {
        "vec": np.arange(10, dtype=np.float64),
        "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
        "iteration": 42,
        "beta": 3.25,
    }
    out = unpack_checkpoint(pack_checkpoint(payload))
    assert set(out) == set(payload)
    assert np.array_equal(out["vec"], payload["vec"])
    assert out["matrix"].shape == (2, 3)
    assert out["matrix"].dtype == np.float32
    assert out["iteration"] == 42
    assert out["beta"] == 3.25


def test_roundtrip_empty_payload():
    assert unpack_checkpoint(pack_checkpoint({})) == {}


def test_roundtrip_empty_array():
    out = unpack_checkpoint(pack_checkpoint({"x": np.zeros(0)}))
    assert out["x"].shape == (0,)


def test_roundtrip_unicode_names_and_int_dtypes():
    payload = {"αβ": np.array([1, 2, 3], dtype=np.int32)}
    out = unpack_checkpoint(pack_checkpoint(payload))
    assert np.array_equal(out["αβ"], [1, 2, 3])
    assert out["αβ"].dtype == np.int32


def test_unpacked_arrays_are_writable_copies():
    blob = pack_checkpoint({"x": np.arange(4.0)})
    out = unpack_checkpoint(blob)
    out["x"][0] = 99.0  # must not raise (frombuffer alone would be read-only)


def test_bad_magic_rejected():
    with pytest.raises(CheckpointCorrupt, match="magic"):
        unpack_checkpoint(b"XXXX" + b"\0" * 20)


def test_truncated_blob_rejected():
    blob = pack_checkpoint({"x": np.arange(100.0)})
    with pytest.raises(CheckpointCorrupt):
        unpack_checkpoint(blob[: len(blob) // 2])


def test_single_flipped_bit_detected():
    blob = bytearray(pack_checkpoint({"x": np.arange(100.0)}))
    blob[len(blob) // 2] ^= 0x01
    with pytest.raises(CheckpointCorrupt, match="CRC"):
        unpack_checkpoint(bytes(blob))


def test_wrong_version_rejected():
    blob = bytearray(pack_checkpoint({"x": np.arange(4.0)}))
    blob[4] = 99  # version field
    with pytest.raises(CheckpointCorrupt, match="version"):
        unpack_checkpoint(bytes(blob))


# ----------------------------------------------------------------------
# zero-copy pack path
# ----------------------------------------------------------------------
def _sample_payload():
    return {
        "vec": np.arange(100, dtype=np.float64),
        "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
        "it": 7,
    }


def test_pack_into_matches_pack_checkpoint():
    payload = _sample_payload()
    buf = bytearray(packed_size(payload))
    written = pack_checkpoint_into(payload, buf)
    assert written == packed_size(payload) == len(buf)
    assert bytes(buf) == pack_checkpoint(payload)


def test_pack_into_numpy_buffer_and_memoryview():
    payload = _sample_payload()
    size = packed_size(payload)
    seg = np.zeros(size + 8, dtype=np.uint8)
    pack_checkpoint_into(payload, seg)
    assert unpack_checkpoint(seg.tobytes()[:size]).keys() == payload.keys()
    mv = memoryview(bytearray(size))
    pack_checkpoint_into(payload, mv)
    assert bytes(mv) == pack_checkpoint(payload)


def test_pack_into_rejects_readonly_and_small_buffers():
    payload = _sample_payload()
    with pytest.raises(ValueError, match="writable"):
        pack_checkpoint_into(payload, b"\0" * packed_size(payload))
    with pytest.raises(ValueError, match="too small"):
        pack_checkpoint_into(payload, bytearray(packed_size(payload) - 1))


def test_pack_accepts_noncontiguous_fortran_and_readonly():
    strided = np.arange(20.0)[::2]
    fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    readonly = np.arange(5.0)
    readonly.setflags(write=False)
    payload = {"s": strided, "f": fortran, "r": readonly}
    out = unpack_checkpoint(pack_checkpoint(payload))
    assert np.array_equal(out["s"], strided)
    assert np.array_equal(out["f"], fortran)
    assert out["f"].shape == (3, 4)
    assert np.array_equal(out["r"], readonly)


def test_zero_dim_scalar_roundtrip():
    payload = {"step": np.int64(42), "t": np.float64(1.5), "plain": 3}
    out = unpack_checkpoint(pack_checkpoint(payload))
    assert out["step"].shape == ()
    assert int(out["step"]) == 42
    assert float(out["t"]) == 1.5
    assert int(out["plain"]) == 3


def test_contiguous_input_never_normalised(monkeypatch):
    """C-contiguous arrays must take the direct path: zero extra copies."""
    import repro.checkpoint.serialization as ser

    calls = []
    real = np.ascontiguousarray

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(ser.np, "ascontiguousarray", counting)
    pack_checkpoint({"a": np.arange(8.0), "b": np.int64(1)})
    assert calls == []
    pack_checkpoint({"nc": np.arange(16.0)[::2]})
    assert calls == [(8,)]  # exactly one normalisation, only when needed


# ----------------------------------------------------------------------
# zero-copy unpack path
# ----------------------------------------------------------------------
def test_unpack_no_copy_is_readonly_and_aliases_blob():
    payload = {"x": np.arange(16.0)}
    blob = pack_checkpoint(payload)
    out = unpack_checkpoint(blob, copy=False)
    assert not out["x"].flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        out["x"][0] = 1.0
    assert np.shares_memory(out["x"], np.frombuffer(blob, dtype=np.uint8))
    assert np.array_equal(out["x"], payload["x"])


def test_unpack_accepts_memoryview_and_bytearray():
    payload = _sample_payload()
    blob = pack_checkpoint(payload)
    for alias in (bytearray(blob), memoryview(blob), np.frombuffer(blob, np.uint8)):
        out = unpack_checkpoint(alias)
        assert np.array_equal(out["vec"], payload["vec"])


def test_truncated_header_under_fourteen_bytes():
    blob = pack_checkpoint({"x": np.arange(4.0)})
    for n in range(14):
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(blob[:n])


def test_truncation_never_yields_partial_payload():
    """Any prefix of a valid blob raises — no partial dict ever escapes."""
    blob = pack_checkpoint({"a": np.arange(8.0), "b": np.arange(4.0)})
    for n in range(len(blob)):
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(blob[:n])


def test_flipped_byte_mid_array_detected():
    payload = {"a": np.arange(64.0)}
    blob = bytearray(pack_checkpoint(payload))
    blob[-30] ^= 0xFF  # well inside the array data
    with pytest.raises(CheckpointCorrupt, match="CRC"):
        unpack_checkpoint(bytes(blob))
