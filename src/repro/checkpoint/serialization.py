"""Checkpoint serialization: a self-describing binary container format.

A checkpoint payload is a flat mapping ``name -> numpy array or scalar``.
The container stores, per entry: name, dtype, shape and raw bytes; the
whole container carries a magic, a format version and a CRC32 so that a
torn or corrupted blob is *detected* rather than silently restored — the
property the consistent-version protocol depends on.

The data plane copies each array byte once per direction:

* :func:`packed_size` sizes a payload without touching array data, so
  the container buffer is allocated once, at its final size.
* :func:`pack_checkpoint_into` writes headers and array bytes directly
  into a caller-provided buffer with a streaming CRC32 — array data is
  moved exactly once, with a single ``np.ascontiguousarray``
  normalisation as the only extra copy and only for non-contiguous
  inputs.  :func:`pack_checkpoint` packs into a fresh buffer and returns
  the immutable ``bytes`` the checkpoint stores keep.
* :func:`unpack_checkpoint` parses through memoryviews; with
  ``copy=False`` the returned arrays are read-only views into the blob
  (no byte is copied), with the default ``copy=True`` each array is
  copied exactly once into a writable array.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Mapping, Tuple, Union

import numpy as np

_MAGIC = b"GCKP"
_VERSION = 1
#: magic(4) + version(2) + entry count(4) + crc(4)
_HEADER_SIZE = 14
#: offset of the CRC32 slot inside the header
_CRC_OFFSET = 10

Payload = Mapping[str, Union[np.ndarray, int, float]]


class CheckpointCorrupt(Exception):
    """The blob failed structural or CRC validation."""


#: memoized *complete* header bytes keyed by (name, dtype, shape, nbytes).
#: SPMD checkpoint rounds emit the identical header once per rank per
#: round (only the array bytes differ), so the encode+pack runs once per
#: distinct entry layout; bounded since layouts are few but payloads are
#: caller-controlled
_HDR_MEMO: Dict[Tuple[str, str, Tuple[int, ...], int], bytes] = {}


def packed_size(payload: Payload) -> int:
    """Container size in bytes for ``payload`` (no array data is touched)."""
    total = _HEADER_SIZE
    for name, value in payload.items():
        arr = np.asarray(value)
        total += (13 + len(name.encode("utf-8")) + len(arr.dtype.str)
                  + 8 * arr.ndim + arr.nbytes)
    return total


def _byte_view(buf) -> memoryview:
    """A flat byte view of any buffer-protocol object."""
    mv = memoryview(buf)
    if mv.ndim != 1 or mv.format not in ("B", "b", "c"):
        mv = mv.cast("B")
    return mv


def pack_checkpoint_into(payload: Payload,
                         buf: Union[bytearray, memoryview, np.ndarray]) -> int:
    """Serialize ``payload`` directly into the start of ``buf``.

    ``buf`` is any writable buffer-protocol object (a ``bytearray``, a
    ``memoryview``, a segment slice, a numpy ``uint8`` array).  Array
    bytes move exactly once and the CRC32 is computed streaming as the
    container is written, so no intermediate ``bytes`` object is ever
    built.  Returns the number of bytes written (== :func:`packed_size`).
    """
    mv = _byte_view(buf)
    if mv.readonly:
        raise ValueError("pack_checkpoint_into needs a writable buffer")
    total = packed_size(payload)
    if total > mv.nbytes:
        raise ValueError(
            f"buffer too small: need {total} bytes in a buffer of "
            f"{mv.nbytes} bytes"
        )
    _pack(payload, mv[:total])
    return total


def _pack(payload: Payload, out: memoryview) -> None:
    """Write ``payload``'s container into ``out``, sized exactly for it."""
    out[:4] = _MAGIC
    struct.pack_into("<HI", out, 4, _VERSION, len(payload))
    crc32 = zlib.crc32
    crc = crc32(out[:_CRC_OFFSET])

    pos = _HEADER_SIZE
    for name, value in payload.items():
        arr = np.asarray(value)
        if not arr.flags.c_contiguous:
            # the single normalisation copy (read-only inputs stay as-is:
            # they are only ever read from)
            arr = np.ascontiguousarray(arr)
        hkey = (name, arr.dtype.str, arr.shape, arr.nbytes)
        header = _HDR_MEMO.get(hkey)
        if header is None:
            # '<' disables alignment padding: the fields land back to
            # back, as the container format lays them out
            name_b = name.encode("utf-8")
            dtype_b = arr.dtype.str.encode("ascii")
            header = struct.pack(
                f"<HH{len(name_b)}s{len(dtype_b)}sB{arr.ndim}qq",
                len(name_b), len(dtype_b), name_b, dtype_b, arr.ndim,
                *arr.shape, arr.nbytes)
            if len(_HDR_MEMO) < 4096:
                _HDR_MEMO[hkey] = header
        end = pos + len(header)
        out[pos:end] = header
        crc = crc32(header, crc)
        pos = end
        if arr.nbytes:
            end = pos + arr.nbytes
            # the source view feeds both the copy and the CRC: same bytes
            # as re-reading the destination slice, one fewer traversal
            data = memoryview(arr).cast("B")
            out[pos:end] = data
            crc = crc32(data, crc)
            pos = end
    struct.pack_into("<I", out, _CRC_OFFSET, crc & 0xFFFFFFFF)


def pack_checkpoint(payload: Payload) -> bytes:
    """Serialize a payload mapping into a checksummed container."""
    buf = bytearray(packed_size(payload))
    _pack(payload, memoryview(buf))
    return bytes(buf)


def unpack_checkpoint(
    blob: Union[bytes, bytearray, memoryview, np.ndarray],
    copy: bool = True,
) -> Dict[str, np.ndarray]:
    """Parse a container back into ``{name: array}`` (CRC-validated).

    The CRC32 check makes a successful unpack a *proof of byte
    identity* with the packed payload — the property the replicated
    backend's lose-``k``-and-recover tests assert on.

    ``blob`` is any buffer-protocol object.  With the default
    ``copy=True`` every array is an independent writable copy (one copy
    per array, no intermediate ``bytes``).  With ``copy=False`` the
    arrays are *read-only memoryview-backed views into the blob* — zero
    bytes are copied, but the arrays alias the blob's storage and must
    not outlive it.
    """
    mv = _byte_view(blob)
    size = mv.nbytes
    if size < _HEADER_SIZE or bytes(mv[:4]) != _MAGIC:
        raise CheckpointCorrupt("bad magic / truncated header")
    version, n_entries = struct.unpack_from("<HI", mv, 4)
    if version != _VERSION:
        raise CheckpointCorrupt(f"unsupported container version {version}")
    (crc_stored,) = struct.unpack_from("<I", mv, _CRC_OFFSET)
    crc = zlib.crc32(mv[:_CRC_OFFSET])
    crc = zlib.crc32(mv[_HEADER_SIZE:], crc) & 0xFFFFFFFF
    if crc != crc_stored:
        raise CheckpointCorrupt("CRC mismatch")

    out: Dict[str, np.ndarray] = {}
    off = _HEADER_SIZE
    for _ in range(n_entries):
        try:
            name_len, dtype_len = struct.unpack_from("<HH", mv, off)
            off += 4
            if off + name_len + dtype_len > size:
                raise CheckpointCorrupt("truncated entry header")
            name = bytes(mv[off : off + name_len]).decode("utf-8")
            off += name_len
            dtype = np.dtype(bytes(mv[off : off + dtype_len]).decode("ascii"))
            off += dtype_len
            (ndim,) = struct.unpack_from("<B", mv, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}q", mv, off)
            off += 8 * ndim
            (nbytes,) = struct.unpack_from("<q", mv, off)
            off += 8
        except struct.error as exc:
            raise CheckpointCorrupt(f"truncated entry header: {exc}") from exc
        if nbytes < 0 or off + nbytes > size:
            raise CheckpointCorrupt("truncated entry data")
        arr = np.frombuffer(mv[off : off + nbytes], dtype=dtype).reshape(shape)
        off += nbytes
        out[name] = arr.copy() if copy else arr
    return out
