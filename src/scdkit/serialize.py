"""Portable on-disk formats: single tensors and named-tensor checkpoints.

A tensor file is the magic ``GTNSR1``, the rank and each dim as u64, then the
float64 payload, all little-endian and C-order. A checkpoint is the magic
``GCKPT1``, a u64 entry count, an index of (name length u64, utf-8 name,
absolute offset u64, byte count u64) records, then the concatenated tensor
blobs. Entries are written in sorted name order so identical state always
produces identical bytes.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .errors import FormatError

__all__ = [
    "tensor_to_bytes",
    "tensor_from_bytes",
    "write_tensor",
    "read_tensor",
    "save_checkpoint",
    "load_checkpoint",
]

TENSOR_MAGIC = b"GTNSR1"
CHECKPOINT_MAGIC = b"GCKPT1"

_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")


def _pack_u64(*values: int) -> bytes:
    return np.asarray(values, dtype=_U64).tobytes()


def _read_u64(buf: bytes, offset: int, count: int) -> tuple[tuple[int, ...], int]:
    end = offset + 8 * count
    if end > len(buf):
        raise FormatError("truncated header")
    vals = np.frombuffer(buf, dtype=_U64, count=count, offset=offset)
    return tuple(int(v) for v in vals), end


def tensor_to_bytes(array: np.ndarray) -> bytes:
    arr = np.asarray(array, dtype=np.float64, order="C")
    header = TENSOR_MAGIC + _pack_u64(arr.ndim, *arr.shape)
    return header + arr.astype(_F64, copy=False).tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one serialized tensor at ``offset``; return (array, end offset)."""
    if buf[offset:offset + 6] != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic at offset {offset}")
    (rank,), pos = _read_u64(buf, offset + 6, 1)
    if rank > 32:
        raise FormatError(f"implausible tensor rank {rank}")
    shape, pos = _read_u64(buf, pos, rank)
    count = 1
    for d in shape:
        count *= d
    end = pos + 8 * count
    if end > len(buf):
        raise FormatError("truncated tensor payload")
    data = np.frombuffer(buf, dtype=_F64, count=count, offset=pos)
    try:
        # an empty payload passes the length check with any other dims
        return data.astype(np.float64).reshape(shape), end
    except ValueError as exc:
        raise FormatError(f"tensor shape {shape} is not representable: {exc}") from exc


def write_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(array))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes")
    return arr


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors as one checkpoint file (atomic rename)."""
    names = sorted(tensors)
    blobs = []
    for name in names:
        if not name:
            raise FormatError("checkpoint entry names must be non-empty")
        blobs.append(tensor_to_bytes(tensors[name]))

    # two passes: index size depends only on the names
    index_size = sum(8 + len(n.encode("utf-8")) + 16 for n in names)
    offset = len(CHECKPOINT_MAGIC) + 8 + index_size
    index = io.BytesIO()
    for name, blob in zip(names, blobs):
        raw = name.encode("utf-8")
        index.write(_pack_u64(len(raw)))
        index.write(raw)
        index.write(_pack_u64(offset, len(blob)))
        offset += len(blob)

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_pack_u64(len(names)))
        fh.write(index.getvalue())
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:6] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    (count,), pos = _read_u64(buf, 6, 1)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), pos = _read_u64(buf, pos, 1)
        raw = buf[pos:pos + name_len]
        if len(raw) != name_len:
            raise FormatError("truncated checkpoint index")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("checkpoint entry name is not valid utf-8") from exc
        pos += name_len
        (offset, nbytes), pos = _read_u64(buf, pos, 2)
        if offset + nbytes > len(buf):
            raise FormatError(f"checkpoint entry {name!r} points past end of file")
        arr, end = tensor_from_bytes(buf, offset)
        if end != offset + nbytes:
            raise FormatError(f"checkpoint entry {name!r} has inconsistent length")
        if name in out:
            raise FormatError(f"duplicate checkpoint entry {name!r}")
        out[name] = arr
    return out
