"""Binary checkpoint files: a JSON config blob plus named float32 tensors.

Layout (all integers little-endian):

    magic "TXRC" | u32 version | u32 json_len | config JSON (UTF-8)
    u32 n_tensors | entries... | u32 CRC32 of everything before it

    entry: u16 name_len | name UTF-8 | u8 dtype_tag (0 = float32)
           | u8 ndim | u32 per dim | raw little-endian payload

Writes are deterministic for identical inputs, so saved bytes round-trip
bit-for-bit through load and save.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"TXRC"
VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4")}


def save_checkpoint(path: str | Path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write config and tensors; tensor order follows dict insertion order."""
    blob = json.dumps(config, ensure_ascii=False, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        name_b = name.encode("utf-8")
        out += struct.pack("<H", len(name_b))
        out += name_b
        out += struct.pack("<BB", 0, data.ndim)
        for dim in data.shape:
            out += struct.pack("<I", dim)
        out += data.tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint, verifying magic, version, structure, and CRC."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    actual_crc = zlib.crc32(raw[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(f"{path} failed its integrity check "
                              f"(crc {actual_crc:08x} != stored {stored_crc:08x})")
    off = 4
    version, = struct.unpack_from("<I", raw, off); off += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    json_len, = struct.unpack_from("<I", raw, off); off += 4
    try:
        config = json.loads(raw[off : off + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt config blob ({e})") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob is not a JSON object")
    off += json_len
    n_tensors, = struct.unpack_from("<I", raw, off); off += 4
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(n_tensors):
            name_len, = struct.unpack_from("<H", raw, off); off += 2
            name = raw[off : off + name_len].decode("utf-8"); off += name_len
            tag, ndim = struct.unpack_from("<BB", raw, off); off += 2
            if tag not in _DTYPE_TAGS:
                raise CheckpointError(f"{path}: unknown dtype tag {tag} for '{name}'")
            shape = struct.unpack_from(f"<{ndim}I", raw, off) if ndim else ()
            off += 4 * ndim
            dt = _DTYPE_TAGS[tag]
            n_bytes = math.prod(shape) * dt.itemsize
            if off + n_bytes > len(raw) - 4:
                raise CheckpointError(f"{path}: tensor '{name}' of shape {tuple(shape)} "
                                      f"overruns the payload")
            arr = np.frombuffer(raw, dtype=dt, count=n_bytes // dt.itemsize, offset=off)
            tensors[name] = arr.reshape(shape).astype(np.float32)
            off += n_bytes
    except (struct.error, UnicodeDecodeError):
        raise CheckpointError(f"{path}: truncated or corrupt tensor directory") from None
    if off != len(raw) - 4:
        raise CheckpointError(f"{path}: trailing bytes after tensor directory")
    return config, tensors
