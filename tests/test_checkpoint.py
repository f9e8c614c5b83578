"""Binary checkpoint format: round trips, determinism, corruption detection."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from txrec.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from txrec.errors import CheckpointError


def _payload():
    rng = np.random.default_rng(0)
    config = {"kind": "model", "d": 8, "note": "žluťoučký"}
    tensors = {
        "emb.token": rng.normal(size=(5, 8)).astype(np.float32),
        "scalar": np.float32(3.25).reshape(()),
        "layer0.ffn.w1": rng.normal(size=(8, 16)).astype(np.float32),
    }
    return config, tensors


def test_round_trip_is_bit_exact(tmp_path):
    config, tensors = _payload()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config, tensors)
    config2, tensors2 = load_checkpoint(path)
    assert config2 == config
    assert list(tensors2) == list(tensors)  # order preserved
    for name in tensors:
        assert tensors2[name].dtype == np.float32
        npt.assert_array_equal(tensors2[name], tensors[name])


def test_save_load_save_produces_identical_bytes(tmp_path):
    config, tensors = _payload()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, config, tensors)
    save_checkpoint(p2, *load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_repeated_saves_are_deterministic(tmp_path):
    config, tensors = _payload()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, config, tensors)
    save_checkpoint(p2, config, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_key_order_does_not_change_bytes(tmp_path):
    _, tensors = _payload()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, {"x": 1, "a": [1, 2]}, tensors)
    save_checkpoint(p2, {"a": [1, 2], "x": 1}, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_float64_input_is_stored_as_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {"w": np.array([1.0, 2.5], dtype=np.float64)})
    _, tensors = load_checkpoint(path)
    assert tensors["w"].dtype == np.float32
    npt.assert_array_equal(tensors["w"], [1.0, 2.5])


def test_magic_and_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"k": 1}, {})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == VERSION
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4]) & 0xFFFFFFFF


def test_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "nope.ckpt"
    path.write_bytes(b"PK\x03\x04 definitely a zip file pretending")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_detects_payload_corruption(tmp_path):
    config, tensors = _payload()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config, tensors)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="integrity"):
        load_checkpoint(path)


def test_detects_truncation(tmp_path):
    config, tensors = _payload()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config, tensors)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {})
    raw = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", raw, 4, 99)  # bump the version, re-sign the crc
    raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {"w": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())[:-4]
    raw += b"\x00\x00\x00\x00"  # junk the directory end, then re-sign
    raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {})
    config, tensors = load_checkpoint(path)
    assert config == {} and tensors == {}


def test_unicode_names_and_values_survive(tmp_path):
    path = tmp_path / "m.ckpt"
    config = {"vocab_tokens": ["čaj", "κήπος", "茶"]}
    tensors = {"emb/λ": np.arange(3, dtype=np.float32)}
    save_checkpoint(path, config, tensors)
    config2, tensors2 = load_checkpoint(path)
    assert config2 == config
    npt.assert_array_equal(tensors2["emb/λ"], [0, 1, 2])


def test_rejects_a_tensor_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {"w": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())[:-4]
    name_at = raw.index(b"w", 4 + 4 + 4 + 2 + 4)  # after magic, version, json, "{}", count
    raw[name_at] = 0xFF  # a lone continuation byte, then re-sign
    raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="corrupt tensor directory"):
        load_checkpoint(path)


def test_rejects_a_config_blob_that_overruns_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {})
    raw = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", raw, 8, 6)  # "{}" plus the tensor count, then re-sign
    raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="config blob of 6 bytes overruns the file"):
        load_checkpoint(path)
