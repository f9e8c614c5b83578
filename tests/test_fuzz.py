"""Property fuzzing of the readers of untrusted files.

A corrupt or crafted checkpoint may only raise CheckpointError (a
`recommend` from it ends in 0 or exit 4), and a junk line in an items or
interactions file may only raise DataError, so every bad input reaches the
CLI's documented exit code instead of a traceback. Runs are derandomized
with a fixed example budget, so the suite stays repeatable.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from txrec.catalog import load_interactions_jsonl, load_items_jsonl
from txrec.checkpoint import load_checkpoint, save_checkpoint
from txrec.cli import main
from txrec.errors import DataError

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def model_ckpt(tmp_path_factory) -> Path:
    """A small finetuned model checkpoint that stores its item matrix."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert main(["make-synthetic", "--out", str(corpus), "--seed", "2", "--domains", "1",
                 "--items-per-domain", "12", "--users", "8"]) == 0
    data = corpus / "domain_00"
    config = root / "config.json"
    config.write_text(json.dumps({
        "data": {"items": str(data / "items.jsonl"),
                 "interactions": str(data / "interactions.jsonl")},
        "encoder": {"d": 4, "n_layers": 1, "n_heads": 2, "window": 2, "ffn_dim": 4,
                    "max_tokens": 24, "max_items": 3},
        "train": {"n_epochs": 1, "patience": 1},
    }))
    pre, fine = root / "pre.ckpt", root / "fine.ckpt"
    assert main(["pretrain", "--config", str(config), "--out", str(pre)]) == 0
    assert main(["finetune", "--config", str(config), "--init", str(pre),
                 "--out", str(fine)]) == 0
    return fine


def _recommend(model_ckpt: Path, path: Path) -> int:
    """Exit code of serving from `path`: a checkpoint that loads must also serve."""
    items = model_ckpt.parent / "corpus" / "domain_00" / "items.jsonl"
    return main(["recommend", "--ckpt", str(path), "--items", str(items),
                 "--history", "d0_i000,d0_i001,d0_i002,d0_i003"])


def _restamp(body: bytes) -> bytes:
    """Replace the trailing CRC so a mutation reaches the parser behind it."""
    return body[:-4] + struct.pack("<I", zlib.crc32(body[:-4]) & 0xFFFFFFFF)


_edits = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                            st.floats(0.0, 1.0, exclude_max=True),
                            st.binary(min_size=1, max_size=3)),
                  min_size=1, max_size=4)


def _apply(raw: bytes, edits, cut: float | None) -> bytes:
    buf = bytearray(raw)
    for op, where, data in edits:
        i = int(where * len(buf))
        if op == "set":
            buf[i : i + len(data)] = data
        elif op == "insert":
            buf[i:i] = data
        else:
            del buf[i : i + len(data)]
    if cut is not None:
        buf = buf[: int(cut * len(buf))]
    return bytes(buf)


@FUZZ
@given(edits=_edits, cut=st.none() | st.floats(0.0, 1.0), restamp=st.booleans(),
       header=st.booleans())
def test_mutated_checkpoint_raises_only_checkpoint_error(model_ckpt, tmp_path, edits, cut,
                                                         restamp, header):
    raw = model_ckpt.read_bytes()
    if header:  # aim at the config blob and the tensor directory, not the payloads
        json_len = struct.unpack_from("<I", raw, 8)[0]
        raw, tail = raw[: 16 + json_len + 64], raw[16 + json_len + 64 :]
        raw = _apply(raw, edits, None) + tail
        raw = raw[: int(cut * len(raw))] if cut is not None else raw
    else:
        raw = _apply(raw, edits, cut)
    if restamp and len(raw) >= 4:
        raw = _restamp(raw)
    path = tmp_path / "mutated.ckpt"
    path.write_bytes(raw)
    assert _recommend(model_ckpt, path) in (0, 4)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=12)
_records = st.fixed_dictionaries({}, optional={
    "item_id": _json_values, "attributes": _json_values,
    "user_id": _json_values, "items": _json_values})
_lines = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda t: t.encode("utf-8", "surrogatepass")),
    _json_values.map(lambda v: json.dumps(v).encode()),
    _records.map(lambda r: json.dumps(r).encode()),
)


@FUZZ
@given(lines=st.lists(_lines, min_size=1, max_size=5))
def test_junk_lines_raise_only_data_error(tmp_path, lines):
    path = tmp_path / "junk.jsonl"
    path.write_bytes(b"\n".join(lines))
    for loader in (load_items_jsonl, load_interactions_jsonl):
        try:
            loader(path)
        except DataError:
            pass


_config_values = st.one_of(_json_values, st.lists(st.text(max_size=3), max_size=6),
                           st.dictionaries(st.sampled_from(["d", "n_heads", "window",
                                                            "max_tokens", "tokens_per_field"]),
                                           _json_values, max_size=3))


@FUZZ
@given(data=st.data())
def test_crafted_model_config_raises_only_checkpoint_error(model_ckpt, tmp_path, data):
    # well-formed files whose config values are replaced: the CRC passes
    config, tensors = load_checkpoint(model_ckpt)
    for key in data.draw(st.lists(st.sampled_from(sorted(config)), min_size=1, max_size=3)):
        if isinstance(config[key], dict) and config[key] and data.draw(st.booleans()):
            inner = data.draw(st.sampled_from(sorted(config[key])))
            config[key] = {**config[key], inner: data.draw(_json_values)}
        else:
            config[key] = data.draw(_config_values)
    path = tmp_path / "crafted.ckpt"
    save_checkpoint(path, config, tensors)
    assert _recommend(model_ckpt, path) in (0, 4)
