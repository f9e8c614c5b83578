"""Property fuzzing of the readers of untrusted files and of input assembly.

A corrupt or crafted checkpoint may only raise CheckpointError (a
`recommend` from it ends in 0 or exit 4), and a junk line in an items or
interactions file may only raise DataError, so every bad input reaches the
CLI's documented exit code instead of a traceback. Any catalog's items file
loads back as the same items and hashes to `Catalog.digest`, and a damaged
items file is served as if the checkpoint recorded no digest.
`build_model_input` keeps its layout invariants for any catalog, history
and limits, and `ModelBatch.pack` of its outputs equals a per-row copy.
Runs are derandomized with a fixed example budget, so the suite stays
repeatable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
from txrec.catalog import (CLS_ID, Catalog, InputLimits, Item, ModelBatch, Vocabulary,
                           build_model_input, flatten_item, load_interactions_jsonl,
                           load_items_jsonl, write_items_jsonl)
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


# any code point; more often a lone surrogate, or one that ends a line for str.splitlines()
_any_char = st.one_of(st.sampled_from("\n\r\x0b\x1c\x85\u2028\u2029\"\\\udc80"),
                      st.characters(exclude_categories=()))
_any_items = st.lists(
    st.tuples(st.text(_any_char, min_size=1, max_size=6),
              st.lists(st.tuples(st.text(_any_char, max_size=8), st.text(_any_char, max_size=8)),
                       max_size=3)),
    max_size=5, unique_by=lambda row: row[0],
).map(lambda rows: [Item(iid, tuple(pairs)) for iid, pairs in rows])


@FUZZ
@given(items=_any_items)
def test_items_file_loads_back_and_hashes_to_the_catalog_digest(tmp_path, items):
    catalog = Catalog(items)
    path = tmp_path / "items.jsonl"
    path.unlink(missing_ok=True)
    if catalog.digest is None:  # text UTF-8 cannot encode: no digest, and no file
        with pytest.raises(DataError, match="cannot write"):
            write_items_jsonl(path, catalog)
        assert not path.exists()
        return
    write_items_jsonl(path, catalog)
    assert load_items_jsonl(path) == items
    assert hashlib.sha256(path.read_bytes()).hexdigest() == catalog.digest


@FUZZ
@given(items=_any_items, data=st.data())
def test_a_matching_items_file_reads_each_wanted_id_from_its_line(tmp_path, items, data):
    catalog = Catalog(items)
    if catalog.digest is None:
        return
    path = tmp_path / "items.jsonl"
    write_items_jsonl(path, catalog)
    line_of = {iid: j for j, iid in enumerate(catalog.ids)}
    wanted = data.draw(st.lists(st.sampled_from(catalog.ids), max_size=8) if items
                       else st.just([]))
    got, matched = load_items_jsonl(path, catalog.digest, line_of, wanted=wanted)
    assert matched and got == [items[line_of[iid]] for iid in dict.fromkeys(wanted)]


@pytest.fixture(scope="module")
def undigested_ckpt(model_ckpt) -> Path:
    """`model_ckpt` without its item_digest, as checkpoints were before it existed."""
    config, tensors = load_checkpoint(model_ckpt)
    assert config.pop("item_digest")
    path = model_ckpt.parent / "undigested.ckpt"
    save_checkpoint(path, config, tensors)
    return path


def _served(ckpt: Path, items: Path, history: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["recommend", "--ckpt", str(ckpt), "--items", str(items),
                   "--history", ",".join(history)])
    return rc, out.getvalue()


@FUZZ
@given(edits=st.just([]) | _edits, cut=st.none() | st.floats(0.0, 1.0),
       history=st.lists(st.sampled_from(["d0_i000", "d0_i005", "d0_i011", "ghost"]),
                        min_size=1, max_size=4))
def test_mutated_items_file_serves_as_without_the_digest(model_ckpt, undigested_ckpt,
                                                         tmp_path, edits, cut, history):
    items = model_ckpt.parent / "corpus" / "domain_00" / "items.jsonl"
    path = tmp_path / "items.jsonl"
    path.write_bytes(_apply(items.read_bytes(), edits, cut))
    assert _served(model_ckpt, path, history) == _served(undigested_ckpt, path, history)


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


# a few words, punctuation-only tokens that tokenize to nothing, and mixed case
_text = st.lists(st.sampled_from(["red", "Blue", "shoe", "tea", "big!", "...", "cup", "-"]),
                 max_size=6).map(" ".join)


@st.composite
def _model_inputs(draw):
    items = [Item(f"i{j}", tuple(draw(st.lists(st.tuples(_text, _text), max_size=4))))
             for j in range(draw(st.integers(1, 6)))]
    history = draw(st.lists(st.sampled_from([it.item_id for it in items]),
                            min_size=1, max_size=12))
    limits = InputLimits(max_tokens=draw(st.integers(1, 40)),
                         max_items=draw(st.integers(1, 8)),
                         tokens_per_field=draw(st.integers(1, 4)))
    vocab = Vocabulary.build(items, min_count=draw(st.integers(1, 2)))
    return Catalog(items), history, limits, vocab


@FUZZ
@given(case=_model_inputs())
def test_build_model_input_keeps_its_layout(case):
    catalog, history, limits, vocab = case
    x = build_model_input(history, catalog, vocab, limits)
    n = len(x)
    assert n <= limits.max_tokens + 1
    assert x.token_ids[0] == CLS_ID  # the aggregate slot
    slots = x.item_positions
    assert slots[0] == 0 and (np.diff(slots) >= 0).all() and slots.max() <= limits.max_items
    ids, types = flatten_item(catalog.get(history[-1]), vocab, limits.tokens_per_field)
    npt.assert_array_equal(x.token_ids[slots == 1], ids[1:limits.max_tokens + 1])
    npt.assert_array_equal(x.token_types[slots == 1], types[1:limits.max_tokens + 1])


@FUZZ
@given(case=_model_inputs(), data=st.data())
def test_pack_matches_a_per_row_copy(case, data):
    catalog, history, limits, vocab = case
    more = data.draw(st.lists(st.lists(st.sampled_from(catalog.ids), min_size=1, max_size=12),
                              max_size=5))
    inputs = [build_model_input(h, catalog, vocab, limits) for h in [history, *more]]
    batch, want = ModelBatch.pack(inputs), ref.pack_ref(inputs)
    npt.assert_array_equal(batch.lengths, [len(x) for x in inputs])
    past_end = np.arange(batch.token_ids.shape[1]) >= batch.lengths[:, None]
    for f in ("token_ids", "token_types", "item_positions"):
        got = getattr(batch, f)
        assert got.dtype == np.int64 and not got[past_end].any()
        npt.assert_array_equal(got, want[f])
