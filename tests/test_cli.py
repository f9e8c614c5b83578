"""End-to-end command-line lifecycle, run in-process through main(argv)."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import time
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from txrec import catalog as catalog_mod
from txrec.catalog import RESERVED_TOKENS, load_items_jsonl
from txrec.checkpoint import load_checkpoint, save_checkpoint
from txrec.cli import Model, main, top_k, validate_run_config


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, vocabulary, pretrained and finetuned checkpoints, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert run("make-synthetic", "--out", corpus, "--seed", 5, "--domains", 1,
               "--items-per-domain", 12, "--users", 24) == 0
    data = corpus / "domain_00"

    config = {
        "seed": 0,
        "data": {"items": str(data / "items.jsonl"),
                 "interactions": str(data / "interactions.jsonl")},
        "encoder": {"d": 8, "n_layers": 1, "n_heads": 2, "window": 4,
                    "ffn_dim": 16, "max_tokens": 96, "max_items": 6, "dropout": 0.1},
        "train": {"n_epochs": 2, "pretrain_batch": 8, "finetune_batch": 8,
                  "lr": 0.001, "patience": 2},
        "loss": {"temperature": 0.1, "mlm_weight": 0.1},
        "log": str(root / "train.log"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))

    pre = root / "pretrained.ckpt"
    assert run("pretrain", "--config", cfg_path, "--out", pre) == 0
    fine = root / "finetuned.ckpt"
    assert run("finetune", "--config", cfg_path, "--init", pre, "--out", fine) == 0
    return {"root": root, "data": data, "config": cfg_path, "pre": pre, "fine": fine}


# ---------------------------------------------------------------------------
# make-synthetic / build-vocab


def test_make_synthetic_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run("make-synthetic", "--out", tmp_path / sub, "--seed", 9,
                   "--domains", 2, "--items-per-domain", 10, "--users", 6) == 0
    for dom in ("domain_00", "domain_01"):
        for name in ("items.jsonl", "interactions.jsonl"):
            assert (tmp_path / "a" / dom / name).read_bytes() == \
                   (tmp_path / "b" / dom / name).read_bytes()


def test_make_synthetic_rejects_bad_spec(tmp_path, capsys):
    assert run("make-synthetic", "--out", tmp_path, "--items-per-domain", 3) == 2
    assert "config error" in capsys.readouterr().err


def test_build_vocab_writes_reserved_header(workdir, tmp_path):
    out = tmp_path / "vocab.txt"
    assert run("build-vocab", "--items", workdir["data"] / "items.jsonl",
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert tuple(lines[:4]) == RESERVED_TOKENS
    assert len(lines) > 4


def test_build_vocab_min_count_and_missing_file(tmp_path, capsys):
    assert run("build-vocab", "--items", "x.jsonl", "--out", tmp_path / "v",
               "--min-count", 0) == 2
    assert run("build-vocab", "--items", tmp_path / "absent.jsonl",
               "--out", tmp_path / "v") == 3
    err = capsys.readouterr().err
    assert "config error" in err and "data error" in err


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_checkpoint_contents(workdir):
    config, tensors = load_checkpoint(workdir["pre"])
    assert config["kind"] == "model"
    assert config["encoder"]["d"] == 8
    assert config["item_ids"] is None
    assert len(config["fingerprint"]) == 16
    assert isinstance(config["vocab_tokens"], list) and config["vocab_tokens"]
    assert "emb.token" in tensors and "mlm.w_h" in tensors
    assert "item_matrix" not in tensors


def test_pretrain_rerun_is_byte_identical(workdir, tmp_path):
    out = tmp_path / "again.ckpt"
    assert run("pretrain", "--config", workdir["config"], "--out", out) == 0
    assert out.read_bytes() == workdir["pre"].read_bytes()


def test_pretrain_writes_epoch_log(workdir):
    lines = (workdir["root"] / "train.log").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    stages = {r["stage"] for r in records}
    assert "pretrain" in stages and 1 in stages and 2 in stages
    pre = [r for r in records if r["stage"] == "pretrain"]
    assert [r["epoch"] for r in pre][:2] == [1, 2]
    assert all("loss" in r for r in pre)


def test_pretrain_epoch_log_leaves_no_file_open(workdir, tmp_path):
    cfg = json.loads(workdir["config"].read_text())
    cfg["log"] = str(tmp_path / "train.log")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "o.ckpt") == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len((tmp_path / "train.log").read_text().splitlines()) == 2


def test_config_seed_reaches_the_training_streams():
    assert validate_run_config({"seed": 5}).train.seed == 5
    assert validate_run_config({}).train.seed == 0


def test_pretrain_config_errors_are_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seedz": 1, "encoder": {"dd": 8},
                               "data": {"items": "x", "interactions": "y"}}))
    assert run("pretrain", "--config", bad, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "unknown config key 'seedz'" in err
    assert "unknown config key 'encoder.dd'" in err

    nodata = tmp_path / "nodata.json"
    nodata.write_text("{}")
    assert run("pretrain", "--config", nodata, "--out", tmp_path / "o") == 2

    notjson = tmp_path / "broken.json"
    notjson.write_text("{oops")
    assert run("pretrain", "--config", notjson, "--out", tmp_path / "o") == 2
    assert run("pretrain", "--config", tmp_path / "absent.json",
               "--out", tmp_path / "o") == 2


def test_checkpoints_record_the_vocabulary_min_count(workdir):
    assert load_checkpoint(workdir["pre"])[0]["min_count"] == 1
    assert load_checkpoint(workdir["fine"])[0]["min_count"] == 1  # carried forward


def test_pretrain_with_a_vocab_file_records_no_min_count(workdir, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    assert run("build-vocab", "--items", workdir["data"] / "items.jsonl", "--out", vocab) == 0
    cfg = json.loads(workdir["config"].read_text())
    cfg["vocab"] = str(vocab)
    cfg["catalog"] = {"min_count": 1}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "o.ckpt") == 2
    assert "catalog.min_count=1 has no effect with the vocab file" in capsys.readouterr().err
    assert not (tmp_path / "o.ckpt").exists()

    del cfg["catalog"]
    cfg_path.write_text(json.dumps(cfg))
    assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "v.ckpt") == 0
    assert load_checkpoint(tmp_path / "v.ckpt")[0]["min_count"] is None
    # the vocabulary was not built with any min_count, so asking for one is an error
    cfg["catalog"] = {"min_count": 1}
    cfg["vocab"] = None
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("finetune", "--config", cfg_path, "--init", tmp_path / "v.ckpt",
               "--out", tmp_path / "f.ckpt") == 2
    assert "config asks for min_count=1 but checkpoint has min_count=None" \
        in capsys.readouterr().err


def test_pretrain_on_an_empty_items_file_is_exit_3(workdir, tmp_path, capsys):
    items = tmp_path / "items.jsonl"
    items.write_text("")
    cfg = json.loads(workdir["config"].read_text())
    cfg["data"]["items"] = str(items)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err.endswith(f"data error: {items}: no items\n")


def test_pretrain_bad_data_is_exit_3(workdir, tmp_path, capsys):
    items = tmp_path / "items.jsonl"
    items.write_text('{"item_id": "a"}\n')
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {"items": str(items),
                                        "interactions": str(items)}}))
    assert run("pretrain", "--config", cfg, "--out", tmp_path / "o") == 3
    assert ":1:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# finetune


def test_finetune_checkpoint_has_frozen_matrix(workdir):
    config, tensors = load_checkpoint(workdir["fine"])
    assert config["kind"] == "model"
    assert len(config["item_ids"]) == 12
    assert tensors["item_matrix"].shape == (12, 8)
    assert "mlm.w_h" not in tensors  # the head is a pretraining-only organ


def test_finetune_d_mismatch_is_exit_2(workdir, tmp_path, capsys):
    cfg = json.loads(workdir["config"].read_text())
    cfg["encoder"]["d"] = 16
    cfg["encoder"]["ffn_dim"] = 16
    bad = tmp_path / "d16.json"
    bad.write_text(json.dumps(cfg))
    assert run("finetune", "--config", bad, "--init", workdir["pre"],
               "--out", tmp_path / "o") == 2
    assert "config asks for d=16 but checkpoint has d=8" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value,message", [
    ("encoder", "n_layers", 3, "config asks for n_layers=3 but checkpoint has n_layers=1"),
    ("encoder", "window", 2, "config asks for window=2 but checkpoint has window=4"),
    ("encoder", "max_tokens", 48, "config asks for max_tokens=48 but checkpoint has max_tokens=96"),
    ("catalog", "tokens_per_field", 2,
     "config asks for tokens_per_field=2 but checkpoint has tokens_per_field=16"),
    ("catalog", "min_count", 2, "config asks for min_count=2 but checkpoint has min_count=1"),
    ("data", "valid_items", "/nonexistent", "unknown config key 'data.valid_items'"),
])
def test_finetune_rejects_keys_the_checkpoint_overrides(workdir, tmp_path, capsys,
                                                         section, key, value, message):
    cfg = json.loads(workdir["config"].read_text())
    cfg.setdefault(section, {})[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("finetune", "--config", bad, "--init", workdir["pre"],
               "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err


def test_finetune_vocab_must_match_the_checkpoint(workdir, tmp_path, capsys):
    cfg = json.loads(workdir["config"].read_text())
    cfg["vocab"] = str(tmp_path / "vocab.txt")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    # the pretraining vocabulary, rebuilt from the same items, is accepted
    assert run("build-vocab", "--items", workdir["data"] / "items.jsonl",
               "--out", tmp_path / "vocab.txt") == 0
    assert run("finetune", "--config", cfg_path, "--init", workdir["pre"],
               "--out", tmp_path / "ok.ckpt") == 0
    (tmp_path / "vocab.txt").write_text("\n".join(RESERVED_TOKENS + ("other",)) + "\n")
    capsys.readouterr()
    assert run("finetune", "--config", cfg_path, "--init", workdir["pre"],
               "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config vocab" in err and "(1 tokens) differs from the vocabulary in checkpoint" in err


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_missing_vocab_file_is_exit_3(workdir, tmp_path, capsys, command):
    cfg = json.loads(workdir["config"].read_text())
    cfg["vocab"] = str(tmp_path / "absent.txt")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    init = ("--init", workdir["pre"]) if command == "finetune" else ()
    capsys.readouterr()
    assert run(command, "--config", cfg_path, *init, "--out", tmp_path / "o") == 3
    assert f"data error: cannot read {tmp_path / 'absent.txt'}" in capsys.readouterr().err


def test_finetune_skips_the_min_count_check_for_older_checkpoints(workdir, tmp_path):
    config, tensors = load_checkpoint(workdir["pre"])
    del config["min_count"]
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, config, tensors)
    cfg = json.loads(workdir["config"].read_text())
    cfg["catalog"] = {"min_count": 2}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run("finetune", "--config", cfg_path, "--init", old, "--out", tmp_path / "f") == 0
    assert load_checkpoint(tmp_path / "f")[0]["min_count"] is None


def _with_ghost_item(workdir, tmp_path, history) -> Path:
    """A copy of the corpus plus one user whose history holds an id no item has."""
    data = tmp_path / "ghost"
    data.mkdir()
    (data / "items.jsonl").write_bytes((workdir["data"] / "items.jsonl").read_bytes())
    lines = (workdir["data"] / "interactions.jsonl").read_text().splitlines()
    lines.append(json.dumps({"user_id": "ghost_user", "items": history}))
    (data / "interactions.jsonl").write_text("\n".join(lines) + "\n")
    return data


def test_finetune_positive_missing_from_the_catalog_is_exit_3(workdir, tmp_path, capsys):
    # the train split keeps d0_i000, d0_i001, ghost: ghost is a train positive
    data = _with_ghost_item(workdir, tmp_path,
                            ["d0_i000", "d0_i001", "ghost", "d0_i002", "d0_i003"])
    cfg = json.loads(workdir["config"].read_text())
    cfg["data"]["interactions"] = str(data / "interactions.jsonl")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("finetune", "--config", cfg_path, "--init", workdir["pre"],
               "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err.endswith("data error: unknown item id 'ghost'\n")
    assert not (tmp_path / "o").exists()


def test_pretrain_on_histories_with_unknown_ids_is_exit_3(workdir, tmp_path, capsys):
    """Every second user holds an id no item has: pretraining stops at the
    first one instead of training on the other half."""
    data = tmp_path / "half"
    data.mkdir()
    lines = (workdir["data"] / "interactions.jsonl").read_text().splitlines()
    for u in range(1, len(lines), 2):
        rec = json.loads(lines[u])
        rec["items"].insert(1, f"ghost{u}")
        lines[u] = json.dumps(rec)
    (data / "interactions.jsonl").write_text("\n".join(lines) + "\n")
    cfg = json.loads(workdir["config"].read_text())
    cfg["data"]["interactions"] = str(data / "interactions.jsonl")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err.endswith("data error: unknown item id 'ghost1'\n")
    assert not (tmp_path / "o").exists()


def test_finetune_garbage_init_is_exit_4(workdir, tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    assert run("finetune", "--config", workdir["config"], "--init", junk,
               "--out", tmp_path / "o") == 4
    assert "checkpoint error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def _eval_json(capsys, *argv):
    assert run(*argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # stdout carries exactly one JSON payload
    return json.loads(out[0])


def test_evaluate_emits_single_json_report(workdir, capsys):
    rep = _eval_json(capsys, "evaluate", "--ckpt", workdir["fine"],
                     "--data", workdir["data"])
    assert rep["protocol"] == "leave-one-out"
    assert rep["n_users"] == 24
    assert set(rep["metrics"]) == {"ndcg@10", "recall@10", "mrr"}
    for v in rep["metrics"].values():
        assert 0.0 <= v <= 1.0


def test_evaluate_csv_output(workdir, tmp_path, capsys):
    csv = tmp_path / "metrics.csv"
    rep = _eval_json(capsys, "evaluate", "--ckpt", workdir["fine"],
                     "--data", workdir["data"], "--csv", csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "ndcg@10,recall@10,mrr,n_users"
    cells = lines[1].split(",")
    assert len(cells) == 4 and cells[3] == "24"
    assert float(cells[0]) == pytest.approx(rep["metrics"]["ndcg@10"], abs=5e-7)


def test_evaluate_zero_shot_re_encodes(workdir, capsys):
    rep = _eval_json(capsys, "evaluate", "--ckpt", workdir["pre"],
                     "--data", workdir["data"], "--zero-shot")
    assert rep["protocol"] == "zero-shot"
    assert rep["n_users"] == 24


def test_evaluate_cold_start_buckets(workdir, tmp_path, capsys):
    corpus = tmp_path / "coldcorpus"
    assert run("make-synthetic", "--out", corpus, "--seed", 11, "--domains", 1,
               "--items-per-domain", 12, "--users", 30, "--cold-fraction", 0.25) == 0
    payload = _eval_json(capsys, "evaluate", "--ckpt", workdir["pre"],
                         "--data", corpus / "domain_00", "--cold-start", "--zero-shot")
    assert set(payload) == {"in_set", "cold"}
    assert payload["in_set"]["protocol"] == "zero-shot/cold-start/in_set"
    assert payload["cold"]["protocol"] == "zero-shot/cold-start/cold"
    assert payload["in_set"]["n_users"] + payload["cold"]["n_users"] == 30


def test_evaluate_cold_bucket_null_when_absent(workdir, capsys):
    payload = _eval_json(capsys, "evaluate", "--ckpt", workdir["fine"],
                         "--data", workdir["data"], "--cold-start")
    assert payload["cold"] is None or payload["cold"]["n_users"] > 0
    assert payload["in_set"]["n_users"] >= 1


def test_evaluate_missing_data_is_exit_3(workdir, tmp_path):
    assert run("evaluate", "--ckpt", workdir["fine"], "--data", tmp_path) == 3


def test_evaluate_target_missing_from_the_catalog_is_exit_3(workdir, tmp_path, capsys):
    data = _with_ghost_item(workdir, tmp_path, ["d0_i000", "d0_i001", "d0_i002", "ghost"])
    capsys.readouterr()
    assert run("evaluate", "--ckpt", workdir["fine"], "--data", data) == 3
    assert capsys.readouterr().err.endswith("data error: unknown item id 'ghost'\n")


def test_evaluate_bad_ckpt_is_exit_4(workdir, tmp_path):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"\x00" * 64)
    assert run("evaluate", "--ckpt", junk, "--data", workdir["data"]) == 4


@pytest.mark.parametrize("name", ["emb.pos", "mlm.b_out"])
def test_checkpoint_missing_a_tensor_is_exit_4(workdir, tmp_path, capsys, name):
    config, tensors = load_checkpoint(workdir["pre"])
    del tensors[name]
    crafted = tmp_path / "missing.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    assert run("evaluate", "--ckpt", crafted, "--data", workdir["data"]) == 4
    assert capsys.readouterr().err == f"checkpoint error: {crafted}: missing parameter '{name}'\n"


def test_finetune_from_nan_weights_is_exit_3_and_writes_nothing(workdir, tmp_path, capsys):
    config, tensors = load_checkpoint(workdir["pre"])
    tensors["emb.token"] = np.full_like(tensors["emb.token"], np.nan)
    crafted = tmp_path / "nan.ckpt"
    save_checkpoint(crafted, config, tensors)
    out = tmp_path / "fine.ckpt"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run("finetune", "--config", workdir["config"], "--init", crafted,
                   "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error: non-finite loss nan at batch 1 of finetune stage 1 epoch 1\n" in err
    assert not out.exists()


def test_model_checkpoint_keeps_the_item_matrix_fingerprint(workdir, tmp_path):
    from txrec.trainer import ItemFeatureMatrix
    model = Model.load(str(workdir["fine"]))
    matrix = ItemFeatureMatrix(model.matrix.ids, model.matrix.rows, "f" * 16)
    path = tmp_path / "m.ckpt"
    replace(model, seed=0, matrix=matrix).save(str(path))
    config, tensors = load_checkpoint(path)
    assert Model.load(str(path)).matrix.fingerprint == "f" * 16 != config["fingerprint"]
    # a checkpoint written before the key existed falls back to the model's
    del config["item_fingerprint"]
    save_checkpoint(path, config, tensors)
    assert Model.load(str(path)).matrix.fingerprint == config["fingerprint"]


def test_model_load_then_save_reproduces_the_checkpoint(workdir, tmp_path):
    vocab = tmp_path / "vocab.txt"
    assert run("build-vocab", "--items", workdir["data"] / "items.jsonl", "--out", vocab) == 0
    cfg = {**json.loads(workdir["config"].read_text()), "vocab": str(vocab), "log": None}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    from_file = tmp_path / "from-file.ckpt"
    assert run("pretrain", "--config", cfg_path, "--out", from_file) == 0
    for path, head, matrix, min_count in [(workdir["pre"], True, False, 1),
                                          (workdir["fine"], False, True, 1),
                                          (from_file, True, False, None)]:
        model = Model.load(str(path))
        assert (model.head is not None, model.matrix is not None) == (head, matrix)
        assert model.min_count == min_count
        model.save(str(tmp_path / "again.ckpt"))
        assert (tmp_path / "again.ckpt").read_bytes() == Path(path).read_bytes()


def test_the_tuple_checkpoint_helpers_are_gone():
    """`Model` is the one model-checkpoint reader; the old saver is kept only as a
    forward for the benchmark. The names are split so this file does not match."""
    loader, saver = "_load_model" + "_ckpt", "_save_model" + "_ckpt"
    root = Path(__file__).resolve().parents[1]
    hits = {name: [(str(p.relative_to(root)), line.strip())
                   for d in ("src", "tests", "demos") for p in sorted((root / d).rglob("*.py"))
                   for line in p.read_text(encoding="utf-8").splitlines() if name in line]
            for name in (loader, saver)}
    assert hits[loader] == []
    assert hits[saver] == [("src/txrec/cli.py", f"def {saver}(path: str, *fields, **named) -> None:")]


def test_read_only_checkpoint_tensors_serve_as_writable_copies_do(workdir, tmp_path,
                                                                  monkeypatch, capsys):
    """Every command that loads a checkpoint gives the same output and files
    whether it gets the read-only views `load_checkpoint` returns or copies."""
    items = workdir["data"] / "items.jsonl"
    mat = tmp_path / "items.mat"
    assert run("encode-items", "--ckpt", workdir["pre"], "--items", items, "--out", mat) == 0

    def outputs(tag):
        fine = tmp_path / f"fine-{tag}.ckpt"
        commands = [
            ("finetune", "--config", workdir["config"], "--init", workdir["pre"], "--out", fine),
            ("recommend", "--ckpt", fine, "--items", items, "--history", "d0_i000,d0_i003"),
            ("recommend", "--ckpt", fine, "--items", items, "--history", "d0_i001",
             "--item-matrix", mat),
            ("evaluate", "--ckpt", fine, "--data", workdir["data"]),
            ("evaluate", "--ckpt", fine, "--data", workdir["data"], "--zero-shot"),
        ]
        got = []
        for argv in commands:
            capsys.readouterr()
            assert run(*argv) == 0
            got.append(capsys.readouterr().out)
        return got, fine.read_bytes()

    views = outputs("views")

    def copying(path, check_finite=True):
        config, tensors = load_checkpoint(path, check_finite)
        return config, {name: arr.copy() for name, arr in tensors.items()}

    monkeypatch.setattr("txrec.cli.load_checkpoint", copying)
    assert outputs("copies") == views


# ---------------------------------------------------------------------------
# encode-items + matrix reuse


def test_encode_items_matches_in_process_encoding(workdir, tmp_path, capsys):
    mat_path = tmp_path / "items.mat"
    assert run("encode-items", "--ckpt", workdir["pre"],
               "--items", workdir["data"] / "items.jsonl", "--out", mat_path) == 0
    config, tensors = load_checkpoint(mat_path)
    assert config["kind"] == "item_matrix"
    assert len(config["item_ids"]) == 12

    from txrec.trainer import encode_all_items
    model = Model.load(str(workdir["pre"]))
    from txrec.catalog import Catalog
    catalog = Catalog(load_items_jsonl(workdir["data"] / "items.jsonl"))
    expected = encode_all_items(model.encoder, catalog, model.vocab, model.limits)
    npt.assert_array_equal(tensors["rows"], expected.rows)
    assert config["fingerprint"] == expected.fingerprint

    # evaluating through the precomputed file reproduces the fresh-encode run
    capsys.readouterr()
    via_file = _eval_json(capsys, "evaluate", "--ckpt", workdir["pre"],
                          "--data", workdir["data"], "--item-matrix", mat_path)
    fresh = _eval_json(capsys, "evaluate", "--ckpt", workdir["pre"],
                       "--data", workdir["data"])
    assert via_file == fresh


def test_item_matrix_must_cover_catalog(workdir, tmp_path, capsys):
    short = tmp_path / "short.mat"
    save_checkpoint(short, {"kind": "item_matrix", "item_ids": ["d0_i000"],
                            "fingerprint": ""}, {"rows": np.zeros((1, 8), dtype=np.float32)})
    assert run("evaluate", "--ckpt", workdir["pre"], "--data", workdir["data"],
               "--item-matrix", short) == 3
    assert "does not cover" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recommend", "encode-items"])
def test_empty_items_file_is_exit_3(workdir, tmp_path, capsys, command):
    items = tmp_path / "items.jsonl"
    items.write_text("\n")
    extra = ("--history", "d0_i000") if command == "recommend" else ("--out", tmp_path / "m")
    capsys.readouterr()
    assert run(command, "--ckpt", workdir["fine"], "--items", items, *extra) == 3
    assert capsys.readouterr().err.endswith(f"data error: {items}: no items\n")


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
@pytest.mark.parametrize("key,value,message", [
    ("item_ids", list(range(12)), "malformed item matrix (item matrix ids must be a list of "
                                  "strings)"),
    ("item_ids", "abcdefghijkl", "malformed item matrix (item matrix ids must be a list of "
                                 "strings)"),
    ("fingerprint", 7, "fingerprint must be a string, got 7"),
], ids=["ids-ints", "ids-one-string", "fingerprint-int"])
def test_item_matrix_file_with_crafted_config_is_exit_4(workdir, tmp_path, capsys, command,
                                                        key, value, message):
    config, tensors = load_checkpoint(workdir["fine"])
    crafted = tmp_path / "crafted.mat"
    save_checkpoint(crafted, {"kind": "item_matrix", "item_ids": config["item_ids"],
                              "fingerprint": "", key: value}, {"rows": tensors["item_matrix"]})
    argv = {"recommend": ["--items", workdir["data"] / "items.jsonl", "--history", "d0_i000"],
            "evaluate": ["--data", workdir["data"]]}[command]
    capsys.readouterr()
    assert run(command, "--ckpt", workdir["pre"], "--item-matrix", crafted, *argv) == 4
    assert capsys.readouterr().err == f"checkpoint error: {crafted}: {message}\n"


def test_model_ckpt_is_not_an_item_matrix(workdir):
    assert run("recommend", "--ckpt", workdir["pre"],
               "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000", "--item-matrix", workdir["pre"]) == 4


# ---------------------------------------------------------------------------
# recommend


def test_recommend_orders_by_score_then_id(workdir, capsys):
    assert run("recommend", "--ckpt", workdir["fine"],
               "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000,d0_i001", "--topk", 5) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 5
    keys = [(-r["score"], r["item_id"]) for r in out]
    assert keys == sorted(keys)
    assert all(set(r) == {"item_id", "score"} for r in out)


def test_recommend_output_does_not_depend_on_item_matrix_alignment(workdir, capsys,
                                                                   monkeypatch):
    args = ("recommend", "--ckpt", workdir["fine"], "--items", workdir["data"] / "items.jsonl",
            "--history", "d0_i000,d0_i001", "--topk", 12)
    assert run(*args) == 0
    want = capsys.readouterr().out

    def unaligned_matrix(path, *rest):
        config, tensors = load_checkpoint(path, *rest)
        m = tensors["item_matrix"]
        tensors["item_matrix"] = np.frombuffer(b"\0" + m.tobytes(), m.dtype,
                                               offset=1).reshape(m.shape)
        assert not tensors["item_matrix"].flags.aligned
        return config, tensors

    monkeypatch.setattr("txrec.cli.load_checkpoint", unaligned_matrix)
    assert run(*args) == 0
    assert capsys.readouterr().out == want


def test_recommend_topk_clamps_to_catalog(workdir, capsys):
    assert run("recommend", "--ckpt", workdir["fine"],
               "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i003", "--topk", 999) == 0
    assert len(json.loads(capsys.readouterr().out)) == 12


def test_recommend_argument_validation(workdir, tmp_path, capsys):
    items = workdir["data"] / "items.jsonl"
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", "d0_i000", "--topk", 0) == 2
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", " , ") == 2
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", "no_such_item") == 3
    err = capsys.readouterr().err
    assert "topk" in err and "history" in err and "unknown item" in err


def test_main_builds_its_parser_once_and_leaks_no_value_between_calls(workdir, tmp_path,
                                                                    capsys, monkeypatch):
    from txrec.cli import _build_parser
    assert _build_parser() is _build_parser()
    seen = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(real(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    items = workdir["data"] / "items.jsonl"
    mat = tmp_path / "m.mat"
    assert run("encode-items", "--ckpt", workdir["fine"], "--items", items, "--out", mat) == 0
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", "d0_i000", "--topk", 3, "--item-matrix", mat) == 0
    assert run("build-vocab", "--items", items, "--items", items, "--out", tmp_path / "v1") == 0
    assert run("evaluate", "--ckpt", workdir["fine"], "--data", workdir["data"],
               "--zero-shot") == 0
    assert run("build-vocab", "--items", items, "--out", tmp_path / "v2") == 0
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", "d0_i001") == 0
    assert run("evaluate", "--ckpt", workdir["fine"], "--data", workdir["data"]) == 0
    outs = capsys.readouterr().out.splitlines()
    assert [len(json.loads(line)) for line in (outs[0], outs[2])] == [3, 10]
    assert [a.command for a in seen] == ["encode-items", "recommend", "build-vocab", "evaluate",
                                         "build-vocab", "recommend", "evaluate"]
    assert seen[1].item_matrix == str(mat) and seen[1].topk == 3
    assert seen[5].item_matrix is None and seen[5].topk == 10
    assert len(seen[2].items) == 2 and len(seen[4].items) == 1
    assert seen[3].zero_shot and not seen[6].zero_shot
    assert not hasattr(seen[5], "zero_shot") and not hasattr(seen[6], "history")


def test_top_k_settles_ties_at_the_cut_like_a_stable_sort():
    rng = np.random.default_rng(3)
    ids = [f"item{j:02d}" for j in rng.permutation(40)]
    scores = rng.choice([0.9, 0.5, 0.5, 0.2, -0.1], size=40).astype(np.float32)
    order = sorted(range(40), key=lambda i: (-scores[i], ids[i]))
    for k in (1, 3, 7, 12, 40, 99):
        assert top_k(scores, ids, k) == order[:k]
    # ties straddle the cut: the tied block is wider than what is left of k
    n_best = int((scores == 0.9).sum())
    assert 0 < n_best < 12 < n_best + int((scores == 0.5).sum())


def test_recommend_breaks_tied_scores_by_id(workdir, tmp_path, capsys):
    """Rows repeat in three groups of four, so the cut at 5 falls inside a tie."""
    items = load_items_jsonl(workdir["data"] / "items.jsonl")
    ids = [it.item_id for it in items][::-1]
    group = {iid: r % 3 for r, iid in enumerate(ids)}
    base = np.random.default_rng(4).normal(size=(3, 8)).astype(np.float32)
    tied = tmp_path / "tied.mat"
    save_checkpoint(tied, {"kind": "item_matrix", "item_ids": ids, "fingerprint": ""},
                    {"rows": base[np.arange(len(ids)) % 3]})
    capsys.readouterr()
    assert run("recommend", "--ckpt", workdir["pre"], "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000", "--topk", 5, "--item-matrix", tied) == 0
    got = [r["item_id"] for r in json.loads(capsys.readouterr().out)]
    best, second = group[got[0]], group[got[4]]
    assert best != second
    # the stable-sort order: the whole best group by id, then the lowest id of the next
    assert got == sorted(i for i in ids if group[i] == best) \
        + [min(i for i in ids if group[i] == second)]


def test_item_matrix_of_another_width_is_exit_4(workdir, tmp_path, capsys):
    ids = [it.item_id for it in load_items_jsonl(workdir["data"] / "items.jsonl")]
    wide = tmp_path / "wide.mat"
    save_checkpoint(wide, {"kind": "item_matrix", "item_ids": ids, "fingerprint": ""},
                    {"rows": np.ones((len(ids), 16), dtype=np.float32)})
    capsys.readouterr()
    assert run("recommend", "--ckpt", workdir["pre"], "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000", "--item-matrix", wide) == 4
    assert capsys.readouterr().err == (f"checkpoint error: {wide}: item rows have width 16 "
                                       f"but the model has d=8\n")


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_stored_item_matrix_of_another_width_is_exit_4(workdir, tmp_path, capsys, command):
    config, tensors = load_checkpoint(workdir["fine"])
    rows = tensors["item_matrix"]
    tensors["item_matrix"] = np.hstack([rows, np.ones((len(rows), 1), dtype=np.float32)])
    crafted = tmp_path / "wide.ckpt"
    save_checkpoint(crafted, config, tensors)
    argv = {"recommend": ["--items", workdir["data"] / "items.jsonl", "--history", "d0_i000"],
            "evaluate": ["--data", workdir["data"]]}[command]
    capsys.readouterr()
    assert run(command, "--ckpt", crafted, *argv) == 4
    assert capsys.readouterr().err == (f"checkpoint error: {crafted}: item rows have width 9 "
                                       f"but the model has d=8\n")


@pytest.mark.parametrize("source", ["model checkpoint", "item-matrix file"])
def test_non_finite_item_matrix_is_exit_4(workdir, tmp_path, capsys, source):
    config, tensors = load_checkpoint(workdir["fine"])
    if source == "model checkpoint":
        tensors["item_matrix"] = np.full_like(tensors["item_matrix"], np.nan)
        crafted, name = tmp_path / "nan.ckpt", "item_matrix"
        save_checkpoint(crafted, config, tensors)
        argv = ["--ckpt", crafted]
    else:
        tensors["item_matrix"] = tensors["item_matrix"].copy()  # loaded tensors are read-only
        tensors["item_matrix"][0, 0] = np.inf
        crafted, name = tmp_path / "inf.mat", "rows"
        save_checkpoint(crafted, {"kind": "item_matrix", "item_ids": config["item_ids"],
                                  "fingerprint": ""}, {"rows": tensors["item_matrix"]})
        argv = ["--ckpt", workdir["fine"], "--item-matrix", crafted]
    capsys.readouterr()
    assert run("recommend", *argv, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"checkpoint error: {crafted}: tensor '{name}' holds NaN or "
                            f"infinite values\n")


@pytest.mark.parametrize("command,target", [
    ("build-vocab", "--out"), ("pretrain", "--out"), ("pretrain", "log"),
    ("finetune", "--out"), ("finetune", "log"), ("encode-items", "--out"),
    ("evaluate", "--csv")])
def test_output_in_a_missing_directory_is_exit_2_before_any_work(workdir, tmp_path, capsys,
                                                                 command, target):
    bad = tmp_path / "missing" / "output"
    out = bad if target == "--out" else tmp_path / "out"
    cfg = json.loads(workdir["config"].read_text())
    cfg["log"] = str(bad if target == "log" else tmp_path / "train.log")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    items = workdir["data"] / "items.jsonl"
    argv = {"build-vocab": ["--items", items, "--out", out],
            "pretrain": ["--config", cfg_path, "--out", out],
            "finetune": ["--config", cfg_path, "--init", workdir["pre"], "--out", out],
            "encode-items": ["--ckpt", workdir["pre"], "--items", items, "--out", out],
            "evaluate": ["--ckpt", workdir["fine"], "--data", workdir["data"], "--csv", bad]}
    capsys.readouterr()
    assert run(command, *argv[command]) == 2
    captured = capsys.readouterr()  # no epoch record and no report: nothing ran
    assert captured.err == f"config error: cannot write {bad}: no directory {bad.parent}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_output_that_is_a_directory_or_not_writable_is_exit_2(workdir, tmp_path, capsys,
                                                              monkeypatch):
    items = workdir["data"] / "items.jsonl"
    capsys.readouterr()
    assert run("build-vocab", "--items", items, "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"config error: cannot write {tmp_path}: it is a directory\n"
    monkeypatch.setattr("txrec.cli.os.access", lambda path, mode: False)
    out = tmp_path / "vocab.txt"
    assert run("build-vocab", "--items", items, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out}: permission denied\n"
    assert not out.exists()


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_checkpoint_whose_shape_overruns_its_payload_is_exit_4(workdir, tmp_path, capsys):
    blob = json.dumps({"kind": "model"}).encode()
    body = (b"TXRC" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"t" + struct.pack("<BB", 0, 2)
            + struct.pack("<II", 1000, 1000) + bytes(16))
    crafted = tmp_path / "overrun.ckpt"
    crafted.write_bytes(_with_crc(body))
    capsys.readouterr()
    assert run("evaluate", "--ckpt", crafted, "--data", workdir["data"]) == 4
    assert capsys.readouterr().err == (f"checkpoint error: {crafted}: tensor 't' of shape "
                                       f"(1000, 1000) overruns the payload\n")


def test_checkpoint_with_a_tensor_name_twice_is_exit_4(workdir, tmp_path, capsys):
    config, tensors = load_checkpoint(workdir["fine"])
    tensors["emb.poz"] = np.zeros_like(tensors["emb.pos"])  # renamed below to a second emb.pos
    crafted = tmp_path / "twice.ckpt"
    save_checkpoint(crafted, config, tensors)
    body = crafted.read_bytes()[:-4]
    crafted.write_bytes(_with_crc(body.replace(b"emb.poz", b"emb.pos")))
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    assert capsys.readouterr().err == (f"checkpoint error: {crafted}: tensor 'emb.pos' "
                                       f"appears more than once\n")


def test_checkpoint_config_that_is_not_an_object_is_exit_4(workdir, tmp_path, capsys):
    crafted = tmp_path / "list.ckpt"
    save_checkpoint(crafted, ["kind", "model"], {})
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    assert capsys.readouterr().err == f"checkpoint error: {crafted}: config blob is not a JSON object\n"


@pytest.mark.parametrize("key,value,message", [
    ("item_ids", 1, "malformed item matrix ('int' object is not iterable)"),
    ("item_ids", ["a", "a"], "malformed item matrix (item matrix ids are not unique)"),
    ("item_ids", ["a"], "malformed item matrix (1 ids but rows of shape (12, 8))"),
    ("vocab_tokens", ["x", "x"], "malformed model config (duplicate or reserved token "
                                 "in vocabulary: 'x')"),
    ("encoder", {"d": 8.0}, "malformed model config (encoder.d: expected int, got 8.0)"),
    ("limits", {"tokens_per_field": 16.0},
     "malformed model config (limits.tokens_per_field: expected int, got 16.0)"),
    ("limits", {"max_tokens": 1024},
     "limits of 1024 tokens and 6 items exceed the encoder's 96 and 6"),
    ("vocab_tokens", ["x"], "vocabulary of 5 ids but the encoder has vocab_size={vocab_size}"),
    ("min_count", "1", "malformed model config (min_count: expected int, got '1')"),
    ("seed", "0", "malformed model config (seed: expected int, got '0')"),
    ("vocab_tokens", [1, 2], "malformed model config (vocabulary tokens must be a list of "
                             "strings)"),
    ("vocab_tokens", "abcdefghij", "malformed model config (vocabulary tokens must be a list "
                                   "of strings)"),
    ("item_ids", list(range(12)), "malformed item matrix (item matrix ids must be a list of "
                                  "strings)"),
    ("item_ids", "abcdefghijkl", "malformed item matrix (item matrix ids must be a list of "
                                 "strings)"),
    ("fingerprint", 7, "fingerprint must be a string, got 7"),
    ("item_fingerprint", 7, "item_fingerprint must be a string, got 7"),
], ids=["ids-not-a-list", "ids-repeated", "ids-too-few", "vocab-repeated", "d-float",
        "field-cap-float", "limits-too-long", "vocab-too-small", "min-count-string",
        "seed-string",
        "vocab-ints", "vocab-one-string", "ids-ints", "ids-one-string", "fingerprint-int",
        "item-fingerprint-int"])
def test_model_checkpoint_with_crafted_config_is_exit_4(workdir, tmp_path, capsys, key,
                                                        value, message):
    config, tensors = load_checkpoint(workdir["fine"])
    config[key] = {**config[key], **value} if isinstance(value, dict) else value
    crafted = tmp_path / "crafted.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    message = message.format(**config["encoder"])
    assert capsys.readouterr().err == f"checkpoint error: {crafted}: {message}\n"


def _two_layer(workdir) -> tuple[dict, dict]:
    """The finetuned one-layer checkpoint grown to two layers: layer1 repeats layer0."""
    config, tensors = load_checkpoint(workdir["fine"])
    config["encoder"] = {**config["encoder"], "n_layers": 2}
    return config, {**tensors, **{"layer1." + n.removeprefix("layer0."): t
                                  for n, t in tensors.items() if n.startswith("layer0.")}}


def test_a_grown_two_layer_checkpoint_loads(workdir, tmp_path, capsys):
    crafted = tmp_path / "two.ckpt"
    save_checkpoint(crafted, *_two_layer(workdir))
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 0


@pytest.mark.parametrize("edit,message", [
    (lambda c, t: c["encoder"].update(n_layers=1), "unexpected tensor 'layer1.attn.wq'"),
    (lambda c, t: t.update({"bogus.tensor": np.zeros(3, np.float32)}),
     "unexpected tensor 'bogus.tensor'"),
    (lambda c, t: t.update({"layer01.attn.wq": t["layer0.attn.wq"]}),
     "unexpected tensor 'layer01.attn.wq'"),
    (lambda c, t: c["encoder"].update(n_layers=3), "missing parameter 'layer2.attn.wq'"),
    (lambda c, t: [t.pop(n) for n in list(t) if n.startswith("layer0.")],
     "missing parameter 'layer0.attn.wq'"),
    (lambda c, t: c["encoder"].update(n_layers=10**9),
     "missing parameter 'layer999999999.attn.wq'"),
], ids=["n-layers-1", "extra-tensor", "layer-index-zero-padded", "n-layers-3", "layer-0-gone",
        "n-layers-1e9"])
def test_model_checkpoint_whose_tensors_are_not_its_layers_is_exit_4(workdir, tmp_path,
                                                                     capsys, edit, message):
    config, tensors = _two_layer(workdir)
    edit(config, tensors)
    crafted = tmp_path / "crafted.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    start = time.perf_counter()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    assert time.perf_counter() - start < 5.0  # no layer is built before the layer check
    assert capsys.readouterr().err == f"checkpoint error: {crafted}: {message}\n"


@pytest.mark.parametrize("max_tokens,cause", [(10**17, "Unable to allocate 2.78 EiB"),
                                              (10**18, "array is too big")],
                         ids=["1e17", "1e18"])
def test_model_checkpoint_of_an_encoder_too_large_to_allocate_is_exit_4(
        workdir, tmp_path, capsys, max_tokens, cause):
    config, tensors = load_checkpoint(workdir["fine"])
    config["encoder"] = {**config["encoder"], "max_tokens": max_tokens}
    crafted = tmp_path / "huge.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: {crafted}: an encoder of d=8, ffn_dim=16, "
                          f"vocab_size={config['encoder']['vocab_size']}, max_tokens="
                          f"{max_tokens} and max_items=6 cannot be allocated (")
    assert cause in err


@pytest.mark.parametrize("max_tokens,cause", [(10**17, "Unable to allocate 5.55 EiB"),
                                              (10**18, "array is too big")],
                         ids=["1e17", "1e18"])
def test_pretrain_of_an_encoder_too_large_to_allocate_is_exit_2(workdir, tmp_path, capsys,
                                                                max_tokens, cause):
    cfg = json.loads(workdir["config"].read_text())
    cfg["encoder"]["max_tokens"] = max_tokens
    cfg["log"] = str(tmp_path / "train.log")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("pretrain", "--config", cfg_path, "--out", tmp_path / "out.ckpt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: an encoder of d=8, ffn_dim=16, vocab_size=")
    assert f"max_tokens={max_tokens} and max_items=6 cannot be allocated (" in err
    assert cause in err
    assert not (tmp_path / "out.ckpt").exists()


def test_model_checkpoint_with_a_one_dimensional_item_matrix_is_exit_4(workdir, tmp_path,
                                                                       capsys):
    config, tensors = load_checkpoint(workdir["fine"])
    tensors["item_matrix"] = tensors["item_matrix"][:, 0]
    crafted = tmp_path / "flat.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    assert capsys.readouterr().err == (f"checkpoint error: {crafted}: malformed item matrix "
                                       f"(12 ids but rows of shape (12,))\n")


# ---------------------------------------------------------------------------
# recommend from the catalog its item matrix was encoded from


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def parsed_lines(monkeypatch) -> list[int]:
    """Line numbers of every JSONL line parsed while the test runs."""
    parsed = []
    real = catalog_mod._parse_line
    monkeypatch.setattr(catalog_mod, "_parse_line",
                        lambda path, n, line: parsed.append(n) or real(path, n, line))
    return parsed


def test_checkpoints_and_item_matrix_files_record_the_items_digest(workdir, tmp_path):
    items = workdir["data"] / "items.jsonl"
    assert load_checkpoint(workdir["pre"])[0]["item_digest"] is None
    assert load_checkpoint(workdir["fine"])[0]["item_digest"] == _sha256(items)
    out = tmp_path / "m.mat"
    assert run("encode-items", "--ckpt", workdir["pre"], "--items", items, "--out", out) == 0
    assert load_checkpoint(out)[0]["item_digest"] == _sha256(items)


@pytest.mark.parametrize("source", ["model checkpoint", "item-matrix file"])
def test_recommend_parses_only_the_history_lines_of_a_matching_file(workdir, tmp_path, capsys,
                                                                    parsed_lines, source):
    items = workdir["data"] / "items.jsonl"
    argv = ["--ckpt", workdir["fine"]]
    if source == "item-matrix file":
        mat = tmp_path / "m.mat"
        assert run("encode-items", "--ckpt", workdir["pre"], "--items", items, "--out", mat) == 0
        argv = ["--ckpt", workdir["pre"], "--item-matrix", mat]
    same_items = tmp_path / "items.jsonl"
    same_items.write_bytes(items.read_bytes() + b"\n")  # another digest: parsed whole
    outs = []
    for path in (items, same_items):
        parsed_lines.clear()
        capsys.readouterr()
        assert run("recommend", *argv, "--items", path,
                   "--history", "d0_i004,d0_i001,d0_i004") == 0
        outs.append((capsys.readouterr().out, sorted(parsed_lines)))
    ids = [it.item_id for it in load_items_jsonl(items)]
    assert outs[0][1] == sorted([ids.index("d0_i004") + 1, ids.index("d0_i001") + 1])
    assert outs[1][1] == list(range(1, len(ids) + 1))
    assert outs[0][0] == outs[1][0] and len(json.loads(outs[0][0])) == 10


def test_recommend_on_a_matching_file_keeps_the_unknown_id_error(workdir, capsys,
                                                                 parsed_lines):
    capsys.readouterr()
    assert run("recommend", "--ckpt", workdir["fine"], "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000,no_such_item") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: unknown item id 'no_such_item'\n"
    assert parsed_lines == [1]


@pytest.mark.parametrize("change", ["ids-reordered", "id-renamed", "extra-line"])
def test_a_checkpoint_that_disagrees_with_its_items_digest_is_exit_4(workdir, tmp_path,
                                                                    capsys, change):
    config, tensors = load_checkpoint(workdir["fine"])
    items = workdir["data"] / "items.jsonl"
    if change == "ids-reordered":  # a consistent matrix, but not in the file's order
        config["item_ids"] = config["item_ids"][::-1]
        tensors["item_matrix"] = tensors["item_matrix"][::-1]
        message = "{items}:12: holds item 'd0_i011' where the item matrix of the same " \
                  "digest has 'd0_i000'"
    elif change == "id-renamed":
        config["item_ids"] = ["ghost", *config["item_ids"][1:]]
        message = "{items} has the digest its item matrix records, but holds item " \
                  "'d0_i000', which the matrix lacks"
    else:
        longer = tmp_path / "items.jsonl"
        longer.write_bytes(items.read_bytes() + b'{"item_id": "x", "attributes": []}\n')
        items, config["item_digest"] = longer, _sha256(longer)
        message = "{items} has the digest its item matrix records, but 13 lines for 12 items"
    crafted = tmp_path / "crafted.ckpt"
    save_checkpoint(crafted, config, tensors)
    capsys.readouterr()
    assert run("recommend", "--ckpt", crafted, "--items", items, "--history", "d0_i000") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "checkpoint error: " + message.format(items=items) + "\n"


@pytest.mark.parametrize("source", ["model checkpoint", "item-matrix file"])
@pytest.mark.parametrize("value", [5, ["x"], {"sha256": "x"}, True])
def test_an_item_digest_that_is_not_a_string_is_exit_4(workdir, tmp_path, capsys, source,
                                                       value):
    config, tensors = load_checkpoint(workdir["fine"])
    if source == "model checkpoint":
        crafted = tmp_path / "crafted.ckpt"
        save_checkpoint(crafted, {**config, "item_digest": value}, tensors)
        argv = ["--ckpt", crafted]
    else:
        crafted = tmp_path / "crafted.mat"
        save_checkpoint(crafted, {"kind": "item_matrix", "item_ids": config["item_ids"],
                                  "fingerprint": "", "item_digest": value},
                        {"rows": tensors["item_matrix"]})
        argv = ["--ckpt", workdir["pre"], "--item-matrix", crafted]
    capsys.readouterr()
    assert run("recommend", *argv, "--items", workdir["data"] / "items.jsonl",
               "--history", "d0_i000") == 4
    assert capsys.readouterr().err == (f"checkpoint error: {crafted}: item_digest must be a "
                                       f"string, got {value!r}\n")


def test_loading_a_model_draws_no_random_weights(workdir, tmp_path, capsys, monkeypatch):
    from txrec import tensor

    monkeypatch.setattr(tensor, "truncated_normal", lambda *a, **k: pytest.fail("random draw"))
    items = workdir["data"] / "items.jsonl"
    assert run("recommend", "--ckpt", workdir["fine"], "--items", items,
               "--history", "d0_i000") == 0
    assert run("encode-items", "--ckpt", workdir["pre"], "--items", items,
               "--out", tmp_path / "m.mat") == 0
    assert run("evaluate", "--ckpt", workdir["fine"], "--data", workdir["data"]) == 0


def test_evaluate_zero_shot_with_an_item_matrix_is_exit_2(workdir, tmp_path, capsys):
    capsys.readouterr()
    assert run("evaluate", "--ckpt", workdir["pre"], "--data", workdir["data"], "--zero-shot",
               "--item-matrix", tmp_path / "absent.mat") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: --zero-shot encodes the catalog fresh and takes no "
                            "--item-matrix; pass one or the other\n")


@pytest.mark.parametrize("under", [False, True])
def test_make_synthetic_into_a_file_is_exit_2(tmp_path, capsys, under):
    existing = tmp_path / "corpus"
    existing.write_text("keep")
    out = existing / "sub" if under else existing
    capsys.readouterr()
    assert run("make-synthetic", "--out", out, "--items-per-domain", 12, "--users", 4) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out}: Not a directory\n"
    assert existing.read_text() == "keep"


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point_prints_usage():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "txrec", "--help"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "make-synthetic" in proc.stdout and "recommend" in proc.stdout
