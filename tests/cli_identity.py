"""Run one fixed `txrec` command sequence in process and write a sha256 manifest.

    PYTHONPATH=src python tests/cli_identity.py OUT_DIR

The sequence runs twice, at encoder `max_tokens` 96 and 12 (12 cuts every
history of more than one item), each time in its own folder
OUT_DIR/tokens_<max_tokens>: make-synthetic (two domains, a quarter of the
items cold); build-vocab from the first domain's items; pretrain on the first
domain with a built vocabulary and again with that vocabulary file, the
second run also validating on the first domain's histories; finetune;
evaluate plain, `--cold-start --csv` and `--zero-shot` (the pretrained
checkpoint on the second domain); encode-items; evaluate with `--item-matrix`;
recommend from the stored matrix, with `--item-matrix`, and from the second
domain's items, which the stored matrix does not cover. Every path is relative
to that folder.

OUT_DIR/manifest.json records each command's exit code and the sha256 of its
stdout, and the sha256 of every file the sequence wrote. The epoch logs are
hashed with their timing fields left out, since they differ from run to run;
everything else is hashed as written. Two runs, or two versions of the
package, that write equal manifests gave the same outputs on this sequence.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from txrec.cli import main

TOKEN_BUDGETS = (96, 12)
TIMING_FIELDS = ("wall_s", "encode_s", "examples_per_s", "tokens_per_s")
LOG, VOCAB_LOG = "train.log", "pretrain_vocab.log"
SEEN, UNSEEN = "corpus/domain_00", "corpus/domain_01"
HISTORY = "d0_i000,d0_i003,d0_i005"
COMMANDS = (
    ("make-synthetic", ["make-synthetic", "--out", "corpus", "--seed", "5", "--domains", "2",
                        "--items-per-domain", "12", "--users", "24", "--cold-fraction", "0.25"]),
    ("build-vocab", ["build-vocab", "--items", f"{SEEN}/items.jsonl", "--out", "vocab.txt"]),
    ("pretrain", ["pretrain", "--config", "config.json", "--out", "pre.ckpt"]),
    ("pretrain-vocab", ["pretrain", "--config", "config_vocab.json", "--out", "pre_vocab.ckpt"]),
    ("finetune", ["finetune", "--config", "config.json", "--init", "pre.ckpt",
                  "--out", "fine.ckpt"]),
    ("evaluate", ["evaluate", "--ckpt", "fine.ckpt", "--data", SEEN]),
    ("evaluate-cold-start", ["evaluate", "--ckpt", "fine.ckpt", "--data", SEEN,
                             "--cold-start", "--csv", "cold.csv"]),
    ("evaluate-zero-shot", ["evaluate", "--ckpt", "pre.ckpt", "--data", UNSEEN, "--zero-shot"]),
    ("encode-items", ["encode-items", "--ckpt", "fine.ckpt", "--items", f"{SEEN}/items.jsonl",
                      "--out", "items.matrix"]),
    ("evaluate-item-matrix", ["evaluate", "--ckpt", "fine.ckpt", "--data", SEEN,
                              "--item-matrix", "items.matrix"]),
    ("recommend", ["recommend", "--ckpt", "fine.ckpt", "--items", f"{SEEN}/items.jsonl",
                   "--history", HISTORY]),
    ("recommend-item-matrix", ["recommend", "--ckpt", "fine.ckpt", "--items",
                               f"{SEEN}/items.jsonl", "--history", HISTORY,
                               "--item-matrix", "items.matrix"]),
    ("recommend-other-catalog", ["recommend", "--ckpt", "fine.ckpt", "--items",
                                 f"{UNSEEN}/items.jsonl", "--history", "d1_i000,d1_i003"]),
)


def _config(max_tokens: int) -> dict:
    return {
        "seed": 0,
        "data": {"items": f"{SEEN}/items.jsonl", "interactions": f"{SEEN}/interactions.jsonl"},
        "encoder": {"d": 8, "n_layers": 1, "n_heads": 2, "window": 4, "ffn_dim": 16,
                    "max_tokens": max_tokens, "max_items": 6, "dropout": 0.1},
        "train": {"n_epochs": 2, "pretrain_batch": 8, "finetune_batch": 8,
                  "lr": 0.001, "patience": 2},
        "loss": {"temperature": 0.1, "mlm_weight": 0.1},
        "log": LOG,
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _untimed(log: bytes) -> bytes:
    records = [json.loads(line) for line in log.decode("utf-8").splitlines()]
    return "".join(json.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS}) + "\n"
                   for r in records).encode("utf-8")


def run(out_dir: str | Path) -> dict:
    """Run the sequence under `out_dir`, write its manifest there and return it."""
    out = Path(out_dir)
    manifest: dict = {"commands": {}, "files": {}}
    for max_tokens in TOKEN_BUDGETS:
        folder = out / f"tokens_{max_tokens}"
        folder.mkdir(parents=True)
        config = _config(max_tokens)
        (folder / "config.json").write_text(json.dumps(config), encoding="utf-8")
        # pretraining only: finetune refuses data.valid_interactions
        config["data"]["valid_interactions"] = config["data"]["interactions"]
        (folder / "config_vocab.json").write_text(
            json.dumps({**config, "vocab": "vocab.txt", "log": VOCAB_LOG}), encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(folder)
        try:
            for name, argv in COMMANDS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                manifest["commands"][f"{folder.name}/{name}"] = {
                    "exit": code, "stdout": _sha256(stdout.getvalue().encode("utf-8"))}
        finally:
            os.chdir(cwd)
        for path in sorted(p for p in folder.rglob("*") if p.is_file()):
            data = path.read_bytes()
            manifest["files"][path.relative_to(out).as_posix()] = _sha256(
                _untimed(data) if path.name in (LOG, VOCAB_LOG) else data)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    run(sys.argv[1])
