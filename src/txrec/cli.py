"""Command-line entry point.

Subcommands cover the whole lifecycle: synthetic data, vocabulary building,
pretraining, two-stage finetuning, evaluation, item encoding, and top-K
recommendation. stdout carries machine-readable JSON only (evaluate and
recommend); everything human-facing goes to stderr. Exit codes: 0 success,
2 configuration problems, 3 data problems (a non-finite training loss
among them), 4 checkpoint problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .catalog import (Catalog, InputLimits, Item, Vocabulary, build_model_input,
                      load_interactions_jsonl, load_items_jsonl)
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import Encoder, EncoderConfig, params_fingerprint
from .errors import CheckpointError, ConfigError, DataError
from .evaluator import CSV_HEADER, cold_start_split, evaluate_cases, leave_one_out
from .objectives import LossConfig, MLMHead, cosine_scores
from .rng import stream
from .trainer import (ItemFeatureMatrix, TrainConfig, encode_all_items,
                      pretrain, two_stage_finetune)

log = logging.getLogger("txrec")


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    seed: int = 0
    data_items: list[str] = field(default_factory=list)
    data_interactions: list[str] = field(default_factory=list)
    valid_interactions: list[str] = field(default_factory=list)
    vocab_path: str | None = None
    log_path: str | None = None
    limits: InputLimits = field(default_factory=InputLimits)
    encoder: dict = field(default_factory=dict)   # the encoder.* keys the config sets
    catalog: dict = field(default_factory=dict)   # the catalog.* keys the config sets
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)


def _schema(cls, skip: tuple[str, ...] = ()) -> dict:
    """Config key -> type for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


# vocab_size comes from the vocabulary and the seed from the top-level key
_ENCODER_KEYS = _schema(EncoderConfig, skip=("vocab_size",))
_TRAIN_KEYS = _schema(TrainConfig, skip=("seed",))
_LOSS_KEYS = _schema(LossConfig)
_LIMIT_KEYS = _schema(InputLimits)
_CATALOG_KEYS = {"tokens_per_field": int, "min_count": int}
_DATA_KEYS = ("items", "interactions", "valid_interactions")
# the sections a model checkpoint stores, typed like the run config's
_CKPT_SECTIONS = {"encoder": _schema(EncoderConfig), "limits": _LIMIT_KEYS, "loss": _LOSS_KEYS}
_UNRECORDED = object()  # min_count of a checkpoint older than that key; saved as null


def _typed(value, want, where: str, errors: list[str]):
    if want is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif want is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    errors.append(f"{where}: expected {want.__name__}, got {value!r}")
    return None


def _section(raw: dict, name: str, keys: dict, errors: list[str]) -> dict:
    out = {}
    section = raw.get(name, {})
    if not isinstance(section, dict):
        errors.append(f"{name}: expected an object")
        return out
    for k, v in section.items():
        if k not in keys:
            errors.append(f"unknown config key '{name}.{k}'")
            continue
        typed = _typed(v, keys[k], f"{name}.{k}", errors)
        if typed is not None:
            out[k] = typed
    return out


def _path_list(value, where: str, errors: list[str]) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return list(value)
    errors.append(f"{where}: expected a path or list of paths")
    return []


def validate_run_config(raw: dict) -> RunConfig:
    """Check every key and value; report all problems at once."""
    errors: list[str] = []
    known_top = {"seed", "vocab", "log", "data", "catalog", "encoder", "train", "loss"}
    for k in raw:
        if k not in known_top:
            errors.append(f"unknown config key '{k}'")

    cfg = RunConfig()
    if "seed" in raw:
        seed = _typed(raw["seed"], int, "seed", errors)
        if seed is not None:
            cfg.seed = seed
    for opt in ("vocab", "log"):
        if opt in raw and raw[opt] is not None:
            if isinstance(raw[opt], str):
                setattr(cfg, f"{opt}_path", raw[opt])
            else:
                errors.append(f"{opt}: expected a path string")

    data = raw.get("data", {})
    if not isinstance(data, dict):
        errors.append("data: expected an object")
        data = {}
    for k in data:
        if k not in _DATA_KEYS:
            errors.append(f"unknown config key 'data.{k}'")
    if "items" in data:
        cfg.data_items = _path_list(data["items"], "data.items", errors)
    if "interactions" in data:
        cfg.data_interactions = _path_list(data["interactions"], "data.interactions", errors)
    if "valid_interactions" in data:
        cfg.valid_interactions = _path_list(data["valid_interactions"],
                                            "data.valid_interactions", errors)

    cat = _section(raw, "catalog", _CATALOG_KEYS, errors)
    enc = _section(raw, "encoder", _ENCODER_KEYS, errors)
    trn = _section(raw, "train", _TRAIN_KEYS, errors)
    lss = _section(raw, "loss", _LOSS_KEYS, errors)

    if not errors:
        try:
            cfg.limits = InputLimits(**{k: v for k, v in {**enc, **cat}.items()
                                        if k in _LIMIT_KEYS})
            cfg.encoder = enc
            cfg.catalog = cat
            cfg.train = TrainConfig(**trn, seed=cfg.seed)
            cfg.loss = LossConfig(**lss)
            if cat.get("min_count", 1) < 1:
                errors.append(f"catalog.min_count={cat['min_count']} must be >= 1")
        except ValueError as e:
            errors.append(str(e))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def load_run_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg}, line {e.lineno})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return validate_run_config(raw)


# ---------------------------------------------------------------------------
# checkpoint plumbing


@dataclass
class Model:
    """An encoder with the vocabulary and input limits it reads sentences with, plus an MLM
    head after pretraining or an item matrix after finetuning. `save` and `load` hold the
    checkpoint format. `min_count` built the vocabulary; None means a vocab file did."""

    encoder: Encoder
    vocab: Vocabulary
    limits: InputLimits
    loss: LossConfig
    seed: int | None
    head: MLMHead | None = None
    matrix: ItemFeatureMatrix | None = None
    min_count: int | None = None

    def save(self, path: str) -> None:
        config = {
            "kind": "model",
            "encoder": self.encoder.config.to_dict(),
            "limits": asdict(self.limits),
            "loss": asdict(self.loss),
            "seed": self.seed,
            "vocab_tokens": self.vocab.token_list(),
            "min_count": None if self.min_count is _UNRECORDED else self.min_count,
            "item_ids": self.matrix.ids if self.matrix is not None else None,
            "fingerprint": params_fingerprint(self.encoder.parameters()),
            # the matrix may come from an earlier snapshot than the final encoder
            "item_fingerprint": self.matrix.fingerprint if self.matrix is not None else None,
            # the items file the matrix was encoded from, for `recommend`'s partial parse
            "item_digest": self.matrix.digest if self.matrix is not None else None,
        }
        tensors = dict(self.encoder.state_dict())
        if self.head is not None:
            tensors.update(self.head.state_dict())
        if self.matrix is not None:
            tensors["item_matrix"] = self.matrix.rows
        save_checkpoint(path, config, tensors)

    @classmethod
    def load(cls, path: str, check_finite: bool = True) -> Model:
        config, tensors = load_checkpoint(path, check_finite)
        if config.get("kind") != "model":
            raise CheckpointError(f"{path} is not a model checkpoint "
                                  f"(kind={config.get('kind')!r})")
        errors = [f"missing '{name}'" for name in _CKPT_SECTIONS if name not in config]
        typed = {n: _section(config, n, keys, errors) for n, keys in _CKPT_SECTIONS.items()}
        for key in ("min_count", "seed"):
            if config.get(key) is not None:
                _typed(config[key], int, key, errors)
        digest = _config_str(path, config, "item_digest")
        for key in ("fingerprint", "item_fingerprint"):
            _config_str(path, config, key)
        if errors:
            raise CheckpointError(f"{path}: malformed model config ({'; '.join(errors)})")
        try:
            enc_cfg = EncoderConfig(**typed["encoder"])
            vocab = Vocabulary(config["vocab_tokens"])
            limits = InputLimits(**typed["limits"])
            loss = LossConfig(**typed["loss"])
        except (KeyError, TypeError, ValueError, DataError) as e:
            raise CheckpointError(f"{path}: malformed model config ({e})") from None
        if vocab.size != enc_cfg.vocab_size:
            raise CheckpointError(f"{path}: vocabulary of {vocab.size} ids but the encoder "
                                  f"has vocab_size={enc_cfg.vocab_size}")
        if limits.max_tokens > enc_cfg.max_tokens or limits.max_items > enc_cfg.max_items:
            raise CheckpointError(f"{path}: limits of {limits.max_tokens} tokens and "
                                  f"{limits.max_items} items exceed the encoder's "
                                  f"{enc_cfg.max_tokens} and {enc_cfg.max_items}")
        # the file's layers must be exactly n_layers before any layer is built
        n = enc_cfg.n_layers
        if n > 0 and f"layer{n - 1}.attn.wq" not in tensors:
            raise CheckpointError(f"{path}: missing parameter 'layer{n - 1}.attn.wq'")
        if f"layer{n}.attn.wq" in tensors:
            raise CheckpointError(f"{path}: unexpected tensor 'layer{n}.attn.wq'")
        # no rng: zeros for load_state_dict to fill, not a random draw it would overwrite
        try:
            encoder = Encoder(enc_cfg, rng=None)
            head = MLMHead(enc_cfg.d, vocab.size, rng=None) if "mlm.w_h" in tensors else None
        except (MemoryError, ValueError) as e:
            raise CheckpointError(f"{path}: {_too_large(enc_cfg, e)}") from None
        known = {p.name for p in encoder.parameters() + (head.parameters() if head else [])}
        known.add("item_matrix")
        unexpected = next((name for name in tensors if name not in known), None)
        if unexpected is not None:
            raise CheckpointError(f"{path}: unexpected tensor '{unexpected}'")
        try:
            encoder.load_state_dict(tensors)
            if head is not None:
                head.load_state_dict(tensors)
        except (KeyError, ValueError) as e:
            raise CheckpointError(f"{path}: {e.args[0]}") from None
        matrix = None
        if config.get("item_ids"):
            if "item_matrix" not in tensors:
                raise CheckpointError(f"{path}: item ids present but matrix tensor missing")
            fingerprint = config.get("item_fingerprint", config.get("fingerprint", ""))
            try:
                matrix = ItemFeatureMatrix(config["item_ids"], tensors["item_matrix"],
                                           fingerprint, digest)
            except (TypeError, ValueError) as e:
                raise CheckpointError(f"{path}: malformed item matrix ({e})") from None
        return cls(encoder, vocab, limits, loss, config.get("seed"), head, matrix,
                   config.get("min_count", _UNRECORDED))


def _save_model_ckpt(path: str, *fields, **named) -> None:
    """`Model(*fields, **named).save(path)`, kept for its only caller, `bench/workloads.py:293`."""
    Model(*fields, **named).save(path)


def _load_item_matrix(path: str) -> ItemFeatureMatrix:
    config, tensors = load_checkpoint(path)
    if config.get("kind") != "item_matrix":
        raise CheckpointError(f"{path} is not an item-matrix file (kind={config.get('kind')!r})")
    try:
        return ItemFeatureMatrix(config["item_ids"], tensors["rows"],
                                 _config_str(path, config, "fingerprint") or "",
                                 _config_str(path, config, "item_digest"))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed item matrix ({e})") from None


def _config_str(path: str, config: dict, key: str) -> str | None:
    """`config[key]`, which must be a string or absent (None)."""
    value = config.get(key)
    if value is not None and not isinstance(value, str):
        raise CheckpointError(f"{path}: {key} must be a string, got {value!r}")
    return value


def _too_large(cfg: EncoderConfig, e: Exception) -> str:
    return (f"an encoder of d={cfg.d}, ffn_dim={cfg.ffn_dim}, vocab_size={cfg.vocab_size}, "
            f"max_tokens={cfg.max_tokens} and max_items={cfg.max_items} cannot be "
            f"allocated ({e})")


def _load_items(paths: list[str]) -> list[Item]:
    items = [it for p in paths for it in load_items_jsonl(p)]
    if not items:
        raise DataError(f"{', '.join(paths)}: no items")
    return items


def _load_corpus(item_paths: list[str], interaction_paths: list[str]):
    items = _load_items(item_paths) if item_paths else []
    seqs = []
    for p in interaction_paths:
        seqs.extend(load_interactions_jsonl(p))
    return Catalog(items), items, seqs


def _check_outputs(*paths: str | None) -> None:
    """Fail before any work on an output path that could not be written later.

    Nothing is created or truncated, so a run that fails leaves no file.
    """
    for path in paths:
        if path is None:
            continue
        p = Path(path)
        if p.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not p.parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory {p.parent}")
        if not os.access(p if p.exists() else p.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: permission denied")


def _epoch_logger(log_path: str | None):
    def write(record: dict) -> None:
        line = json.dumps(record)
        print(line, file=sys.stderr)
        if log_path:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    return write


# ---------------------------------------------------------------------------
# commands


def cmd_make_synthetic(args) -> int:
    from .synthetic import SyntheticSpec, write_corpus

    try:
        spec = SyntheticSpec(seed=args.seed, n_domains=args.domains,
                             items_per_domain=args.items_per_domain,
                             users_per_domain=args.users,
                             cold_fraction=args.cold_fraction)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    try:
        dirs = write_corpus(args.out, spec)
    except OSError as e:  # --out is a file, or lies under one
        raise ConfigError(f"cannot write {args.out}: {e.strerror or e}") from None
    for d in dirs:
        log.info("wrote %s", d)
    return 0


def cmd_build_vocab(args) -> int:
    if args.min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {args.min_count}")
    _check_outputs(args.out)
    vocab = Vocabulary.build(_load_items(args.items), min_count=args.min_count)
    vocab.save(args.out)
    log.info("vocabulary of %d tokens (plus reserved) -> %s", len(vocab.token_list()), args.out)
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config)
    if not cfg.data_items or not cfg.data_interactions:
        raise ConfigError("pretrain needs data.items and data.interactions")
    _check_outputs(args.out, cfg.log_path)
    if cfg.vocab_path and "min_count" in cfg.catalog:
        raise ConfigError(f"catalog.min_count={cfg.catalog['min_count']} has no effect with "
                          f"the vocab file {cfg.vocab_path}; set one or the other")
    catalog, items, seqs = _load_corpus(cfg.data_items, cfg.data_interactions)
    valid_seqs = None
    if cfg.valid_interactions:
        _, _, valid_seqs = _load_corpus([], cfg.valid_interactions)
    if cfg.vocab_path:
        min_count, vocab = None, Vocabulary.load(cfg.vocab_path)
    else:
        min_count = cfg.catalog.get("min_count", 1)
        vocab = Vocabulary.build(items, min_count=min_count)
    enc_kwargs = dict(cfg.encoder)
    enc_kwargs["vocab_size"] = vocab.size
    try:
        enc_cfg = EncoderConfig(**enc_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    init_rng = stream(cfg.seed, "init")
    try:
        encoder = Encoder(enc_cfg, rng=init_rng)
        head = MLMHead(enc_cfg.d, vocab.size, rng=init_rng)
    except (MemoryError, ValueError) as e:
        raise ConfigError(_too_large(enc_cfg, e)) from None
    log.info("pretraining on %d sequences over %d items (vocab %d)",
             len(seqs), len(catalog), vocab.size)
    try:
        pretrain(seqs, catalog, vocab, encoder, head, cfg.train, cfg.loss,
                 cfg.limits, valid_sequences=valid_seqs,
                 log_fn=_epoch_logger(cfg.log_path))
    except ValueError as e:
        raise DataError(str(e)) from None
    Model(encoder, vocab, cfg.limits, cfg.loss, cfg.seed, head=head,
          min_count=min_count).save(args.out)
    log.info("saved %s", args.out)
    return 0


def _check_against_checkpoint(cfg: RunConfig, path: str, model: Model) -> None:
    """Finetuning keeps the checkpoint's encoder, limits and vocabulary.

    A config key that asks for a different one would be silently ignored,
    so it is an error instead. Checkpoints written before `min_count` was
    recorded cannot be checked against it.
    """
    asked = {k: (v, getattr(model.encoder.config, k)) for k, v in cfg.encoder.items()}
    if "tokens_per_field" in cfg.catalog:
        asked["tokens_per_field"] = (cfg.catalog["tokens_per_field"],
                                     model.limits.tokens_per_field)
    if "min_count" in cfg.catalog and model.min_count is not _UNRECORDED:
        asked["min_count"] = (cfg.catalog["min_count"], model.min_count)
    for key, (want, have) in asked.items():
        if want != have:
            raise ConfigError(f"config asks for {key}={want} but checkpoint has {key}={have}")
    if cfg.vocab_path:
        want, have = Vocabulary.load(cfg.vocab_path).token_list(), model.vocab.token_list()
        if want != have:
            raise ConfigError(f"config vocab {cfg.vocab_path} ({len(want)} tokens) differs "
                              f"from the vocabulary in checkpoint {path} ({len(have)} tokens)")


def cmd_finetune(args) -> int:
    cfg = load_run_config(args.config)
    if not cfg.data_items or not cfg.data_interactions:
        raise ConfigError("finetune needs data.items and data.interactions")
    _check_outputs(args.out, cfg.log_path)
    # non-finite weights are left to the loss guard, which names the batch (exit 3)
    model = Model.load(args.init, check_finite=False)
    _check_against_checkpoint(cfg, args.init, model)
    catalog, _, seqs = _load_corpus(cfg.data_items, cfg.data_interactions)
    split = leave_one_out(seqs)
    try:
        result = two_stage_finetune(split, catalog, model.vocab, model.encoder, cfg.train,
                                    cfg.loss, model.limits,
                                    log_fn=_epoch_logger(cfg.log_path))
    except ValueError as e:
        raise DataError(str(e)) from None
    replace(model, loss=cfg.loss, seed=cfg.seed, head=None,
            matrix=result.item_matrix).save(args.out)
    log.info("best validation ndcg@10 %.4f; saved %s", result.best_metric, args.out)
    return 0


def _pick_matrix(args, model: Model, catalog: Catalog,
                 given: ItemFeatureMatrix | None = None) -> ItemFeatureMatrix:
    """The --item-matrix file (`given`, if already loaded), else the stored matrix if
    it covers the catalog, else a fresh encode."""
    source = args.ckpt
    if args.item_matrix:
        source, matrix = args.item_matrix, given or _load_item_matrix(args.item_matrix)
        if set(matrix.ids) != set(catalog.ids):
            raise DataError("item-matrix file does not cover the evaluation catalog")
    elif model.matrix is not None and set(model.matrix.ids) == set(catalog.ids):
        matrix = model.matrix
    else:
        matrix = encode_all_items(model.encoder, catalog, model.vocab, model.limits)
    return _check_width(source, matrix, model.encoder)


def _check_width(source: str, matrix: ItemFeatureMatrix, encoder: Encoder) -> ItemFeatureMatrix:
    if matrix.rows.shape[1] != encoder.config.d:
        raise CheckpointError(f"{source}: item rows have width {matrix.rows.shape[1]} "
                              f"but the model has d={encoder.config.d}")
    return matrix


def cmd_evaluate(args) -> int:
    if args.zero_shot and args.item_matrix:
        raise ConfigError("--zero-shot encodes the catalog fresh and takes no --item-matrix; "
                          "pass one or the other")
    _check_outputs(args.csv)
    model = Model.load(args.ckpt)
    data = Path(args.data)
    catalog, _, seqs = _load_corpus([str(data / "items.jsonl")],
                                    [str(data / "interactions.jsonl")])
    split = leave_one_out(seqs)
    if not split.test:
        raise DataError("no users with enough interactions to evaluate")
    if args.zero_shot:
        # fresh re-encode with the untouched checkpoint, never a stored matrix
        matrix = encode_all_items(model.encoder, catalog, model.vocab, model.limits)
    else:
        matrix = _pick_matrix(args, model, catalog)
    protocol = "zero-shot" if args.zero_shot else "leave-one-out"
    if args.cold_start:  # each non-empty bucket is scored; an empty one reports null
        buckets = cold_start_split(seqs)
        groups = {"in_set": buckets.in_set, "cold": buckets.cold}
    else:
        groups = {None: split.test}
    reports = {name: evaluate_cases(model.encoder, matrix.rows, matrix.index, cases, catalog,
                                    model.vocab, model.limits, fingerprint=matrix.fingerprint,
                                    protocol=f"{protocol}/cold-start/{name}" if name else protocol)
               for name, cases in groups.items() if cases}
    payload = {name: rep.to_dict() if (rep := reports.get(name)) else None for name in groups}
    print(json.dumps(payload if args.cold_start else payload[None]))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for rep in reports.values():
                fh.write(rep.csv_row() + "\n")
    return 0


def cmd_encode_items(args) -> int:
    _check_outputs(args.out)
    model = Model.load(args.ckpt)
    catalog, _, _ = _load_corpus([args.items], [])
    matrix = encode_all_items(model.encoder, catalog, model.vocab, model.limits)
    save_checkpoint(args.out, {
        "kind": "item_matrix",
        "item_ids": matrix.ids,
        "fingerprint": matrix.fingerprint,
        "item_digest": matrix.digest,
        "d": model.encoder.config.d,
    }, {"rows": matrix.rows})
    log.info("encoded %d items -> %s", len(matrix.ids), args.out)
    return 0


def top_k(scores: np.ndarray, ids: list[str], k: int) -> list[int]:
    """Indices of the k best items in (-score, id) order, as a full sort gives.

    argpartition finds the k-th best score; every item scoring at least that
    much is a candidate, so ties that straddle the cut are settled by id.
    """
    k = min(k, len(ids))
    kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
    cand = np.flatnonzero(scores >= kth)
    return sorted(cand.tolist(), key=lambda i: (-scores[i], ids[i]))[:k]


def cmd_recommend(args) -> int:
    """Serve one history. When the items file is byte for byte the catalog that the
    item matrix in use was encoded from, only the history's lines are parsed; any
    other file is parsed whole, and the matrix is picked as `evaluate` picks it."""
    if args.topk < 1:
        raise ConfigError(f"--topk must be >= 1, got {args.topk}")
    model = Model.load(args.ckpt)
    history = [s.strip() for s in args.history.split(",") if s.strip()]
    known, given = model.matrix, None
    if args.item_matrix:
        try:
            known = given = _load_item_matrix(args.item_matrix)
        except CheckpointError:  # _pick_matrix reports it, after any items-file error
            known = None
    digest, line_of = (known.digest, known.index) if known is not None else (None, None)
    items, matched = load_items_jsonl(args.items, digest, line_of, wanted=history)
    if not items and not matched:
        raise DataError(f"{args.items}: no items")
    catalog = Catalog(items)
    if not history:
        raise ConfigError("--history must name at least one item id")
    if matched:
        matrix = _check_width(args.item_matrix or args.ckpt, known, model.encoder)
    else:
        matrix = _pick_matrix(args, model, catalog, given)
    x = build_model_input(history, catalog, model.vocab, model.limits)
    scores = cosine_scores(model.encoder.sequence_repr(x), matrix.rows)
    top = top_k(scores, matrix.ids, args.topk)
    print(json.dumps([{"item_id": matrix.ids[i], "score": float(scores[i])} for i in top]))
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each `parse_args`
    call fills a fresh namespace."""
    parser = argparse.ArgumentParser(prog="txrec",
                                     description="Text-only sequential recommender.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-synthetic", help="generate a multi-domain synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domains", type=int, default=4)
    p.add_argument("--items-per-domain", type=int, default=50)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--cold-fraction", type=float, default=0.0)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("build-vocab", help="build a token vocabulary from item files")
    p.add_argument("--items", action="append", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="contrastive + masked-token pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="two-stage finetuning from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="leave-one-out ranking metrics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="directory with items.jsonl and interactions.jsonl")
    p.add_argument("--item-matrix", default=None, help="precomputed item matrix file")
    p.add_argument("--zero-shot", action="store_true",
                   help="ignore any stored matrix; encode the catalog fresh, no training")
    p.add_argument("--cold-start", action="store_true")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("encode-items", help="encode a catalog into an item matrix file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_items)

    p = sub.add_parser("recommend", help="top-K items for a comma-separated history")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--item-matrix", default=None)
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
