"""Pretraining and the two-stage finetuning procedure.

Pretraining slides over raw user histories: each sequence contributes one
(prefix, final item) pair per epoch, and batches mix the contrastive loss
with masked-token prediction. Finetuning alternates re-encoding the whole
catalog with training against it (stage one), then freezes the best item
matrix and trains the history encoder alone against it (stage two). The
best-validation snapshot wins, never the last epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tensor as T
from .catalog import (Catalog, InputLimits, InteractionSequence, Vocabulary,
                      build_model_input, item_input)
from .encoder import Encoder, encode_rows, params_fingerprint
from .errors import CatalogError, NonFiniteLossError
from .evaluator import EvalCase, EvalSplit, evaluate_cases
from .objectives import (LossConfig, MLMHead, apply_masking_plan, finetune_loss,
                         iic_inbatch_loss, make_masking_plan, pooled_mlm_loss,
                         pretrain_loss)
from .rng import stream
from .tensor import Adam, GradTape, clip_global_norm


@dataclass(frozen=True)
class TrainConfig:
    n_epochs: int = 10
    pretrain_batch: int = 64
    finetune_batch: int = 16
    lr: float = 5e-5
    patience: int = 5
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.n_epochs < 1:
            problems.append(f"n_epochs={self.n_epochs} must be >= 1")
        if self.pretrain_batch < 1 or self.finetune_batch < 1:
            problems.append("batch sizes must be >= 1")
        if self.lr <= 0.0:
            problems.append(f"lr={self.lr} must be positive")
        if self.patience < 1:
            problems.append(f"patience={self.patience} must be >= 1")
        if self.grad_clip <= 0.0:
            problems.append(f"grad_clip={self.grad_clip} must be positive")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class ItemFeatureMatrix:
    """Catalog representations, one row per item, in catalog order.

    `digest` is the encoded catalog's `Catalog.digest`, when known. Rows that
    are not aligned to their dtype, as checkpoint views often are, are
    copied once: numpy ranks an unaligned matrix about 1.5x slower.
    """

    ids: list[str]
    rows: np.ndarray
    fingerprint: str
    digest: str | None = None

    def __post_init__(self):
        self.rows = np.require(self.rows, requirements="A")
        self._index = {iid: i for i, iid in enumerate(self.ids)}
        if not isinstance(self.ids, list) or not set(map(type, self.ids)) <= {str}:
            raise ValueError("item matrix ids must be a list of strings")
        if len(self._index) != len(self.ids):
            raise ValueError("item matrix ids are not unique")
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids but rows of shape {self.rows.shape}")

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise CatalogError(f"unknown item id '{item_id}'") from None

    @property
    def index(self) -> dict[str, int]:
        return self._index


def encode_all_items(encoder: Encoder, catalog: Catalog, vocab: Vocabulary,
                     limits: InputLimits = InputLimits()) -> ItemFeatureMatrix:
    """Encode every catalog item's aggregate row with `encode_rows`; rows land
    in catalog order."""
    if len(catalog) == 0:
        raise ValueError("catalog is empty")
    ids = catalog.ids
    inputs = [item_input(iid, catalog, vocab, limits) for iid in ids]
    rows = encode_rows(encoder, inputs).data
    return ItemFeatureMatrix(ids, rows, params_fingerprint(encoder.parameters()), catalog.digest)


def early_stop(history: Sequence[float], patience: int) -> bool:
    """True when none of the last `patience` entries set a new running maximum."""
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if len(history) < patience:
        return False
    best = -np.inf
    improved_at = -1
    for i, v in enumerate(history):
        if v > best:
            best = v
            improved_at = i
    return improved_at < len(history) - patience


def save_state(params: Sequence[T.Parameter]) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in params}


def load_state(params: Sequence[T.Parameter], state: dict[str, np.ndarray]) -> None:
    T.load_params(params, state)


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def _train_epoch(batches: Iterable[np.ndarray],
                 batch_loss: Callable[[np.ndarray], tuple[T.Tensor, dict[str, float]]],
                 adam: Adam, grad_clip: float, where: str) -> dict:
    """One optimizer step per batch: `batch_loss(batch)` gives the loss and its
    float parts. Returns each part's mean over the batches, the largest
    pre-clip gradient norm and the number of clipped batches.

    A NaN or infinite loss stops the run before clipping and the step, naming
    the batch through `where`, a template with a `{batch}` field.
    """
    sums: dict[str, float] = {}
    grad_norm = 0.0
    n_batches = clipped = 0
    for batch in batches:
        n_batches += 1
        with GradTape() as tape:
            loss, parts = batch_loss(batch)
        if not np.isfinite(loss.data):
            raise NonFiniteLossError(f"non-finite loss {float(loss.data)} at "
                                     f"{where.format(batch=n_batches)}")
        tape.backward(loss)
        norm = clip_global_norm(adam.params, grad_clip)
        adam.step()
        grad_norm = max(grad_norm, norm)
        clipped += int(norm > grad_clip)
        for key, value in parts.items():
            sums[key] = sums.get(key, 0.0) + value
    return {**{key: total / n_batches for key, total in sums.items()},
            "grad_norm": grad_norm, "clipped": clipped}


# ---------------------------------------------------------------------------
# pretraining


def pretrain_examples(sequences: Sequence[InteractionSequence],
                      catalog: Catalog) -> list[tuple[tuple[str, ...], str]]:
    """One (prefix, final item) pair per sequence; shorter than two items skipped.
    An item id the catalog lacks, in any sequence, raises CatalogError."""
    examples = []
    for seq in sequences:
        unknown = next((iid for iid in seq.items if iid not in catalog), None)
        if unknown is not None:
            raise CatalogError(f"unknown item id '{unknown}'")
        if len(seq.items) >= 2:
            examples.append((seq.items[:-1], seq.items[-1]))
    return examples


def pretrain(sequences: Sequence[InteractionSequence], catalog: Catalog,
             vocab: Vocabulary, encoder: Encoder, head: MLMHead,
             train_cfg: TrainConfig, loss_cfg: LossConfig,
             limits: InputLimits = InputLimits(),
             valid_sequences: Sequence[InteractionSequence] | None = None,
             log_fn: Callable[[dict], None] | None = None) -> list[dict]:
    """Contrastive + masked-token pretraining over raw histories.

    Returns the per-epoch history of logged records: mean losses, the largest
    pre-clip gradient norm, the number of clipped batches, the learning rate
    `lr` and the epoch's wall time `wall_s`. Identical seeds and data give
    identical curves, wall time aside: every random choice comes from named
    streams.
    """
    examples = pretrain_examples(sequences, catalog)
    if not examples:
        raise ValueError("no usable pretraining sequences (need length >= 2)")
    adam = Adam(encoder.parameters() + head.parameters(), lr=train_cfg.lr)
    data_rng = stream(train_cfg.seed, "data")
    mask_rng = stream(train_cfg.seed, "mask")
    drop_rng = stream(train_cfg.seed, "dropout")
    valid_examples = pretrain_examples(valid_sequences, catalog) if valid_sequences else []
    history: list[dict] = []

    def batch_loss(batch):
        return _pretrain_batch_loss([examples[i] for i in batch], catalog, vocab, encoder, head,
                                    loss_cfg, limits, mask_rng, drop_rng)

    for epoch in range(1, train_cfg.n_epochs + 1):
        start = perf_counter()
        stats = _train_epoch(_batches(data_rng.permutation(len(examples)), train_cfg.pretrain_batch),
                             batch_loss, adam, train_cfg.grad_clip,
                             f"pretrain epoch {epoch} batch {{batch}}")
        record = {"stage": "pretrain", "epoch": epoch, **stats, "lr": adam.lr,
                  "valid_metric": None, "snapshot_taken": False}
        if valid_examples:
            record["valid_metric"] = _pretrain_valid_loss(
                valid_examples, catalog, vocab, encoder, head, loss_cfg, limits,
                stream(train_cfg.seed, "valid-mask"))
        record["wall_s"] = perf_counter() - start
        history.append(record)
        if log_fn:
            log_fn(dict(record))
    return history


def _pretrain_batch_loss(batch, catalog, vocab, encoder, head, loss_cfg, limits,
                         mask_rng, drop_rng):
    """Loss for one batch of (prefix, positive) pairs, plus float components;
    dropout runs when `drop_rng` is given.

    The masked prefixes keep their aggregate rows and, for the masked-token
    loss, their masked rows, input by input: the only rows either loss reads."""
    xs = [build_model_input(prefix, catalog, vocab, limits) for prefix, _ in batch]
    plans = [make_masking_plan(x, vocab.size, mask_rng) for x in xs]
    use_mlm = loss_cfg.mlm_weight > 0.0
    masked = encode_rows(encoder, [apply_masking_plan(x, p) for x, p in zip(xs, plans)], drop_rng,
                         rows=[p.positions for p in plans] if use_mlm else None)
    positives = encode_rows(encoder, [item_input(pos_id, catalog, vocab, limits)
                                      for _, pos_id in batch], drop_rng)
    n = len(batch)
    iic = iic_inbatch_loss(T.gather_rows(masked, np.arange(n)), positives, loss_cfg.temperature)
    mlm = None
    if use_mlm:
        mlm = pooled_mlm_loss(T.gather_rows(masked, np.arange(n, len(masked.data))), plans, head)
    loss = pretrain_loss(iic, mlm, loss_cfg.mlm_weight)
    return loss, {"loss": float(loss.data), "iic": float(iic.data),
                  "mlm": float(mlm.data) if mlm is not None else 0.0}


def _pretrain_valid_loss(examples, catalog, vocab, encoder, head, loss_cfg, limits,
                         mask_rng) -> float:
    """Mean combined loss over held-out sequences, dropout off, fixed masks."""
    total = 0.0
    n = 0
    for batch in _batches(np.arange(len(examples)), 64):
        loss, _ = _pretrain_batch_loss(
            [examples[i] for i in batch], catalog, vocab, encoder, head,
            loss_cfg, limits, mask_rng, None)
        total += float(loss.data) * len(batch)
        n += len(batch)
    return total / n


# ---------------------------------------------------------------------------
# two-stage finetuning


@dataclass
class FinetuneResult:
    best_state: dict[str, np.ndarray]
    item_matrix: ItemFeatureMatrix
    best_metric: float
    history: list[dict]


def finetune_examples(split: EvalSplit) -> list[tuple[tuple[str, ...], str]]:
    """Last train interaction is the positive, the rest its context."""
    return [(seq.items[:-1], seq.items[-1]) for seq in split.train if len(seq.items) >= 2]


def two_stage_finetune(split: EvalSplit, catalog: Catalog, vocab: Vocabulary,
                       encoder: Encoder, train_cfg: TrainConfig, loss_cfg: LossConfig,
                       limits: InputLimits = InputLimits(),
                       evaluate_fn: Callable[[int, int, Encoder, ItemFeatureMatrix], float] | None = None,
                       train_fn: Callable[[int, int, Encoder, ItemFeatureMatrix], dict | None] | None = None,
                       log_fn: Callable[[dict], None] | None = None) -> FinetuneResult:
    """Alternating then frozen-matrix finetuning, keeping the best snapshot.

    Stage one: each epoch re-encodes the catalog with the current encoder,
    trains one epoch against that matrix, and scores validation; the matrix
    paired with a new best score is kept as the frozen candidate, and the
    first epoch's matrix, encoded for the incoming snapshot, is the candidate
    until then. Stage two rewinds the encoder to the best snapshot and
    trains against the frozen matrix only. Validation never improving past the
    incoming best means the stage contributes no new snapshot. Either stage
    stops early once `patience` epochs pass without a new best.

    Each epoch's record carries `train_fn`'s `train_loss`, `grad_norm` and
    `clipped`, None where it returns no such key, the learning rate `lr`, the
    time of the epoch's catalog encode `encode_s` (0.0 in stage two, which
    reuses the frozen matrix) and the epoch's wall time `wall_s`.
    """
    examples = finetune_examples(split)
    if not examples:
        raise ValueError("finetuning needs at least one train sequence of length >= 2")
    if evaluate_fn is None and not split.valid:
        raise ValueError("finetuning needs validation cases (or an evaluate_fn)")

    data_rng = stream(train_cfg.seed, "data")
    drop_rng = stream(train_cfg.seed, "dropout")

    def default_evaluate(stage: int, epoch: int, enc: Encoder,
                         matrix: ItemFeatureMatrix) -> float:
        report = evaluate_cases(enc, matrix.rows, matrix.index, split.valid,
                                catalog, vocab, limits)
        return report.metrics["ndcg@10"]

    def default_train(stage: int, epoch: int, enc: Encoder,
                      matrix: ItemFeatureMatrix) -> dict:
        return _finetune_epoch(enc, matrix, examples, adam, train_cfg, loss_cfg, catalog,
                               vocab, limits, data_rng, drop_rng,
                               f"batch {{batch}} of finetune stage {stage} epoch {epoch}")

    evaluate_fn = evaluate_fn or default_evaluate
    train_fn = train_fn or default_train
    params = encoder.parameters()
    history: list[dict] = []

    best_metric = 0.0
    best_state = save_state(params)
    best_matrix = None
    for stage in (1, 2):
        if stage == 2:
            load_state(params, best_state)
        adam = Adam(params, lr=train_cfg.lr)  # fresh moments for each stage
        scores = [best_metric]
        for epoch in range(1, train_cfg.n_epochs + 1):
            start = perf_counter()
            if stage == 2:
                matrix, encode_s = best_matrix, 0.0
            else:
                matrix = encode_all_items(encoder, catalog, vocab, limits)
                encode_s = perf_counter() - start
                best_matrix = best_matrix or matrix
            stats = train_fn(stage, epoch, encoder, matrix) or {}
            metric = evaluate_fn(stage, epoch, encoder, matrix)
            took = metric > best_metric
            if took:
                best_metric, best_state, best_matrix = metric, save_state(params), matrix
            record = {"stage": stage, "epoch": epoch,
                      **{key: stats.get(key) for key in ("train_loss", "grad_norm", "clipped")},
                      "lr": adam.lr, "valid_metric": metric, "snapshot_taken": took,
                      "encode_s": encode_s, "wall_s": perf_counter() - start}
            history.append(record)
            if log_fn:
                log_fn(dict(record))
            scores.append(metric)
            if early_stop(scores, train_cfg.patience):
                break

    load_state(params, best_state)
    return FinetuneResult(best_state, best_matrix, best_metric, history)


def _finetune_epoch(encoder: Encoder, matrix: ItemFeatureMatrix, examples,
                    adam: Adam, train_cfg: TrainConfig, loss_cfg: LossConfig,
                    catalog: Catalog, vocab: Vocabulary, limits: InputLimits,
                    data_rng: np.random.Generator, drop_rng: np.random.Generator,
                    where: str) -> dict:
    """One pass over `examples` against `matrix`: the mean loss, the largest
    pre-clip gradient norm and the number of clipped batches."""
    positives = np.array([matrix.index_of(pos_id) for _, pos_id in examples], dtype=np.int64)

    def batch_loss(batch):
        xs = [build_model_input(examples[i][0], catalog, vocab, limits) for i in batch]
        rows = encode_rows(encoder, xs, drop_rng)
        loss = finetune_loss(rows, positives[batch], matrix.rows, loss_cfg.temperature)
        return loss, {"train_loss": float(loss.data)}

    return _train_epoch(_batches(data_rng.permutation(len(examples)), train_cfg.finetune_batch),
                        batch_loss, adam, train_cfg.grad_clip, where)
