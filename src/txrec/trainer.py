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
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .catalog import (Catalog, InputLimits, InteractionSequence, ModelBatch, Vocabulary,
                      build_model_input, item_input)
from .encoder import Encoder, params_fingerprint
from .errors import NonFiniteLossError
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
    """Catalog representations, one row per item, in catalog order."""

    ids: list[str]
    rows: np.ndarray
    fingerprint: str

    def __post_init__(self):
        self._index = {iid: i for i, iid in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise ValueError("item matrix ids are not unique")
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids but rows of shape {self.rows.shape}")

    def index_of(self, item_id: str) -> int:
        return self._index[item_id]

    @property
    def index(self) -> dict[str, int]:
        return self._index

    def copy(self) -> "ItemFeatureMatrix":
        return ItemFeatureMatrix(list(self.ids), self.rows.copy(), self.fingerprint)


# Padded tokens per batched catalog encode: bounds the activations of one
# batch while keeping each matmul wide enough to amortize per-call overhead.
ENCODE_BATCH_TOKENS = 1024


def encode_all_items(encoder: Encoder, catalog: Catalog, vocab: Vocabulary,
                     limits: InputLimits = InputLimits()) -> ItemFeatureMatrix:
    """Encode every catalog item; rows land in catalog order.

    Items are sorted by sentence length and encoded in padded batches of at
    most ENCODE_BATCH_TOKENS tokens (one item at least), so padding stays
    small.
    """
    if len(catalog) == 0:
        raise ValueError("catalog is empty")
    ids = catalog.ids
    inputs = [item_input(iid, catalog, vocab, limits) for iid in ids]
    order = np.argsort([len(x) for x in inputs], kind="stable")
    rows = np.empty((len(ids), encoder.config.d), dtype=encoder.token_emb.data.dtype)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and (end + 1 - start) * len(inputs[order[end]]) <= ENCODE_BATCH_TOKENS:
            end += 1
        batch = ModelBatch.pack([inputs[i] for i in order[start:end]])
        rows[order[start:end]] = encoder.encode_batch(batch).data[:, 0]
        start = end
    return ItemFeatureMatrix(ids, rows, params_fingerprint(encoder.parameters()))


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
    for p in params:
        p.data[...] = state[p.name]


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def _mean_loss(losses: list[T.Tensor]) -> T.Tensor:
    return T.scale(reduce(T.add, losses), 1.0 / len(losses))


def _check_finite(loss: T.Tensor, where: str) -> None:
    """Stop a run whose loss went NaN or infinite, before clipping and the step."""
    if not np.isfinite(loss.data):
        raise NonFiniteLossError(f"non-finite loss {float(loss.data)} at {where}")


# ---------------------------------------------------------------------------
# pretraining


def pretrain_examples(sequences: Sequence[InteractionSequence],
                      catalog: Catalog) -> list[tuple[tuple[str, ...], str]]:
    """One (prefix, final item) pair per sequence; too-short or unknown skipped."""
    examples = []
    for seq in sequences:
        if len(seq.items) < 2:
            continue
        if any(iid not in catalog for iid in seq.items):
            continue
        examples.append((seq.items[:-1], seq.items[-1]))
    return examples


def pretrain(sequences: Sequence[InteractionSequence], catalog: Catalog,
             vocab: Vocabulary, encoder: Encoder, head: MLMHead,
             train_cfg: TrainConfig, loss_cfg: LossConfig,
             limits: InputLimits = InputLimits(),
             valid_sequences: Sequence[InteractionSequence] | None = None,
             log_fn: Callable[[dict], None] | None = None) -> list[dict]:
    """Contrastive + masked-token pretraining over raw histories.

    Returns the per-epoch history of logged records. Identical seeds and data
    give identical curves: every random choice comes from named streams.
    """
    examples = pretrain_examples(sequences, catalog)
    if not examples:
        raise ValueError("no usable pretraining sequences (need length >= 2, known items)")
    params = encoder.parameters() + head.parameters()
    adam = Adam(params, lr=train_cfg.lr)
    data_rng = stream(train_cfg.seed, "data")
    mask_rng = stream(train_cfg.seed, "mask")
    drop_rng = stream(train_cfg.seed, "dropout")
    valid_examples = pretrain_examples(valid_sequences, catalog) if valid_sequences else []
    history: list[dict] = []
    for epoch in range(1, train_cfg.n_epochs + 1):
        order = data_rng.permutation(len(examples))
        iic_sum = mlm_sum = loss_sum = 0.0
        n_batches = 0
        for batch in _batches(order, train_cfg.pretrain_batch):
            with GradTape() as tape:
                loss, parts = _pretrain_batch_loss(
                    [examples[i] for i in batch], catalog, vocab, encoder, head,
                    loss_cfg, limits, mask_rng, drop_rng, train=True)
            _check_finite(loss, f"pretrain epoch {epoch} batch {n_batches + 1}")
            tape.backward(loss)
            clip_global_norm(params, train_cfg.grad_clip)
            adam.step()
            iic_sum += parts["iic"]
            mlm_sum += parts["mlm"]
            loss_sum += parts["loss"]
            n_batches += 1
        record = {
            "stage": "pretrain",
            "epoch": epoch,
            "loss": loss_sum / n_batches,
            "iic": iic_sum / n_batches,
            "mlm": mlm_sum / n_batches,
            "valid_metric": None,
            "snapshot_taken": False,
        }
        if valid_examples:
            record["valid_metric"] = _pretrain_valid_loss(
                valid_examples, catalog, vocab, encoder, head, loss_cfg, limits,
                stream(train_cfg.seed, "valid-mask"))
        history.append(record)
        if log_fn:
            log_fn(dict(record))
    return history


def _pretrain_batch_loss(batch, catalog, vocab, encoder, head, loss_cfg, limits,
                         mask_rng, drop_rng, train):
    """Loss for one batch of (prefix, positive) pairs, plus float components."""
    seq_vecs = []
    item_vecs = []
    hiddens = []
    plans = []
    use_mlm = loss_cfg.mlm_weight > 0.0
    for prefix, pos_id in batch:
        x = build_model_input(prefix, catalog, vocab, limits)
        plan = make_masking_plan(x, vocab.size, mask_rng)
        h = encoder.encode(apply_masking_plan(x, plan), train=train, dropout_rng=drop_rng)
        seq_vecs.append(T.take_row(h, 0))
        if use_mlm:
            hiddens.append(h)
            plans.append(plan)
        pos_h = encoder.encode(item_input(pos_id, catalog, vocab, limits),
                               train=train, dropout_rng=drop_rng)
        item_vecs.append(T.take_row(pos_h, 0))
    iic = iic_inbatch_loss(T.stack_rows(seq_vecs), T.stack_rows(item_vecs),
                           loss_cfg.temperature)
    mlm = pooled_mlm_loss(hiddens, plans, head) if use_mlm else None
    loss = pretrain_loss(iic, mlm, loss_cfg.mlm_weight)
    parts = {
        "iic": float(iic.data),
        "mlm": float(mlm.data) if mlm is not None else 0.0,
        "loss": float(loss.data),
    }
    return loss, parts


def _pretrain_valid_loss(examples, catalog, vocab, encoder, head, loss_cfg, limits,
                         mask_rng) -> float:
    """Mean combined loss over held-out sequences, dropout off, fixed masks."""
    total = 0.0
    n = 0
    for batch in _batches(np.arange(len(examples)), 64):
        loss, _ = _pretrain_batch_loss(
            [examples[i] for i in batch], catalog, vocab, encoder, head,
            loss_cfg, limits, mask_rng, None, train=False)
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
                       train_fn: Callable[[int, int, Encoder, ItemFeatureMatrix], None] | None = None,
                       log_fn: Callable[[dict], None] | None = None) -> FinetuneResult:
    """Alternating then frozen-matrix finetuning, keeping the best snapshot.

    Stage one: each epoch re-encodes the catalog with the current encoder,
    trains one epoch against that matrix, and scores validation; the matrix
    paired with a new best score is kept as the frozen candidate. Stage two
    rewinds the encoder to the best snapshot and trains against the frozen
    matrix only. Validation never improving past the incoming best means the
    stage contributes no new snapshot. Either stage stops early once
    `patience` epochs pass without a new best.
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
                      matrix: ItemFeatureMatrix) -> None:
        try:
            _finetune_epoch(enc, matrix, examples, adam, train_cfg, loss_cfg,
                            catalog, vocab, limits, data_rng, drop_rng)
        except NonFiniteLossError as e:
            raise NonFiniteLossError(f"{e} of finetune stage {stage} epoch {epoch}") from None

    evaluate_fn = evaluate_fn or default_evaluate
    train_fn = train_fn or default_train
    params = encoder.parameters()
    history: list[dict] = []

    best_metric = 0.0
    best_state = save_state(params)
    best_matrix = encode_all_items(encoder, catalog, vocab, limits)

    def run_stage(stage: int, matrix_for_epoch) -> None:
        nonlocal best_metric, best_state, best_matrix
        scores = [best_metric]
        for epoch in range(1, train_cfg.n_epochs + 1):
            matrix = matrix_for_epoch()
            train_fn(stage, epoch, encoder, matrix)
            metric = evaluate_fn(stage, epoch, encoder, matrix)
            took = metric > best_metric
            if took:
                best_metric = metric
                best_state = save_state(params)
                if stage == 1:
                    best_matrix = matrix.copy()
            record = {"stage": stage, "epoch": epoch,
                      "valid_metric": metric, "snapshot_taken": took}
            history.append(record)
            if log_fn:
                log_fn(dict(record))
            scores.append(metric)
            if early_stop(scores, train_cfg.patience):
                break

    adam = Adam(params, lr=train_cfg.lr)
    run_stage(1, lambda: encode_all_items(encoder, catalog, vocab, limits))

    load_state(params, best_state)
    adam = Adam(params, lr=train_cfg.lr)  # fresh moments for the frozen stage
    frozen = best_matrix
    run_stage(2, lambda: frozen)

    load_state(params, best_state)
    return FinetuneResult(best_state, frozen, best_metric, history)


def _finetune_epoch(encoder: Encoder, matrix: ItemFeatureMatrix, examples,
                    adam: Adam, train_cfg: TrainConfig, loss_cfg: LossConfig,
                    catalog: Catalog, vocab: Vocabulary, limits: InputLimits,
                    data_rng: np.random.Generator,
                    drop_rng: np.random.Generator) -> float:
    params = adam.params
    order = data_rng.permutation(len(examples))
    total = 0.0
    n_batches = 0
    for batch in _batches(order, train_cfg.finetune_batch):
        with GradTape() as tape:
            losses = []
            for i in batch:
                context, pos_id = examples[i]
                x = build_model_input(context, catalog, vocab, limits)
                h = encoder.encode(x, train=True, dropout_rng=drop_rng)
                losses.append(finetune_loss(T.take_row(h, 0), matrix.index_of(pos_id),
                                            matrix.rows, loss_cfg.temperature))
            loss = _mean_loss(losses)
        _check_finite(loss, f"batch {n_batches + 1}")
        tape.backward(loss)
        clip_global_norm(params, train_cfg.grad_clip)
        adam.step()
        total += float(loss.data)
        n_batches += 1
    return total / max(n_batches, 1)
