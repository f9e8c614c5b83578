"""Similarity scoring, token corruption, and the three training losses.

Histories and items meet only through cosine similarity of their aggregate
representations. Pretraining combines an in-batch contrastive loss over
(history, next item) pairs with masked-token prediction; finetuning is a
full softmax over a frozen matrix of item representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .catalog import MASK_ID, NUM_RESERVED, ModelInput, _freeze
from .tensor import Parameter, Tensor

MASK_RATE = 0.15
# of the selected positions: replaced by [MASK] / by a random token / kept
ACTION_MASK, ACTION_RANDOM, ACTION_KEEP = 0, 1, 2
_ACTION_SPLIT = (0.8, 0.1)


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.05
    mlm_weight: float = 0.1

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mlm_weight < 0.0:
            raise ValueError(f"mlm_weight must be >= 0, got {self.mlm_weight}")


# ---------------------------------------------------------------------------
# similarity


def cosine_scores(h: np.ndarray, rows: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Cosine of `h` against every row, clipped to [-1, 1]; zero vectors score 0."""
    h_norm = h / max(float(np.linalg.norm(h)), eps)
    norms = np.maximum(np.linalg.norm(rows, axis=1), eps)
    return np.clip((rows @ h_norm) / norms, -1.0, 1.0)


# ---------------------------------------------------------------------------
# masked-token corruption


@dataclass(frozen=True)
class MaskingPlan:
    """Which positions were selected, what stood there, and what replaced it."""

    positions: np.ndarray     # int64, sorted
    originals: np.ndarray     # int64 token ids before corruption
    actions: np.ndarray       # int64 in {ACTION_MASK, ACTION_RANDOM, ACTION_KEEP}
    replacements: np.ndarray  # int64 token actually placed at each position

    def __len__(self) -> int:
        return len(self.positions)


def make_masking_plan(x: ModelInput, vocab_size: int, rng: np.random.Generator) -> MaskingPlan:
    """Select ~15% of non-reserved positions; 80/10/10 mask/random/keep.

    All draws happen here, so applying a plan is deterministic and a plan can
    be replayed. Random replacements come uniformly from non-reserved ids.
    """
    eligible = np.flatnonzero(x.token_ids >= NUM_RESERVED)
    picked = eligible[rng.random(eligible.size) < MASK_RATE]
    originals = x.token_ids[picked].astype(np.int64)
    u = rng.random(picked.size)
    actions = np.where(u < _ACTION_SPLIT[0], ACTION_MASK,
                       np.where(u < _ACTION_SPLIT[0] + _ACTION_SPLIT[1],
                                ACTION_RANDOM, ACTION_KEEP)).astype(np.int64)
    replacements = originals.copy()
    replacements[actions == ACTION_MASK] = MASK_ID
    n_random = int((actions == ACTION_RANDOM).sum())
    if n_random:
        if vocab_size <= NUM_RESERVED:
            raise ValueError("cannot draw random replacements from an empty vocabulary")
        replacements[actions == ACTION_RANDOM] = rng.integers(
            NUM_RESERVED, vocab_size, size=n_random, dtype=np.int64)
    return MaskingPlan(picked.astype(np.int64), originals, actions, replacements)


def apply_masking_plan(x: ModelInput, plan: MaskingPlan) -> ModelInput:
    """Copy of the input with the plan's replacements written in."""
    ids = x.token_ids.copy()
    ids[plan.positions] = plan.replacements
    return ModelInput(
        token_ids=_freeze(ids),
        token_positions=x.token_positions,
        token_types=x.token_types,
        item_positions=x.item_positions,
        global_mask=x.global_mask,
    )


# ---------------------------------------------------------------------------
# losses


class MLMHead:
    """Projects hidden states to vocabulary logits for masked-token recovery.

    Without an `rng`, matrices start as zeros, for `load_state_dict` to fill.
    """

    def __init__(self, d: int, vocab_size: int, rng: np.random.Generator | None,
                 dtype=T.DEFAULT_DTYPE):
        init = T.init_weight
        self.w_h = Parameter("mlm.w_h", init(rng, (d, d), dtype=dtype))
        self.b_h = Parameter("mlm.b_h", np.zeros(d, dtype=dtype))
        self.w_out = Parameter("mlm.w_out", init(rng, (d, vocab_size), dtype=dtype))
        self.b_out = Parameter("mlm.b_out", np.zeros(vocab_size, dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.w_h, self.b_h, self.w_out, self.b_out]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        T.load_params(self.parameters(), state)

    def logits(self, hidden_rows: Tensor) -> Tensor:
        """(rows, d) -> (rows, vocab): transform, GELU, plain LayerNorm, project."""
        m = T.layer_norm(T.gelu(T.add(T.matmul(hidden_rows, self.w_h), self.b_h)))
        return T.add(T.matmul(m, self.w_out), self.b_out)


def mlm_loss(hidden: Tensor, plan: MaskingPlan, head: MLMHead) -> Tensor:
    """Mean cross-entropy of the original tokens at the selected positions."""
    return pooled_mlm_loss([hidden], [plan], head)


def pooled_mlm_loss(hiddens: list[Tensor], plans: list[MaskingPlan], head: MLMHead) -> Tensor:
    """Batch MLM: one mean over every selected position of every example."""
    blocks = []
    targets = []
    for h, plan in zip(hiddens, plans):
        if len(plan):
            blocks.append(T.gather_rows(h, plan.positions))
            targets.append(plan.originals)
    if not blocks:
        return Tensor(np.zeros((), dtype=hiddens[0].data.dtype))
    rows = T.concat_rows(blocks)
    return T.cross_entropy_mean(head.logits(rows), np.concatenate(targets))


def iic_inbatch_loss(seq_reprs: Tensor, item_reprs: Tensor, temperature: float) -> Tensor:
    """In-batch contrastive loss: row i's positive is item i, rest are negatives.

    Cross-entropy of the diagonal under temperature-scaled cosine logits.
    A batch of one is a perfect single-class softmax, so the loss is exactly 0.
    """
    if seq_reprs.data.shape != item_reprs.data.shape or seq_reprs.data.ndim != 2:
        raise ValueError(f"batch shapes must match: {seq_reprs.data.shape} vs {item_reprs.data.shape}")
    n = seq_reprs.data.shape[0]
    sims = T.matmul_nt(T.l2_normalize_rows(seq_reprs), T.l2_normalize_rows(item_reprs))
    return T.cross_entropy_mean(T.scale(sims, 1.0 / temperature), np.arange(n))


def pretrain_loss(iic: Tensor, mlm: Tensor | None, mlm_weight: float) -> Tensor:
    """Contrastive plus weighted MLM; weight 0 means MLM was skipped."""
    if mlm_weight == 0.0 or mlm is None:
        return iic
    return T.add(iic, T.scale(mlm, mlm_weight))


def finetune_loss(h_s: Tensor, pos_index, item_rows: np.ndarray,
                  temperature: float) -> Tensor:
    """Full-catalog softmax over a frozen item matrix, meaned over histories.

    `h_s` is (B, d) history rows with an index array of B positives, or one
    (d,) row with an int. `item_rows` enters as a constant: gradient flows
    only through the history representations, never into the matrix.
    """
    if item_rows.ndim != 2 or item_rows.shape[0] == 0:
        raise ValueError(f"item matrix must be non-empty 2-d, got shape {item_rows.shape}")
    norms = np.maximum(np.linalg.norm(item_rows, axis=1, keepdims=True), 1e-12)
    frozen = Tensor(item_rows / norms)
    hs2 = T.l2_normalize_rows(T.reshape(h_s, (-1, h_s.data.shape[-1])))
    logits = T.scale(T.matmul_nt(hs2, frozen), 1.0 / temperature)
    return T.cross_entropy_mean(logits, np.atleast_1d(pos_index))
