"""Bidirectional transformer over item-sentence histories.

Four embedding tables (token, token position, key/value type, item position)
are summed and layer-normalized, then run through post-norm transformer
layers whose attention is windowed: each token sees neighbors within a fixed
half-window, and the aggregate slot at position 0 sees (and is seen by)
everything. The aggregate slot's final hidden state is the representation of
the whole input, whether that input is a user history or a single item.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, asdict
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .catalog import ModelBatch, ModelInput
from .errors import DataError
from .tensor import Parameter, Tensor


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 64
    n_layers: int = 2
    n_heads: int = 2
    window: int = 8           # half-window: a token attends offsets -w..+w
    ffn_dim: int = 256
    vocab_size: int = 4
    max_tokens: int = 1024    # sizes the token-position table (plus aggregate slot)
    max_items: int = 50       # sizes the item-position table
    dropout: float = 0.1

    def __post_init__(self):
        problems = []
        if self.d < 1 or self.d % self.n_heads != 0:
            problems.append(f"d={self.d} must be a positive multiple of n_heads={self.n_heads}")
        if self.n_layers < 0:
            problems.append(f"n_layers={self.n_layers} must be >= 0")
        if self.window < 1:
            problems.append(f"window={self.window} must be >= 1")
        if self.ffn_dim < 1:
            problems.append(f"ffn_dim={self.ffn_dim} must be >= 1")
        if self.vocab_size < 4:
            problems.append(f"vocab_size={self.vocab_size} must cover the reserved ids")
        if self.max_tokens < 1 or self.max_items < 1:
            problems.append(f"max_tokens={self.max_tokens} and max_items={self.max_items} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout={self.dropout} must be in [0, 1)")
        if problems:
            raise ValueError("; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=256)
def build_window_index(length: int, window: int,
                       global_idx: tuple[int, ...] = (0,)) -> tuple[np.ndarray, np.ndarray]:
    """Per-row candidate key slots for the sliding-chunk attention kernel.

    Returns (idx, valid), both (length, 3*w + len(global_idx)), where w is
    the window clamped to the sequence (a wider window changes no pair).
    Rows are cut into chunks of w; slot s of a row in chunk i holds key
    i*w - w + s, valid when it lies in the sequence and within w of the row.
    One extra slot per global key is valid only when that key is outside the
    row's window, so each allowed pair appears exactly once. Rows that are
    themselves global are handled densely by the kernel and keep only their
    window slots here. Invalid slots point at key 0.
    """
    w = max(min(window, length - 1), 1)
    pos = np.arange(length)
    idx = (pos // w * w - w)[:, None] + np.arange(3 * w)[None, :]
    valid = (idx >= 0) & (idx < length) & (np.abs(idx - pos[:, None]) <= w)
    idx = np.where(valid, idx, 0)
    cols = [idx]
    vals = [valid]
    for g in global_idx:
        if not 0 <= g < length:
            raise ValueError(f"global index {g} outside sequence of length {length}")
        outside = np.abs(pos - g) > w
        cols.append(np.full((length, 1), g, dtype=np.int64))
        vals.append(outside[:, None])
    idx_full = np.hstack(cols).astype(np.int64)
    valid_full = np.hstack(vals)
    idx_full.setflags(write=False)
    valid_full.setflags(write=False)
    return idx_full, valid_full


class _Layer:
    """Parameters of one transformer layer; projections carry no biases."""

    def __init__(self, prefix: str, cfg: EncoderConfig, rng: np.random.Generator, dtype):
        d, f = cfg.d, cfg.ffn_dim
        tn = T.truncated_normal
        self.wq = Parameter(f"{prefix}.attn.wq", tn(rng, (d, d), dtype=dtype))
        self.wk = Parameter(f"{prefix}.attn.wk", tn(rng, (d, d), dtype=dtype))
        self.wv = Parameter(f"{prefix}.attn.wv", tn(rng, (d, d), dtype=dtype))
        self.wo = Parameter(f"{prefix}.attn.wo", tn(rng, (d, d), dtype=dtype))
        self.ln1_g = Parameter(f"{prefix}.attn.ln.gamma", np.ones(d, dtype=dtype))
        self.ln1_b = Parameter(f"{prefix}.attn.ln.beta", np.zeros(d, dtype=dtype))
        self.w1 = Parameter(f"{prefix}.ffn.w1", tn(rng, (d, f), dtype=dtype))
        self.w2 = Parameter(f"{prefix}.ffn.w2", tn(rng, (f, d), dtype=dtype))
        self.ln2_g = Parameter(f"{prefix}.ffn.ln.gamma", np.ones(d, dtype=dtype))
        self.ln2_b = Parameter(f"{prefix}.ffn.ln.beta", np.zeros(d, dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.wq, self.wk, self.wv, self.wo, self.ln1_g, self.ln1_b,
                self.w1, self.w2, self.ln2_g, self.ln2_b]


class Encoder:
    """History encoder: summed embeddings, then windowed-attention layers."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 dtype=T.DEFAULT_DTYPE):
        self.config = config
        d = config.d
        tn = T.truncated_normal
        self.token_emb = Parameter("emb.token", tn(rng, (config.vocab_size, d), dtype=dtype))
        self.pos_emb = Parameter("emb.pos", tn(rng, (config.max_tokens + 1, d), dtype=dtype))
        self.type_emb = Parameter("emb.type", tn(rng, (3, d), dtype=dtype))
        self.item_emb = Parameter("emb.item", tn(rng, (config.max_items + 1, d), dtype=dtype))
        self.emb_ln_g = Parameter("emb.ln.gamma", np.ones(d, dtype=dtype))
        self.emb_ln_b = Parameter("emb.ln.beta", np.zeros(d, dtype=dtype))
        self.layers = [_Layer(f"layer{i}", config, rng, dtype) for i in range(config.n_layers)]

    def parameters(self) -> list[Parameter]:
        params = [self.token_emb, self.pos_emb, self.type_emb, self.item_emb,
                  self.emb_ln_g, self.emb_ln_b]
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        T.load_params(self.parameters(), state)

    def _check_input(self, x: ModelInput | ModelBatch) -> None:
        cfg = self.config
        length = x.token_ids.shape[-1]
        if length > cfg.max_tokens + 1:
            raise DataError(f"input of {length} tokens exceeds the configured {cfg.max_tokens + 1} slots")
        if x.token_ids.max(initial=0) >= cfg.vocab_size:
            raise DataError(f"token id {int(x.token_ids.max())} outside vocab of {cfg.vocab_size}")
        if x.item_positions.max(initial=0) > cfg.max_items:
            raise DataError(f"item position {int(x.item_positions.max())} exceeds {cfg.max_items}")

    def embed(self, x: ModelInput | ModelBatch) -> Tensor:
        """Sum of the four per-token embeddings, layer-normalized.

        (len, d) for one input, (B, len, d) for a padded batch.
        """
        self._check_input(x)
        e = T.add(
            T.add(T.embedding_lookup(self.token_emb, x.token_ids),
                  T.embedding_lookup(self.pos_emb, x.token_positions)),
            T.add(T.embedding_lookup(self.type_emb, x.token_types),
                  T.embedding_lookup(self.item_emb, x.item_positions)),
        )
        return T.layer_norm(e, self.emb_ln_g, self.emb_ln_b)

    def encode(self, x: ModelInput | ModelBatch, train: bool = False,
               dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Hidden states, (len, d) for one input or (B, len, d) for a padded batch.

        Row 0 of a sequence aggregates it. Padded keys are masked, so a
        sequence's real rows match its unpadded encoding up to float roundoff.
        """
        batch = x if isinstance(x, ModelBatch) else ModelBatch.pack([x])
        cfg = self.config
        n_seq, length = batch.token_ids.shape
        n_rows = n_seq * length
        h = T.reshape(self.embed(batch), (n_rows, cfg.d))
        idx, valid = build_window_index(length, cfg.window, batch.global_idx)
        g_arr = np.asarray(batch.global_idx, dtype=np.int64)
        rate = cfg.dropout if train else 0.0
        if rate > 0.0 and dropout_rng is None:
            raise ValueError("training with dropout needs a dropout rng")
        heads = (n_seq, length, cfg.n_heads, cfg.d // cfg.n_heads)
        for layer in self.layers:
            q = T.transpose(T.reshape(T.matmul(h, layer.wq), heads), (0, 2, 1, 3))
            k = T.transpose(T.reshape(T.matmul(h, layer.wk), heads), (0, 2, 1, 3))
            v = T.transpose(T.reshape(T.matmul(h, layer.wv), heads), (0, 2, 1, 3))
            ctx = T.windowed_attention(q, k, v, idx, valid, g_arr, batch.lengths)
            ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n_rows, cfg.d))
            a = T.matmul(ctx, layer.wo)
            if rate > 0.0:
                a = T.dropout(a, rate, dropout_rng)
            h = T.layer_norm(T.add(h, a), layer.ln1_g, layer.ln1_b)
            f = T.matmul(T.gelu(T.matmul(h, layer.w1)), layer.w2)
            if rate > 0.0:
                f = T.dropout(f, rate, dropout_rng)
            h = T.layer_norm(T.add(h, f), layer.ln2_g, layer.ln2_b)
        return T.reshape(h, (n_seq, length, cfg.d) if x is batch else (length, cfg.d))

    def sequence_repr(self, x: ModelInput) -> np.ndarray:
        """Inference-time representation of a history: the aggregate row."""
        return self.encode(x).data[0]


# Padded tokens per encoder call in `encode_batches`: bounds one call's
# activations while keeping each matmul wide enough to amortize per-op overhead.
ENCODE_BATCH_TOKENS = 1024


def encode_batches(encoder: Encoder, inputs: Sequence[ModelInput], train: bool = False,
                   dropout_rng: np.random.Generator | None = None
                   ) -> Iterator[tuple[np.ndarray, Tensor]]:
    """Yield (members, hidden) per length-sorted sub-batch of at most
    ENCODE_BATCH_TOKENS padded tokens (one input at least): the indices into
    `inputs` in row order, and their (b, len, d) hidden states. Lazily, so
    only one sub-batch's activations are alive outside a tape."""
    order = np.argsort([len(x) for x in inputs], kind="stable")
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and (end + 1 - start) * len(inputs[order[end]]) <= ENCODE_BATCH_TOKENS:
            end += 1
        members = order[start:end]
        yield members, encoder.encode(ModelBatch.pack([inputs[i] for i in members]),
                                      train, dropout_rng)
        start = end


def aggregate_rows(batches: Iterable[tuple[np.ndarray, Tensor]]) -> Tensor:
    """Row 0 of every sequence in `encode_batches`' output, (N, d) in input order."""
    blocks, members = [], []
    for idx, h in batches:
        n_seq, length, d = h.data.shape
        blocks.append(T.gather_rows(T.reshape(h, (n_seq * length, d)), np.arange(n_seq) * length))
        members.append(idx)
    return T.gather_rows(T.concat_rows(blocks), np.argsort(np.concatenate(members)))


def params_fingerprint(params: Iterable[Parameter]) -> str:
    """Stable digest of parameter names and bytes; identifies a model state."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode("utf-8"))
        h.update(str(p.data.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]
