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
from typing import Iterable, Sequence

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
        if self.n_heads < 1:
            problems.append(f"n_heads={self.n_heads} must be >= 1")
        elif self.d < 1 or self.d % self.n_heads != 0:
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
def build_window_index(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row candidate key slots for the sliding-chunk attention kernel.

    Returns (idx, valid), both (length, 3*w + 1), where w is the window
    clamped to the sequence (a wider window changes no pair). Rows are cut
    into chunks of w; slot s of a row in chunk i holds key i*w - w + s, valid
    when it lies in the sequence and within w of the row. The last slot
    holds key 0, the aggregate slot and the one global row, valid only when
    it is outside the row's window, so each allowed pair appears exactly
    once. Row 0 is handled densely by the kernel and keeps only its window
    slots here. Invalid slots point at key 0. The encoder builds one index
    per config, at max_tokens + 1 rows, and passes each batch its first len
    rows (see `tensor.windowed_attention`).
    """
    w = max(min(window, length - 1), 1)
    pos = np.arange(length)
    idx = np.hstack([(pos // w * w - w)[:, None] + np.arange(3 * w), np.zeros((length, 1), np.int64)])
    valid = (idx >= 0) & (idx < length) & (np.abs(idx - pos[:, None]) <= w)
    valid[:, -1] = pos > w
    idx = np.where(valid, idx, 0)
    idx.setflags(write=False)
    valid.setflags(write=False)
    return idx, valid


class _Layer:
    """Parameters of one transformer layer; projections carry no biases."""

    def __init__(self, prefix: str, cfg: EncoderConfig, rng: np.random.Generator | None, dtype):
        d, f = cfg.d, cfg.ffn_dim
        init = T.init_weight
        self.wq = Parameter(f"{prefix}.attn.wq", init(rng, (d, d), dtype=dtype))
        self.wk = Parameter(f"{prefix}.attn.wk", init(rng, (d, d), dtype=dtype))
        self.wv = Parameter(f"{prefix}.attn.wv", init(rng, (d, d), dtype=dtype))
        self.wo = Parameter(f"{prefix}.attn.wo", init(rng, (d, d), dtype=dtype))
        self.ln1_g = Parameter(f"{prefix}.attn.ln.gamma", np.ones(d, dtype=dtype))
        self.ln1_b = Parameter(f"{prefix}.attn.ln.beta", np.zeros(d, dtype=dtype))
        self.w1 = Parameter(f"{prefix}.ffn.w1", init(rng, (d, f), dtype=dtype))
        self.w2 = Parameter(f"{prefix}.ffn.w2", init(rng, (f, d), dtype=dtype))
        self.ln2_g = Parameter(f"{prefix}.ffn.ln.gamma", np.ones(d, dtype=dtype))
        self.ln2_b = Parameter(f"{prefix}.ffn.ln.beta", np.zeros(d, dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.wq, self.wk, self.wv, self.wo, self.ln1_g, self.ln1_b,
                self.w1, self.w2, self.ln2_g, self.ln2_b]


class Encoder:
    """History encoder: summed embeddings, then windowed-attention layers.

    Without an `rng`, matrices start as zeros, for `load_state_dict` to fill.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator | None,
                 dtype=T.DEFAULT_DTYPE):
        self.config = config
        d = config.d
        init = T.init_weight
        self.token_emb = Parameter("emb.token", init(rng, (config.vocab_size, d), dtype=dtype))
        self.pos_emb = Parameter("emb.pos", init(rng, (config.max_tokens + 1, d), dtype=dtype))
        self.type_emb = Parameter("emb.type", init(rng, (3, d), dtype=dtype))
        self.item_emb = Parameter("emb.item", init(rng, (config.max_items + 1, d), dtype=dtype))
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

        (len, d) for one input, (B, len, d) for a padded batch. A token's
        position is its slot's index; a padded slot takes position 0.
        """
        self._check_input(x)
        positions = np.arange(x.token_ids.shape[-1])
        if isinstance(x, ModelBatch):
            positions = positions * (positions < x.lengths[:, None])
        e = T.add(
            T.add(T.embedding_lookup(self.token_emb, x.token_ids),
                  T.embedding_lookup(self.pos_emb, positions)),
            T.add(T.embedding_lookup(self.type_emb, x.token_types),
                  T.embedding_lookup(self.item_emb, x.item_positions)),
        )
        return T.layer_norm(e, self.emb_ln_g, self.emb_ln_b)

    def encode(self, x: ModelInput | ModelBatch, dropout_rng: np.random.Generator | None = None,
               aggregate: bool = False, rows: Sequence[np.ndarray] | None = None) -> Tensor:
        """Hidden states, (len, d) for one input or (B, len, d) for a padded batch.

        Row 0 of a sequence aggregates it. Padded keys are masked, so a
        sequence's real rows match its unpadded encoding up to float roundoff.
        Dropout runs exactly when a `dropout_rng` is given.

        With `aggregate`, only row 0 of each sequence is returned, (B, d), one
        input counting as B = 1: the last layer then projects queries and runs
        its output projection, norms and FFN at that row alone, which attends
        every real key. Its dropouts draw masks for the rows it keeps, and for
        no others.

        `rows` (with `aggregate`) names more rows to keep, one array of
        positions per input, none of them 0: the result is then the B
        aggregate rows followed by these M rows, (B + M, d), input by input.
        The last layer gathers, projects and attends all B + M kept rows at
        once, through `kept_rows_attention`.
        """
        batch = x if isinstance(x, ModelBatch) else ModelBatch.pack([x])
        cfg = self.config
        n_seq, length = batch.token_ids.shape
        seq = pos = np.zeros(0, dtype=np.int64)
        if rows is not None:
            if not aggregate or len(rows) != n_seq:
                raise ValueError(f"rows need aggregate=True and one array per input: "
                                 f"{len(rows)} arrays for {n_seq} inputs")
            seq = np.repeat(np.arange(n_seq), [len(r) for r in rows])
            pos = np.concatenate(rows).astype(np.int64)
            if ((pos < 1) | (pos >= batch.lengths[seq])).any():
                raise ValueError(f"rows must lie in 1 .. len - 1 of their input, got {pos.tolist()}")
        keep = np.concatenate([np.arange(n_seq) * length, seq * length + pos])
        h = T.reshape(self.embed(batch), (n_seq * length, cfg.d))
        # one index per config: the kernel masks its keys past each sequence's end
        idx, valid = (a[:length] for a in build_window_index(cfg.max_tokens + 1, cfg.window))
        rate = cfg.dropout if dropout_rng is not None else 0.0
        heads = (n_seq, -1, cfg.n_heads, cfg.d // cfg.n_heads)

        def split_heads(x: Tensor) -> Tensor:  # (B * len, d) -> (B, heads, len, d_head)
            return T.transpose(T.reshape(x, heads), (0, 2, 1, 3))

        for i, layer in enumerate(self.layers):
            last = aggregate and i == len(self.layers) - 1
            kept = T.gather_rows(h, keep) if last else h
            q = T.matmul(kept, layer.wq)
            k, v = split_heads(T.matmul(h, layer.wk)), split_heads(T.matmul(h, layer.wv))
            if last:
                ctx = T.kept_rows_attention(T.reshape(q, (keep.size,) + heads[2:]), k, v,
                                            seq, pos, cfg.window, batch.lengths)
            else:
                ctx = T.transpose(T.windowed_attention(split_heads(q), k, v, idx, valid,
                                                       batch.lengths), (0, 2, 1, 3))
            h = kept
            a = T.matmul(T.reshape(ctx, kept.shape), layer.wo)
            if rate > 0.0:
                a = T.dropout(a, rate, dropout_rng)
            h = T.layer_norm(T.add(h, a), layer.ln1_g, layer.ln1_b)
            f = T.matmul(T.gelu(T.matmul(h, layer.w1)), layer.w2)
            if rate > 0.0:
                f = T.dropout(f, rate, dropout_rng)
            h = T.layer_norm(T.add(h, f), layer.ln2_g, layer.ln2_b)
        if aggregate:
            return h if self.layers else T.gather_rows(h, keep)
        return T.reshape(h, (n_seq, length, cfg.d) if x is batch else (length, cfg.d))

    def sequence_repr(self, x: ModelInput) -> np.ndarray:
        """Inference-time representation of a history: its aggregate row, (d,)."""
        return self.encode(x, aggregate=True).data[0]


# Padded tokens per encoder call in `encode_rows`: bounds one call's
# activations while keeping each matmul wide enough to amortize per-op overhead.
ENCODE_BATCH_TOKENS = 1024


def encode_rows(encoder: Encoder, inputs: Sequence[ModelInput],
                dropout_rng: np.random.Generator | None = None,
                rows: Sequence[np.ndarray] | None = None) -> Tensor:
    """The aggregate rows of `inputs`, in input order, then each input's
    `rows`, input by input: (N + M, d), the layout of `Encoder.encode(...,
    aggregate=True, rows=rows)` for one batch. Inputs are encoded in
    length-sorted sub-batches of at most ENCODE_BATCH_TOKENS padded tokens
    (one input at least)."""
    order = np.argsort([len(x) for x in inputs], kind="stable")
    blocks, owners = [], []
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and (end + 1 - start) * len(inputs[order[end]]) <= ENCODE_BATCH_TOKENS:
            end += 1
        members = order[start:end]
        kept = None if rows is None else [rows[i] for i in members]
        blocks.append(encoder.encode(ModelBatch.pack([inputs[i] for i in members]),
                                     dropout_rng, aggregate=True, rows=kept))
        owners.append(members)
        if kept is not None:  # kept rows sort after every aggregate row, by input
            owners.append(len(inputs) + np.repeat(members, [len(r) for r in kept]))
        start = end
    return T.gather_rows(T.concat_rows(blocks), np.argsort(np.concatenate(owners), kind="stable"))


def params_fingerprint(params: Iterable[Parameter]) -> str:
    """Stable digest of parameter names and bytes; identifies a model state."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode("utf-8"))
        h.update(str(p.data.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]
