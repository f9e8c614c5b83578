"""Independent numpy re-implementations used as test oracles.

Everything here materializes full matrices and uses straightforward formulas
(math.erf, explicit masks, stable log-sum-exp) with none of the package's op
layer, so agreement is a genuine dual-route check.
"""

from __future__ import annotations

import math

import numpy as np

_erf = np.vectorize(math.erf, otypes=[float])


def gelu_ref(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def layer_norm_ref(x: np.ndarray, gamma=None, beta=None, eps: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(var + eps)
    if gamma is not None:
        y = y * gamma
    if beta is not None:
        y = y + beta
    return y


def softmax_ref(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_ref(logits: np.ndarray, targets: np.ndarray) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=-1))
    picked = logits[np.arange(len(targets)), targets]
    return float((lse - picked).mean())


def dense_attention_ref(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        allowed: np.ndarray | None) -> np.ndarray:
    """Materialized (len, len) attention; `allowed` is a bool mask or None."""
    d_head = q.shape[-1]
    scores = np.einsum("hqd,hkd->hqk", q, k) / math.sqrt(d_head)
    if allowed is not None:
        scores = np.where(allowed[None, :, :], scores, -np.inf)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    p = e / e.sum(axis=-1, keepdims=True)
    return np.einsum("hqk,hkd->hqd", p, v)


def allowed_pairs_ref(length: int, window: int) -> np.ndarray:
    """(len, len) pairs within the window, plus row and column 0: the
    aggregate slot attends, and is attended by, every position."""
    pos = np.arange(length)
    ok = np.abs(pos[:, None] - pos[None, :]) <= window
    ok[0, :] = True
    ok[:, 0] = True
    return ok


def embed_ref(state: dict[str, np.ndarray], x) -> np.ndarray:
    """Layer-normalized sum of the four embeddings of one unpadded input; a
    token's position is its index."""
    e = (state["emb.token"][x.token_ids]
         + state["emb.pos"][np.arange(len(x.token_ids))]
         + state["emb.type"][x.token_types]
         + state["emb.item"][x.item_positions])
    return layer_norm_ref(e, state["emb.ln.gamma"], state["emb.ln.beta"])


def encode_ref(state: dict[str, np.ndarray], cfg, x, masked: bool = True) -> np.ndarray:
    """Full forward with dense attention. `cfg` is an EncoderConfig-alike.

    With masked=True the windowed pattern is applied through a materialized
    mask; masked=False is plain dense attention (valid when window >= len).
    """
    h = embed_ref(state, x)
    length = len(x.token_ids)
    n_heads = cfg.n_heads
    d_head = cfg.d // n_heads
    allowed = None
    if masked:
        allowed = allowed_pairs_ref(length, cfg.window)

    def split(m):
        return m.reshape(length, n_heads, d_head).transpose(1, 0, 2)

    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        q = split(h @ state[f"{pre}.attn.wq"])
        k = split(h @ state[f"{pre}.attn.wk"])
        v = split(h @ state[f"{pre}.attn.wv"])
        ctx = dense_attention_ref(q, k, v, allowed)
        ctx = ctx.transpose(1, 0, 2).reshape(length, cfg.d)
        a = ctx @ state[f"{pre}.attn.wo"]
        h = layer_norm_ref(h + a, state[f"{pre}.attn.ln.gamma"], state[f"{pre}.attn.ln.beta"])
        f = gelu_ref(h @ state[f"{pre}.ffn.w1"]) @ state[f"{pre}.ffn.w2"]
        h = layer_norm_ref(h + f, state[f"{pre}.ffn.ln.gamma"], state[f"{pre}.ffn.ln.beta"])
    return h


def pack_ref(inputs) -> dict[str, np.ndarray]:
    """Right-padded (B, len) arrays of model inputs, copied one row and one field at a time."""
    width = max(len(x.token_ids) for x in inputs)
    out = {}
    for f in ("token_ids", "token_types", "item_positions"):
        rows = np.zeros((len(inputs), width), dtype=np.int64)
        for b, x in enumerate(inputs):
            rows[b, : len(x.token_ids)] = getattr(x, f)
        out[f] = rows
    return out


def mlm_logits_ref(state: dict[str, np.ndarray], rows: np.ndarray) -> np.ndarray:
    m = layer_norm_ref(gelu_ref(rows @ state["mlm.w_h"] + state["mlm.b_h"]))
    return m @ state["mlm.w_out"] + state["mlm.b_out"]


def cosine_ref(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def rank_ref(scores: np.ndarray, target_index: int) -> int:
    """Stable full-sort rank with equal scores never hurting the target."""
    order = np.argsort(-scores, kind="stable")
    target_score = scores[target_index]
    rank = 1
    for idx in order:
        if scores[idx] > target_score:
            rank += 1
        else:
            break
    return rank


def adam_scalar_ref(p0: float, grads: list[float], lr: float,
                    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> float:
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1 ** t)) / (math.sqrt(v / (1 - beta2 ** t)) + eps)
    return p
