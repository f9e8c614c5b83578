"""Shared fixtures and the finite-difference gradient checker."""

from __future__ import annotations

import numpy as np
import pytest

from txrec import Catalog, InputLimits, Item, Vocabulary
from txrec import tensor as T
from txrec.encoder import Encoder


def scalarize(out: T.Tensor, weights: np.ndarray) -> T.Tensor:
    """Fixed-weight contraction to a 1x1 tensor so any op output can be a loss."""
    flat = T.reshape(out, (1, out.data.size))
    return T.matmul_nt(flat, T.Tensor(weights.reshape(1, -1)))


def kept_rows(h: T.Tensor, rows=None) -> T.Tensor:
    """Row 0 of each sequence of (b, len, d) hidden states, then each
    sequence's `rows` when given: what `Encoder.encode(..., aggregate=True,
    rows=rows)` returns, gathered from a full encode."""
    n_seq, length, d = h.data.shape
    rows = [[]] * n_seq if rows is None else rows
    at = [np.arange(n_seq) * length] + [b * length + np.asarray(r, dtype=np.int64)
                                        for b, r in enumerate(rows)]
    return T.gather_rows(T.reshape(h, (n_seq * length, d)), np.concatenate(at))


def spy_encode(monkeypatch, full_last_layer=False) -> list[tuple[bool, bool, bool]]:
    """Patch `Encoder.encode` to record each call's (aggregate, rows given,
    dropout rng given). With `full_last_layer`, an aggregate call on a
    `ModelBatch`, as `encode_rows` makes, runs the full last layer instead
    and gathers its aggregate and kept rows with `kept_rows`: a reference
    that sees the real sub-batches. With dropout on, its last layer draws
    masks for all B·len rows, so it draws other masks than the call it
    replaces, and moves the stream further."""
    calls = []
    encode = Encoder.encode

    def spy(self, x, dropout_rng=None, aggregate=False, rows=None):
        calls.append((aggregate, rows is not None, dropout_rng is not None))
        if not (full_last_layer and aggregate):
            return encode(self, x, dropout_rng, aggregate, rows)
        return kept_rows(encode(self, x, dropout_rng), rows)

    monkeypatch.setattr(Encoder, "encode", spy)
    return calls


def zero_grads(params) -> None:
    """Zero the gradients that earlier backward passes left on `params`."""
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0


def fd_gradcheck(build, params, rng: np.random.Generator, coords_per_tensor: int = 12,
                 h: float = 1e-4, tol: float = 1e-4) -> float:
    """Compare taped gradients with central differences in float64.

    `build` must construct the scalar loss from scratch on every call (it
    runs once under a tape for the analytic pass and twice per coordinate
    for the numeric one). Relative error uses a floored denominator so
    near-zero gradients are judged on absolute terms.
    """
    for p in params:
        assert p.data.dtype == np.float64, "gradcheck wants the widened pathway"
    with T.GradTape() as tape:
        loss = build()
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}
    zero_grads(params)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = min(flat.size, coords_per_tensor)
        coords = rng.choice(flat.size, size=n, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(build().data.reshape(-1)[0])
            flat[i] = orig - h
            f_minus = float(build().data.reshape(-1)[0])
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[p.name].reshape(-1)[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-2)
            worst = max(worst, rel)
    assert worst < tol, f"gradient mismatch: worst relative error {worst:.3e}"
    return worst


@pytest.fixture
def tiny_corpus():
    """Four-brand, eight-item toy catalog with short attribute text."""
    brands = ("acme", "zenith", "orbit", "lumen")
    items = []
    for k in range(8):
        items.append(Item(
            f"i{k}",
            (("Title", f"widget type{k} mk{k % 3}"),
             ("Brand", brands[k % 4]),
             ("Category", "toy gear")),
        ))
    catalog = Catalog(items)
    vocab = Vocabulary.build(items)
    limits = InputLimits(max_tokens=64, max_items=6, tokens_per_field=4)
    return catalog, vocab, limits


@pytest.fixture(autouse=True)
def _reset_pair_counter():
    T.attention_pairs.reset()
    yield
    T.attention_pairs.reset()
