"""Shared fixtures and the finite-difference gradient checker."""

from __future__ import annotations

import numpy as np
import pytest

from txrec import Catalog, InputLimits, Item, Vocabulary
from txrec import tensor as T


def scalarize(out: T.Tensor, weights: np.ndarray) -> T.Tensor:
    """Fixed-weight contraction to a 1x1 tensor so any op output can be a loss."""
    flat = T.reshape(out, (1, out.data.size))
    return T.matmul_nt(flat, T.Tensor(weights.reshape(1, -1)))


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
