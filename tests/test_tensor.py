"""Numeric core: forward oracles, backward finite differences, optimizer."""

from __future__ import annotations

import ast
import ctypes
import inspect
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from conftest import fd_gradcheck, scalarize, zero_grads
from txrec import tensor as T
from txrec.encoder import build_window_index
from txrec.rng import stream

F64 = np.float64


def _param(name, shape, rng, scale=0.7):
    return T.Parameter(name, rng.normal(0.0, scale, size=shape), dtype=F64)


# ---------------------------------------------------------------------------
# construction and dtype policy


def test_tensor_defaults_to_float32():
    t = T.Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float32
    assert t.shape == (2, 2)
    assert not t.needs_grad and t.grad is None


def test_tensor_keeps_float64():
    t = T.Tensor(np.zeros(3, dtype=np.float64))
    assert t.data.dtype == np.float64


def test_parameter_has_persistent_zero_grad():
    p = T.Parameter("w", np.ones((2, 3)))
    assert p.needs_grad
    npt.assert_array_equal(p.grad, np.zeros((2, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(T.Tensor(a, dtype=F64), T.Tensor(b, dtype=F64)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    npt.assert_allclose(out, expected, rtol=1e-12)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    mats = [T.Tensor(rng.normal(size=(5, 5)).astype(np.float32)) for _ in range(3)]
    left = T.matmul(T.matmul(mats[0], mats[1]), mats[2]).data
    right = T.matmul(mats[0], T.matmul(mats[1], mats[2])).data
    npt.assert_allclose(left, right, atol=1e-4)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(2)
    a = _param("a", (3, 4), rng)
    b = _param("b", (4, 2), rng)
    w = rng.normal(size=6)

    fd_gradcheck(lambda: scalarize(T.matmul(a, b), w), [a, b], rng)


def test_matmul_nt_gradcheck():
    rng = np.random.default_rng(3)
    a = _param("a", (3, 5), rng)
    b = _param("b", (4, 5), rng)
    w = rng.normal(size=12)
    npt.assert_allclose(T.matmul_nt(a, b).data, a.data @ b.data.T, rtol=1e-12)
    fd_gradcheck(lambda: scalarize(T.matmul_nt(a, b), w), [a, b], rng)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_matches_reference():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 8))
    g = rng.normal(size=8)
    b = rng.normal(size=8)
    out = T.layer_norm(T.Tensor(x, dtype=F64), T.Tensor(g, dtype=F64), T.Tensor(b, dtype=F64)).data
    npt.assert_allclose(out, ref.layer_norm_ref(x, g, b), rtol=1e-10)


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 16)) * 3 + 5
    y = T.layer_norm(T.Tensor(x, dtype=F64)).data
    npt.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    npt.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_gradcheck_affine_and_plain():
    rng = np.random.default_rng(8)
    x = _param("x", (3, 7), rng)
    g = _param("g", (7,), rng)
    b = _param("b", (7,), rng)
    w = rng.normal(size=21)
    fd_gradcheck(lambda: scalarize(T.layer_norm(x, g, b), w), [x, g, b], rng)
    fd_gradcheck(lambda: scalarize(T.layer_norm(x), w), [x], rng)


@pytest.mark.parametrize("n", [1, 3, 7, 33, 257])
def test_layer_norm_float32_rows_do_not_depend_on_their_block(n):
    """Each row of an (n, 64) block gets the bits, forward and backward, that
    it gets normalized alone, and from a block starting off the alignment."""
    rng = np.random.default_rng(40 + n)
    x = rng.normal(0.0, 2.0, size=(n, 64)).astype(np.float32)
    g = rng.normal(size=(n, 64)).astype(np.float32)
    gamma = T.Tensor(rng.normal(size=64).astype(np.float32))
    beta = T.Tensor(rng.normal(size=64).astype(np.float32))

    def run(block, w):
        xt = T.Tensor(block, needs_grad=True)
        with T.GradTape() as tape:
            out = T.layer_norm(xt, gamma, beta)
            loss = scalarize(out, w.reshape(-1))
        tape.backward(loss)
        return out.data, xt.grad

    out, grad = run(x, g)
    for i in range(n):
        out_i, grad_i = run(x[i : i + 1], g[i : i + 1])
        assert out_i.tobytes() == out[i].tobytes() and grad_i.tobytes() == grad[i].tobytes(), i
    for offset in (1, 3):
        moved = np.empty(x.size + offset, dtype=np.float32)[offset:].reshape(x.shape)
        moved[...] = x
        out_m, grad_m = run(moved, g)
        assert out_m.tobytes() == out.tobytes() and grad_m.tobytes() == grad.tobytes(), offset


# ---------------------------------------------------------------------------
# gelu


def test_gelu_frozen_values():
    # x * 0.5 * (1 + erf(x / sqrt 2)) at x=1, via math.erf, is 0.8413447460685429
    out = T.gelu(T.Tensor(np.array([0.0, 1.0, 2.0, -1.0]), dtype=F64)).data
    expected = [0.0, 0.8413447460685429, 1.9544997361036416, -0.15865525393145707]
    npt.assert_allclose(out, expected, atol=1e-12)


def test_gelu_matches_reference_on_random_grid():
    x = np.linspace(-6, 6, 101)
    npt.assert_allclose(T.gelu(T.Tensor(x, dtype=F64)).data, ref.gelu_ref(x), atol=1e-12)


def test_gelu_gradcheck():
    rng = np.random.default_rng(9)
    x = _param("x", (5, 5), rng)
    w = rng.normal(size=25)
    fd_gradcheck(lambda: scalarize(T.gelu(x), w), [x], rng)


def test_gelu_float32_kernel_matches_reference():
    # dense grid over [-12, 12] plus the clamp points of erf(x / sqrt 2) at +-4
    edge = 4.0 * math.sqrt(2.0)
    x = np.concatenate([np.linspace(-12.0, 12.0, 240_001), [edge, -edge],
                        np.nextafter(np.float32([edge, -edge]), 0.0)]).astype(np.float32)
    out = T.gelu(T.Tensor(x)).data
    assert out.dtype == np.float32
    assert np.abs(out - ref.gelu_ref(x)).max() <= 2e-6


def test_gelu_float32_is_elementwise_across_blocks():
    # a tensor spanning several kernel blocks, and a ragged tail
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 3.0, size=(3, T.GELU_BLOCK + 17)).astype(np.float32)
    whole = T.gelu(T.Tensor(x)).data
    rows = np.stack([T.gelu(T.Tensor(r)).data for r in x])
    npt.assert_array_equal(whole, rows)
    npt.assert_array_equal(T.gelu(T.Tensor(x[:, ::2])).data, whole[:, ::2])


def test_gelu_float32_gradient_matches_float64():
    rng = np.random.default_rng(5)
    x64 = rng.normal(0.0, 2.0, size=(7, 9))
    g = rng.normal(size=(7, 9))
    grads = {}
    for dt in (np.float32, F64):
        x = T.Parameter("x", x64, dtype=dt)
        with T.GradTape() as tape:
            loss = scalarize(T.gelu(x), g.astype(dt))
        tape.backward(loss)
        grads[dt] = x.grad
    assert grads[np.float32].dtype == np.float32
    npt.assert_allclose(grads[np.float32], grads[F64], atol=2e-6)


def test_import_leaves_scipy_out():
    code = "import sys, txrec; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(T.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# gathers


def test_embedding_lookup_gathers_rows():
    table = T.Parameter("emb", np.arange(12).reshape(4, 3))
    out = T.embedding_lookup(table, [2, 0, 2])
    npt.assert_array_equal(out.data, table.data[[2, 0, 2]])


def test_embedding_lookup_bounds_error_names_id():
    table = T.Parameter("emb", np.zeros((4, 3)))
    with pytest.raises(IndexError, match="7"):
        T.embedding_lookup(table, [0, 7])
    with pytest.raises(IndexError, match="-1"):
        T.embedding_lookup(table, [-1])


def test_embedding_lookup_accumulates_repeated_ids():
    table = T.Parameter("emb", np.zeros((4, 2), dtype=F64), dtype=F64)
    with T.GradTape() as tape:
        out = T.embedding_lookup(table, [1, 1, 1, 3])
        loss = scalarize(out, np.ones(8))
    tape.backward(loss)
    npt.assert_allclose(table.grad[1], [3.0, 3.0])
    npt.assert_allclose(table.grad[3], [1.0, 1.0])
    npt.assert_allclose(table.grad[0], [0.0, 0.0])


def test_gather_take_stack_concat_gradchecks():
    rng = np.random.default_rng(10)
    x = _param("x", (6, 4), rng)
    w1 = rng.normal(size=12)
    w2 = rng.normal(size=4)
    w3 = rng.normal(size=8)
    fd_gradcheck(lambda: scalarize(T.gather_rows(x, np.array([0, 2, 2])), w1), [x], rng)
    fd_gradcheck(lambda: scalarize(T.take_row(x, 3), w2), [x], rng)
    fd_gradcheck(lambda: scalarize(
        T.stack_rows([T.take_row(x, 1), T.take_row(x, 1)]), w3), [x], rng)
    fd_gradcheck(lambda: scalarize(
        T.concat_rows([T.gather_rows(x, np.array([0])), T.gather_rows(x, np.array([5]))]),
        w3), [x], rng)


def _gather_grad(x, start, ids, w):
    """x.grad after one gather of `ids` from x, weighted by w, onto `start`."""
    x.grad[...] = start
    with T.GradTape() as tape:
        loss = scalarize(T.gather_rows(x, ids), w)
    tape.backward(loss)
    return x.grad.copy()


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_gather_rows_backward_matches_add_at(dtype):
    """Unique ids, in any order, add exactly what `np.add.at` adds. Repeated
    ids, 1-d or (B, len) as in a ModelBatch, and negative ids wrapping onto
    a row, sum in their own fixed order: within rounding of a float64
    `np.add.at`, and the same bits on every run. Empty ids add nothing."""
    rtol = 1e-6 if dtype == np.float32 else 1e-12
    rng = np.random.default_rng(12)
    x = T.Parameter("x", rng.normal(size=(7, 5)), dtype=dtype)
    start = rng.normal(size=(7, 5)).astype(dtype)
    for ids in ([0, 2, 3, 6], [6, 0, 3, 2], [4]):
        ids = np.array(ids)
        w = rng.normal(size=len(ids) * 5).astype(dtype)
        want = start.copy()
        np.add.at(want, ids, w.reshape(len(ids), 5))
        assert _gather_grad(x, start, ids, w).tobytes() == want.tobytes(), ids
    for ids in ([1, 1, 2], [3, 0, 3, 3, 1, 0], [[5, 1, 5], [1, 1, 0]], [-7, 0]):
        ids = np.array(ids)
        w = rng.normal(size=ids.size * 5).astype(dtype)
        want = start.astype(F64)
        np.add.at(want, ids, w.astype(F64).reshape(ids.shape + (5,)))
        got = _gather_grad(x, start, ids, w)
        npt.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max(), err_msg=str(ids))
        assert _gather_grad(x, start, ids, w).tobytes() == got.tobytes(), ids
    empty = np.zeros(0, dtype=np.int64)
    assert _gather_grad(x, start, empty, np.zeros(0, dtype=dtype)).tobytes() == start.tobytes()


def test_package_has_no_ufunc_at_scatter():
    """Scatter-adds go through sorted segment sums (`gather_rows`), not the
    slow unbuffered `ufunc.at`."""
    package = Path(T.__file__).parent
    hits = [f"{path.name}:{i}" for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if ".at(" in line]
    assert not hits


# ---------------------------------------------------------------------------
# normalize / dropout


def test_l2_normalize_rows():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 6)) * 4
    y = T.l2_normalize_rows(T.Tensor(x, dtype=F64)).data
    npt.assert_allclose(np.linalg.norm(y, axis=1), 1.0, rtol=1e-12)
    zero = T.l2_normalize_rows(T.Tensor(np.zeros((1, 3)), dtype=F64)).data
    npt.assert_array_equal(zero, np.zeros((1, 3)))


def test_l2_normalize_gradcheck():
    rng = np.random.default_rng(12)
    x = _param("x", (4, 5), rng)
    w = rng.normal(size=20)
    fd_gradcheck(lambda: scalarize(T.l2_normalize_rows(x), w), [x], rng)


def test_dropout_off_is_identity_and_on_preserves_mean():
    x = T.Tensor(np.ones((50, 40)))
    assert T.dropout(x, 0.0, stream(0, "dropout")) is x
    y = T.dropout(x, 0.25, stream(0, "dropout")).data
    kept = y != 0.0
    npt.assert_allclose(y[kept], 1.0 / 0.75, rtol=1e-6)
    assert abs(y.mean() - 1.0) < 0.02


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(13)
    x = _param("x", (6, 6), rng)
    with T.GradTape() as tape:
        out = T.dropout(x, 0.5, stream(3, "dropout"))
        loss = scalarize(out, np.ones(36))
    tape.backward(loss)
    dropped = out.data == 0.0
    assert (x.grad[dropped] == 0.0).all()
    assert (x.grad[~dropped] != 0.0).any()


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits_is_log_c():
    loss = T.cross_entropy_mean(T.Tensor(np.zeros((7, 13)), dtype=F64), np.arange(7) % 13)
    assert abs(float(loss.data) - math.log(13)) < 1e-12


def test_cross_entropy_matches_reference():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=(9, 6)) * 3
    targets = rng.integers(0, 6, size=9)
    loss = T.cross_entropy_mean(T.Tensor(logits, dtype=F64), targets)
    assert abs(float(loss.data) - ref.cross_entropy_ref(logits, targets)) < 1e-10


def test_cross_entropy_single_class_is_zero():
    loss = T.cross_entropy_mean(T.Tensor(np.array([[3.7]]), dtype=F64), [0])
    assert float(loss.data) == 0.0


def test_cross_entropy_target_bounds():
    with pytest.raises(IndexError, match="6"):
        T.cross_entropy_mean(T.Tensor(np.zeros((2, 6))), [0, 6])


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(15)
    x = _param("x", (5, 8), rng)
    targets = rng.integers(0, 8, size=5)
    fd_gradcheck(lambda: T.cross_entropy_mean(x, targets), [x], rng)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar():
    x = T.Parameter("x", np.ones((2, 2)))
    with T.GradTape() as tape:
        y = T.add(x, x)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_reused_tensor_accumulates_not_doubles():
    # diamond: c = a + a, d = c + c; dd/da must be exactly 4, not 8
    a = T.Parameter("a", np.ones(3, dtype=F64), dtype=F64)
    with T.GradTape() as tape:
        c = T.add(a, a)
        d = T.add(c, c)
        loss = scalarize(T.reshape(d, (1, 3)), np.ones(3))
    tape.backward(loss)
    npt.assert_allclose(a.grad, 4.0)


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(16)
    x_data = rng.normal(size=(4, 4))
    g_data = rng.normal(size=4)
    x = T.Parameter("x", x_data, dtype=F64)
    g = T.Parameter("g", g_data, dtype=F64)
    with T.GradTape() as tape:
        out = T.layer_norm(T.gelu(T.matmul(x, x)), g)
        forward_value = out.data.copy()
        loss = scalarize(out, np.ones(16))
    tape.backward(loss)
    npt.assert_array_equal(x.data, x_data)
    npt.assert_array_equal(g.data, g_data)
    npt.assert_array_equal(out.data, forward_value)


def test_no_tape_records_nothing():
    x = T.Parameter("x", np.ones((2, 2)))
    out = T.matmul(x, x)
    assert out.grad is None
    assert T.active_tape() is None


_IDX, _VALID = build_window_index(5, 2)

# every public op, called on inputs that `make(shape)` builds
_OPS = {
    "add": lambda make: T.add(make((3, 4)), make((3, 4))),
    "scale": lambda make: T.scale(make((3, 4)), 0.5),
    "reshape": lambda make: T.reshape(make((3, 4)), (4, 3)),
    "transpose": lambda make: T.transpose(make((3, 4)), (1, 0)),
    "gather_rows": lambda make: T.gather_rows(make((3, 4)), np.array([2, 0, 2])),
    "embedding_lookup": lambda make: T.embedding_lookup(make((3, 4)), [1, 1]),
    "take_row": lambda make: T.take_row(make((3, 4)), 1),
    "stack_rows": lambda make: T.stack_rows([make((4,)), make((4,))]),
    "concat_rows": lambda make: T.concat_rows([make((2, 4)), make((3, 4))]),
    "matmul": lambda make: T.matmul(make((3, 4)), make((4, 2))),
    "matmul_nt": lambda make: T.matmul_nt(make((3, 4)), make((2, 4))),
    "gelu": lambda make: T.gelu(make((3, 4))),
    "layer_norm": lambda make: T.layer_norm(make((3, 4)), make((4,)), make((4,))),
    "l2_normalize_rows": lambda make: T.l2_normalize_rows(make((3, 4))),
    "dropout": lambda make: T.dropout(make((3, 4)), 0.5, stream(0, "dropout")),
    "cross_entropy_mean": lambda make: T.cross_entropy_mean(make((3, 4)), [0, 3, 1]),
    "windowed_attention": lambda make: T.windowed_attention(
        make((1, 2, 5, 3)), make((1, 2, 5, 3)), make((1, 2, 5, 3)), _IDX, _VALID),
    "global_attention": lambda make: T.global_attention(
        make((2, 2, 1, 3)), make((2, 2, 5, 3)), make((2, 2, 5, 3)), np.array([5, 3])),
    "windowed_rows_attention": lambda make: T.windowed_rows_attention(
        make((3, 2, 3)), make((2, 2, 5, 3)), make((2, 2, 5, 3)), np.array([0, 0, 1]),
        np.array([1, 4, 2]), 2, np.array([5, 3])),
}


def _maker(cls):
    rng = np.random.default_rng(30)
    if cls is T.Parameter:
        return lambda shape: T.Parameter("p", rng.normal(size=shape))
    return lambda shape: T.Tensor(rng.normal(size=shape))


def test_op_table_covers_every_public_op():
    functions = {name for name, value in vars(T).items()
                 if inspect.isfunction(value) and value.__module__ == T.__name__
                 and not name.startswith("_")}
    non_ops = {"active_tape", "clip_global_norm", "load_params", "truncated_normal",
               "init_weight"}
    assert functions - non_ops == set(_OPS)


@pytest.mark.parametrize("name", sorted(_OPS))
def test_op_without_a_tape_marks_nothing(name):
    out = _OPS[name](_maker(T.Parameter))
    assert not out.needs_grad and out.grad is None


@pytest.mark.parametrize("name", sorted(_OPS))
def test_op_records_once_and_marks_its_output_under_a_tape(name):
    with T.GradTape() as tape:
        out = _OPS[name](_maker(T.Parameter))
    assert len(tape) == 1
    assert tape._records[0][0] is out and out.needs_grad


@pytest.mark.parametrize("name", sorted(_OPS))
def test_op_on_inputs_without_gradient_records_nothing(name):
    with T.GradTape() as tape:
        out = _OPS[name](_maker(T.Tensor))
    assert len(tape) == 0 and not out.needs_grad


def test_only_the_result_helper_touches_the_tape():
    path = Path(T.__file__)
    source = path.read_text()
    helper = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == "_result")
    for needle in ("tape.record(", "needs_grad = True"):
        lines = [i for i, line in enumerate(source.splitlines(), start=1) if needle in line]
        assert len(lines) == 1 and helper.lineno <= lines[0] <= helper.end_lineno, \
            f"{needle!r} at lines {lines} of {path.name}, outside _result"


# ---------------------------------------------------------------------------
# windowed attention


def _attention_setup(rng, n_heads, length, d_head, window):
    """One sequence of queries, keys and values, (1, heads, len, d_head)."""
    q = _param("q", (1, n_heads, length, d_head), rng)
    k = _param("k", (1, n_heads, length, d_head), rng)
    v = _param("v", (1, n_heads, length, d_head), rng)
    idx, valid = build_window_index(length, window)
    return q, k, v, idx, valid


# (length, window) by id number. ids keep the names the cases had when each
# also chose its global rows, so test reports stay comparable across versions;
# cases 6 and 8 differed from 5 and 7 only in those rows.
_ATTENTION_CASES = {
    0: (3, 4),      # window covers everything
    1: (5, 2),      # len == 2w+1
    2: (17, 3),     # long, narrow window
    3: (12, 2),
    4: (11, 2),
    5: (1, 3),      # a single row: one chunk, nothing but the aggregate
    7: (10, 4),     # length not a multiple of the chunk size w
    9: (11, 3),
    10: (6, 8),     # window wider than the sequence
    11: (5, 5),
}


@pytest.mark.parametrize("length,window", list(_ATTENTION_CASES.values()),
                         ids=[f"{n}-{w}-global_idx{i}" for i, (n, w) in _ATTENTION_CASES.items()])
def test_windowed_attention_matches_masked_dense(length, window):
    rng = np.random.default_rng(17 + length)
    q, k, v, idx, valid = _attention_setup(rng, 2, length, 4, window)
    out = T.windowed_attention(q, k, v, idx, valid).data
    allowed = ref.allowed_pairs_ref(length, window)
    expected = ref.dense_attention_ref(q.data[0], k.data[0], v.data[0], allowed)
    npt.assert_allclose(out[0], expected, atol=1e-12)


def test_windowed_attention_gradcheck():
    rng = np.random.default_rng(18)
    q, k, v, idx, valid = _attention_setup(rng, 2, 7, 3, 2)
    w = rng.normal(size=2 * 7 * 3)
    fd_gradcheck(lambda: scalarize(T.windowed_attention(q, k, v, idx, valid), w),
                 [q, k, v], rng, coords_per_tensor=14)


def test_windowed_attention_pair_count_is_exact():
    rng = np.random.default_rng(19)
    for length, window in [(9, 2), (30, 4), (16, 3)]:
        T.attention_pairs.reset()
        q, k, v, idx, valid = _attention_setup(rng, 3, length, 4, window)
        T.windowed_attention(q, k, v, idx, valid)
        expected = 3 * int(ref.allowed_pairs_ref(length, window).sum())
        assert T.attention_pairs.pairs == expected


def test_windowed_attention_rejects_bad_shapes():
    rng = np.random.default_rng(20)
    q, k, v, idx, valid = _attention_setup(rng, 2, 7, 3, 2)
    T.windowed_attention(q, k, v, idx, valid)
    with pytest.raises(ValueError, match="4-D"):  # one sequence needs its batch axis
        T.windowed_attention(T.Tensor(q.data[0]), T.Tensor(k.data[0]), T.Tensor(v.data[0]),
                             idx, valid)
    with pytest.raises(ValueError, match="window index"):
        T.windowed_attention(q, k, v, *build_window_index(8, 2))


def _padded_setup(rng, lengths, n_heads, d_head, window):
    shape = (len(lengths), n_heads, max(lengths), d_head)
    q, k, v = (_param(name, shape, rng) for name in "qkv")
    idx, valid = build_window_index(max(lengths), window)
    return q, k, v, idx, valid, np.asarray(lengths)


def test_padded_batch_matches_dense_per_sequence():
    rng = np.random.default_rng(41)
    lengths = [13, 6, 9, 13, 7]
    q, k, v, idx, valid, lens = _padded_setup(rng, lengths, 2, 3, 3)
    out = T.windowed_attention(q, k, v, idx, valid, lens).data
    for b, n in enumerate(lengths):
        allowed = ref.allowed_pairs_ref(n, 3)
        expected = ref.dense_attention_ref(q.data[b, :, :n], k.data[b, :, :n],
                                           v.data[b, :, :n], allowed)
        npt.assert_allclose(out[b, :, :n], expected, atol=1e-12)
        assert not out[b, :, n:].any()  # padded rows come out as zeros


def test_padded_batch_gradcheck():
    rng = np.random.default_rng(42)
    q, k, v, idx, valid, lens = _padded_setup(rng, [9, 4, 7], 2, 3, 2)
    w = rng.normal(size=q.data.size)
    fd_gradcheck(lambda: scalarize(T.windowed_attention(q, k, v, idx, valid, lens), w),
                 [q, k, v], rng, coords_per_tensor=30)
    # nothing flows into the padding
    zero_grads([q, k, v])
    with T.GradTape() as tape:
        loss = scalarize(T.windowed_attention(q, k, v, idx, valid, lens), w)
    tape.backward(loss)
    for p in (q, k, v):
        assert not p.grad[1, :, 4:].any() and not p.grad[2, :, 7:].any()


def test_padded_batch_pair_count_excludes_padding():
    rng = np.random.default_rng(43)
    lengths = [30, 11, 1, 17]
    q, k, v, idx, valid, lens = _padded_setup(rng, lengths, 3, 2, 4)
    T.windowed_attention(q, k, v, idx, valid, lens)
    expected = 3 * sum(int(ref.allowed_pairs_ref(n, 4).sum()) for n in lengths)
    assert T.attention_pairs.pairs == expected


def test_padded_batch_rejects_lengths_that_do_not_fit():
    rng = np.random.default_rng(44)
    q, k, v, idx, valid, _ = _padded_setup(rng, [8, 8], 1, 2, 2)
    for bad in ([8, 0], [9, 8], [8]):
        with pytest.raises(ValueError, match="lengths"):
            T.windowed_attention(q, k, v, idx, valid, np.asarray(bad))


# ---------------------------------------------------------------------------
# global attention


def test_global_attention_matches_dense_rows_per_sequence():
    rng = np.random.default_rng(45)
    lengths = [9, 4, 1, 9]
    q = _param("q", (4, 2, 2, 3), rng)
    k, v = (_param(name, (4, 2, 9, 3), rng) for name in "kv")
    out = T.global_attention(q, k, v, np.asarray(lengths)).data
    assert out.shape == (4, 2, 2, 3)
    for b, n in enumerate(lengths):
        expected = ref.dense_attention_ref(q.data[b], k.data[b, :, :n], v.data[b, :, :n], None)
        npt.assert_allclose(out[b], expected, atol=1e-12)
    assert T.attention_pairs.pairs == 2 * 2 * sum(lengths)
    full = T.global_attention(q, k, v).data  # no lengths: every key is real
    npt.assert_allclose(full[0], out[0], atol=1e-12)


def test_global_attention_gradcheck_with_padding():
    rng = np.random.default_rng(46)
    q = _param("q", (3, 2, 1, 3), rng)
    k, v = (_param(name, (3, 2, 7, 3), rng) for name in "kv")
    lens = np.array([7, 3, 5])
    w = rng.normal(size=q.data.size)
    fd_gradcheck(lambda: scalarize(T.global_attention(q, k, v, lens), w),
                 [q, k, v], rng, coords_per_tensor=30)
    zero_grads([q, k, v])
    with T.GradTape() as tape:
        loss = scalarize(T.global_attention(q, k, v, lens), w)
    tape.backward(loss)
    for p in (k, v):  # nothing flows into the padded keys
        assert not p.grad[1, :, 3:].any() and not p.grad[2, :, 5:].any()


def test_global_attention_rejects_bad_shapes_and_lengths():
    rng = np.random.default_rng(47)
    q = _param("q", (2, 1, 1, 3), rng)
    k, v = (_param(name, (2, 1, 4, 3), rng) for name in "kv")
    for bad in ([4, 5], [0, 4], [4]):
        with pytest.raises(ValueError, match="lengths"):
            T.global_attention(q, k, v, np.asarray(bad))
    with pytest.raises(ValueError, match="shapes"):
        T.global_attention(_param("q3", (1, 1, 3), rng), k, v)
    with pytest.raises(ValueError, match="shapes"):
        T.global_attention(q, k, _param("v2", (2, 1, 5, 3), rng))


def _global_row_by_formula(qd, kd, vd, lengths, g):
    """Row 0 of `windowed_attention` and its gradients, spelled out as dense
    attention over each sequence's real keys."""
    alpha = 1.0 / math.sqrt(qd.shape[-1])
    keys = (np.arange(kd.shape[2]) < lengths[:, None])[:, None, None]
    q_gl = qd[:, :, [0]]
    p_gl = T._softmax_masked((q_gl @ kd.swapaxes(-1, -2)) * alpha, keys, axis=-1)
    g_gl = g[:, :, [0]]
    dp_gl = g_gl @ vd.swapaxes(-1, -2)
    ds_gl = p_gl * (dp_gl - (p_gl * dp_gl).sum(axis=-1, keepdims=True))
    return p_gl @ vd, ds_gl @ kd, ds_gl.swapaxes(-1, -2) @ q_gl, p_gl.swapaxes(-1, -2) @ g_gl


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_windowed_attention_global_rows_are_unchanged_bit_for_bit(dtype):
    """The forward global row 0 equals the formula bit for bit; so do the
    gradients of a loss that reads only that row, whose other terms are zero."""
    rng = np.random.default_rng(48)
    lengths = np.array([13, 6, 9])
    shape = (3, 2, 13, 4)
    q, k, v = (T.Parameter(name, rng.normal(size=shape), dtype=dtype) for name in "qkv")
    idx, valid = build_window_index(13, 3)
    g = np.zeros(shape, dtype=dtype)
    g[:, :, 0] = rng.normal(size=(3, 2, 4))
    out_ref, dq_gl, dk_ref, dv_ref = _global_row_by_formula(q.data, k.data, v.data, lengths, g)
    with T.GradTape() as tape:
        out = T.windowed_attention(q, k, v, idx, valid, lengths)
        loss = scalarize(out, g.reshape(-1))
    tape.backward(loss)
    alpha = dtype(1.0 / math.sqrt(4))
    assert out.data[:, :, [0]].tobytes() == out_ref.tobytes()
    assert q.grad[:, :, [0]].tobytes() == (dq_gl * alpha).tobytes()
    assert k.grad.tobytes() == (dk_ref * alpha).tobytes()
    assert v.grad.tobytes() == dv_ref.tobytes()


# ---------------------------------------------------------------------------
# windowed rows attention


def _rows_setup(rng, lengths, window, rows, n_heads=2, d_head=3):
    """Keys and values of a right-padded batch, and queries at `rows`, one
    list of positions per sequence."""
    shape = (len(lengths), n_heads, max(lengths), d_head)
    k, v = (_param(name, shape, rng) for name in "kv")
    seq = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    pos = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    q = _param("q", (seq.size, n_heads, d_head), rng)
    return q, k, v, seq, pos, np.asarray(lengths)


_ROWS_CASES = [
    # rows at both ends of each sequence
    ([12, 12], 3, [[1, 2, 11], [1, 6, 10, 11]]),
    # rows 1 and 2 have key 0 in their window, counted once; the rest reach
    # it through its own slot
    ([13], 2, [[1, 2, 3, 4, 6, 7, 8, 12]]),
    # a right-padded batch, rows near each sequence's own end
    ([13, 6, 9], 3, [[4, 12], [3, 5], [1, 8]]),
    # sequences no longer than w
    ([4, 2, 3], 5, [[1, 2, 3], [1], [2]]),
    # a sequence without rows
    ([9, 7], 2, [[], [1, 3, 6]]),
]


# ids keep the names the cases had when each also chose its global rows
@pytest.mark.parametrize("lengths,window,rows", _ROWS_CASES,
                         ids=[f"lengths{i}-{w}-global_idx{i}-rows{i}"
                              for i, (_, w, _) in enumerate(_ROWS_CASES)])
def test_windowed_rows_attention_matches_dense_at_the_rows(lengths, window, rows):
    rng = np.random.default_rng(50)
    q, k, v, seq, pos, lens = _rows_setup(rng, lengths, window, rows)
    out = T.windowed_rows_attention(q, k, v, seq, pos, window, lens).data
    assert out.shape == q.data.shape
    pairs = 0
    for m, (b, r) in enumerate(zip(seq, pos)):
        n = lengths[b]
        allowed = ref.allowed_pairs_ref(n, window)
        q_full = np.zeros((2, n, 3))
        q_full[:, r] = q.data[m]
        expected = ref.dense_attention_ref(q_full, k.data[b, :, :n], v.data[b, :, :n], allowed)
        npt.assert_allclose(out[m], expected[:, r], atol=1e-12)
        pairs += 2 * int(allowed[r].sum())
    assert T.attention_pairs.pairs == pairs


def test_windowed_rows_attention_gradcheck_with_padding():
    rng = np.random.default_rng(51)
    q, k, v, seq, pos, lens = _rows_setup(rng, [9, 4, 7], 2, [[1, 2, 5, 8], [3], [1, 4, 6]])
    w = rng.normal(size=q.data.size)

    def build():
        return scalarize(T.windowed_rows_attention(q, k, v, seq, pos, 2, lens), w)

    fd_gradcheck(build, [q, k, v], rng, coords_per_tensor=30)
    zero_grads([q, k, v])
    with T.GradTape() as tape:
        loss = build()
    tape.backward(loss)
    for p in (k, v):  # nothing flows into the padded keys
        assert not p.grad[1, :, 4:].any() and not p.grad[2, :, 7:].any()


def test_windowed_rows_attention_rejects_rows_it_cannot_serve():
    rng = np.random.default_rng(52)
    q, k, v, seq, pos, lens = _rows_setup(rng, [6, 4], 2, [[1, 3], [2]])
    T.windowed_rows_attention(q, k, v, seq, pos, 2, lens)
    for bad_seq, bad_pos in (([0, 0, 1], [1, 1, 2]),   # a row twice
                             ([0, 0, 1], [0, 3, 2]),   # the aggregate row
                             ([0, 0, 1], [1, 3, 4]),   # past its sequence's length
                             ([0, 0, 2], [1, 3, 2])):  # no such sequence
        with pytest.raises(ValueError, match="query rows"):
            T.windowed_rows_attention(q, k, v, np.array(bad_seq), np.array(bad_pos), 2, lens)
    with pytest.raises(ValueError, match="shapes"):
        T.windowed_rows_attention(k, k, v, seq, pos, 2, lens)


# ---------------------------------------------------------------------------
# optimizer and friends


def test_adam_matches_scalar_recurrence():
    p = T.Parameter("p", np.array([1.0]))
    opt = T.Adam([p], lr=0.1)
    for g in (0.5, -0.3):
        p.grad[...] = g
        opt.step()
    expected = ref.adam_scalar_ref(1.0, [0.5, -0.3], lr=0.1)
    assert abs(float(p.data[0]) - expected) < 1e-7


def test_adam_first_step_is_signed_lr():
    p = T.Parameter("p", np.array([0.0, 0.0]))
    opt = T.Adam([p], lr=0.01)
    p.grad[...] = np.array([5.0, -2.0])
    opt.step()
    npt.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-5)


def test_adam_zero_grad_keeps_param_and_increments_t():
    p = T.Parameter("p", np.array([2.0]))
    opt = T.Adam([p], lr=0.1)
    opt.step()
    assert opt.t == 1
    npt.assert_array_equal(p.data, [2.0])


def test_adam_zeroes_grads_after_step():
    p = T.Parameter("p", np.ones(4))
    opt = T.Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    npt.assert_array_equal(p.grad, np.zeros(4))


def test_clip_global_norm():
    a = T.Parameter("a", np.zeros(3))
    b = T.Parameter("b", np.zeros(4))
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    norm = T.clip_global_norm([a, b], 1.0)
    assert abs(norm - math.sqrt(3 * 9.0 + 4 * 16.0)) < 1e-4
    total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert abs(total - 1.0) < 1e-6
    # under the cap: untouched
    a.grad[...] = 1e-3
    b.grad[...] = 0.0
    T.clip_global_norm([a, b], 1.0)
    npt.assert_allclose(a.grad, 1e-3)


def test_truncated_normal_bounds_and_determinism():
    x = T.truncated_normal(stream(7, "init"), (2000,), std=0.02)
    assert np.abs(x).max() <= 0.04 + 1e-9
    assert 0.01 < x.std() < 0.022
    y = T.truncated_normal(stream(7, "init"), (2000,), std=0.02)
    npt.assert_array_equal(x, y)


def test_rng_streams_are_independent():
    a = stream(11, "mask").random(5)
    b = stream(11, "mask").random(5)
    c = stream(11, "data").random(5)
    d = stream(12, "mask").random(5)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# allocator

_GLIBC = platform.libc_ver()[0] == "glibc"

# One warm-up cycle, then 20 measured. Each cycle holds two 2 MiB and two 8 MiB
# float32 arrays at once and frees them together, as a tape frees its
# activations: with glibc's defaults the freed top of the heap is trimmed and
# the next cycle faults it back in, about 1,500 minor faults a cycle.
_FAULTS_PER_CYCLE = """
import resource
import numpy as np
import txrec

def cycle():
    arrays = [np.ones(n, dtype=np.float32) for n in (2 << 18, 2 << 20, 2 << 18, 2 << 20)]
    del arrays

cycle()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cycle()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults), min(faults))
"""


def _faults_per_cycle(**malloc_env) -> tuple[int, int]:
    """(most, fewest) minor faults per cycle in a fresh `import txrec` process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = str(Path(T.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_CYCLE], capture_output=True,
                          text=True, timeout=60, env={**env, **malloc_env}, check=True)
    most, fewest = map(int, done.stdout.split())
    return most, fewest


@pytest.mark.skipif(not _GLIBC, reason="the thresholds are glibc's")
def test_import_keeps_freed_activation_memory_in_the_process():
    most, _ = _faults_per_cycle()
    assert most < 50


@pytest.mark.skipif(not _GLIBC, reason="the thresholds are glibc's")
def test_a_hosts_own_glibc_malloc_setting_wins():
    _, fewest = _faults_per_cycle(MALLOC_MMAP_THRESHOLD_="131072")
    assert fewest > 1000  # every array is mapped afresh, every cycle


def _fake_libc(monkeypatch, libc, accepts=True) -> list:
    """Fake the libc probe and `ctypes.CDLL`, and clear glibc's malloc
    variables. Returns the log of each library lookup and `mallopt` call."""
    log = []

    def mallopt(param, value):
        log.append((param, value))
        return int(accepts)

    def cdll(name):
        log.append(("CDLL", name))
        return SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: libc)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    for key in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(key, raising=False)
    return log


@pytest.mark.parametrize("libc, env", [
    (("musl", "1.2.4"), {}),
    (("", ""), {}),
    (("glibc", "2.36"), {"MALLOC_TRIM_THRESHOLD_": "131072"}),
    (("glibc", "2.36"), {"MALLOC_MMAP_THRESHOLD_": "131072"}),
    (("glibc", "2.36"), {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}),
], ids=["musl", "unknown-libc", "trim-env", "mmap-env", "malloc-tunable"])
def test_allocator_is_left_alone_off_glibc_or_when_the_host_set_it(monkeypatch, libc, env):
    log = _fake_libc(monkeypatch, libc)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    T._keep_freed_memory()
    assert log == []


@pytest.mark.parametrize("accepts", [True, False])
def test_allocator_sets_both_thresholds_or_neither(monkeypatch, accepts):
    """The mmap threshold goes first; if glibc refuses it, the trim threshold is
    not set alone. A tunable outside `glibc.malloc` does not count as a setting."""
    log = _fake_libc(monkeypatch, ("glibc", "2.36"), accepts)
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512")
    T._keep_freed_memory()
    mmap = (-3, 32 << 20)
    assert log == [("CDLL", None), mmap] + ([(-1, 256 << 20)] if accepts else [])
