"""Numeric core: forward oracles, backward finite differences, optimizer."""

from __future__ import annotations

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_dropout_of_some_rows_draws_for_all_and_keeps_their_masks():
    """`rows=(n, ids)` applies rows `ids` of the (n, d) mask, and the stream
    moves on exactly as after dropout over all n rows."""
    rng = np.random.default_rng(14)
    full = _param("full", (6, 5), rng)
    ids = np.array([0, 3, 4])
    part = _param("part", (3, 5), rng)
    part.data[...] = full.data[ids]
    rng_full, rng_part = stream(4, "dropout"), stream(4, "dropout")
    with T.GradTape() as tape:
        want = T.dropout(full, 0.5, rng_full)
        got = T.dropout(part, 0.5, rng_part, rows=(6, ids))
        loss = T.add(scalarize(want, np.ones(30)), scalarize(got, np.ones(15)))
    tape.backward(loss)
    npt.assert_array_equal(got.data, want.data[ids])
    npt.assert_array_equal(part.grad, full.grad[ids])
    assert rng_full.random() == rng_part.random()
    with pytest.raises(ValueError, match="do not match"):
        T.dropout(part, 0.5, stream(4, "dropout"), rows=(6, ids[:2]))


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


_IDX, _VALID = build_window_index(5, 2, (0,))

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
        make((2, 5, 3)), make((2, 5, 3)), make((2, 5, 3)), _IDX, _VALID, np.array([0])),
    "global_attention": lambda make: T.global_attention(
        make((2, 2, 1, 3)), make((2, 2, 5, 3)), make((2, 2, 5, 3)), np.array([5, 3])),
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


def _attention_setup(rng, n_heads, length, d_head, window, global_idx=(0,)):
    q = _param("q", (n_heads, length, d_head), rng)
    k = _param("k", (n_heads, length, d_head), rng)
    v = _param("v", (n_heads, length, d_head), rng)
    idx, valid = build_window_index(length, window, global_idx)
    return q, k, v, idx, valid, np.asarray(global_idx, dtype=np.int64)


@pytest.mark.parametrize("length,window,global_idx", [
    (3, 4, (0,)),       # window covers everything
    (5, 2, (0,)),       # len == 2w+1
    (17, 3, (0,)),      # long, narrow window
    (12, 2, ()),        # no global rows at all
    (11, 2, (0, 5)),    # two global rows
    (1, 3, (0,)),       # a single row: one chunk, nothing but the aggregate
    (1, 2, ()),
    (10, 4, (0,)),      # length not a multiple of the chunk size w
    (10, 4, (0, 5)),
    (11, 3, ()),
    (6, 8, (0, 5)),     # window wider than the sequence
    (5, 5, ()),
])
def test_windowed_attention_matches_masked_dense(length, window, global_idx):
    rng = np.random.default_rng(17 + length)
    q, k, v, idx, valid, g = _attention_setup(rng, 2, length, 4, window, global_idx)
    out = T.windowed_attention(q, k, v, idx, valid, g).data
    allowed = ref.allowed_pairs_ref(length, window, global_idx)
    expected = ref.dense_attention_ref(q.data, k.data, v.data, allowed)
    npt.assert_allclose(out, expected, atol=1e-12)


def test_windowed_attention_gradcheck():
    rng = np.random.default_rng(18)
    q, k, v, idx, valid, g = _attention_setup(rng, 2, 7, 3, 2)
    w = rng.normal(size=2 * 7 * 3)
    fd_gradcheck(lambda: scalarize(T.windowed_attention(q, k, v, idx, valid, g), w),
                 [q, k, v], rng, coords_per_tensor=14)


def test_windowed_attention_pair_count_is_exact():
    rng = np.random.default_rng(19)
    for length, window, gidx in [(9, 2, (0,)), (30, 4, (0,)), (16, 3, ())]:
        T.attention_pairs.reset()
        q, k, v, idx, valid, g = _attention_setup(rng, 3, length, 4, window, gidx)
        T.windowed_attention(q, k, v, idx, valid, g)
        expected = 3 * int(ref.allowed_pairs_ref(length, window, gidx).sum())
        assert T.attention_pairs.pairs == expected


def _padded_setup(rng, lengths, n_heads, d_head, window, global_idx):
    shape = (len(lengths), n_heads, max(lengths), d_head)
    q, k, v = (_param(name, shape, rng) for name in "qkv")
    idx, valid = build_window_index(max(lengths), window, global_idx)
    return q, k, v, idx, valid, np.asarray(global_idx, dtype=np.int64), np.asarray(lengths)


@pytest.mark.parametrize("global_idx", [(0, 5), ()])
def test_padded_batch_matches_dense_per_sequence(global_idx):
    rng = np.random.default_rng(41)
    lengths = [13, 6, 9, 13, 7]
    q, k, v, idx, valid, g, lens = _padded_setup(rng, lengths, 2, 3, 3, global_idx)
    out = T.windowed_attention(q, k, v, idx, valid, g, lens).data
    for b, n in enumerate(lengths):
        allowed = ref.allowed_pairs_ref(n, 3, global_idx)
        expected = ref.dense_attention_ref(q.data[b, :, :n], k.data[b, :, :n],
                                           v.data[b, :, :n], allowed)
        npt.assert_allclose(out[b, :, :n], expected, atol=1e-12)
        assert not out[b, :, n:].any()  # padded rows come out as zeros


def test_padded_batch_gradcheck():
    rng = np.random.default_rng(42)
    q, k, v, idx, valid, g, lens = _padded_setup(rng, [9, 4, 7], 2, 3, 2, (0,))
    w = rng.normal(size=q.data.size)
    fd_gradcheck(lambda: scalarize(T.windowed_attention(q, k, v, idx, valid, g, lens), w),
                 [q, k, v], rng, coords_per_tensor=30)
    # nothing flows into the padding
    zero_grads([q, k, v])
    with T.GradTape() as tape:
        loss = scalarize(T.windowed_attention(q, k, v, idx, valid, g, lens), w)
    tape.backward(loss)
    for p in (q, k, v):
        assert not p.grad[1, :, 4:].any() and not p.grad[2, :, 7:].any()


def test_padded_batch_pair_count_excludes_padding():
    rng = np.random.default_rng(43)
    lengths = [30, 11, 1, 17]
    q, k, v, idx, valid, g, lens = _padded_setup(rng, lengths, 3, 2, 4, (0,))
    T.windowed_attention(q, k, v, idx, valid, g, lens)
    expected = 3 * sum(int(ref.allowed_pairs_ref(n, 4, (0,)).sum()) for n in lengths)
    assert T.attention_pairs.pairs == expected


def test_padded_batch_rejects_lengths_that_do_not_fit():
    rng = np.random.default_rng(44)
    q, k, v, idx, valid, g, _ = _padded_setup(rng, [8, 8], 1, 2, 2, (0, 5))
    for bad in ([8, 5], [9, 8], [8]):
        with pytest.raises(ValueError, match="lengths"):
            T.windowed_attention(q, k, v, idx, valid, g, np.asarray(bad))


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


def _global_rows_at_parent(qd, kd, vd, global_idx, lengths, g):
    """The global rows of `windowed_attention` and their gradients, spelled
    out as the kernel computed them before `global_attention` shared them."""
    alpha = 1.0 / math.sqrt(qd.shape[-1])
    keys = (np.arange(kd.shape[2]) < lengths[:, None])[:, None, None]
    q_gl = qd[:, :, global_idx]
    p_gl = T._softmax_masked((q_gl @ kd.swapaxes(-1, -2)) * alpha, keys, axis=-1)
    g_gl = g[:, :, global_idx]
    dp_gl = g_gl @ vd.swapaxes(-1, -2)
    ds_gl = p_gl * (dp_gl - (p_gl * dp_gl).sum(axis=-1, keepdims=True))
    return p_gl @ vd, ds_gl @ kd, ds_gl.swapaxes(-1, -2) @ q_gl, p_gl.swapaxes(-1, -2) @ g_gl


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_windowed_attention_global_rows_are_unchanged_bit_for_bit(dtype):
    """Forward global rows equal the formula bit for bit; so do the gradients
    of a loss that reads only the global rows, whose other terms are zero."""
    rng = np.random.default_rng(48)
    lengths = np.array([13, 6, 9])
    global_idx = np.array([0, 5])
    shape = (3, 2, 13, 4)
    q, k, v = (T.Parameter(name, rng.normal(size=shape), dtype=dtype) for name in "qkv")
    idx, valid = build_window_index(13, 3, (0, 5))
    g = np.zeros(shape, dtype=dtype)
    g[:, :, global_idx] = rng.normal(size=(3, 2, 2, 4))
    out_ref, dq_gl, dk_ref, dv_ref = _global_rows_at_parent(q.data, k.data, v.data,
                                                            global_idx, lengths, g)
    with T.GradTape() as tape:
        out = T.windowed_attention(q, k, v, idx, valid, global_idx, lengths)
        loss = scalarize(out, g.reshape(-1))
    tape.backward(loss)
    alpha = dtype(1.0 / math.sqrt(4))
    assert out.data[:, :, global_idx].tobytes() == out_ref.tobytes()
    assert q.grad[:, :, global_idx].tobytes() == (dq_gl * alpha).tobytes()
    assert k.grad.tobytes() == (dk_ref * alpha).tobytes()
    assert v.grad.tobytes() == dv_ref.tobytes()


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
