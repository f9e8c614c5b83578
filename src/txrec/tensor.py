"""Dense float tensors with taped reverse-mode differentiation.

Every floating-point operation in the package goes through the ops in this
module. Forwards are plain numpy; every op builds its output through
`_result`, which records the op's hand-derived backward rule on the active
GradTape when one of its inputs needs a gradient.
Default precision is float32; passing float64 arrays through the same ops
gives the widened pathway used by gradient checks.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense float array plus the hooks backward needs.

    `grad` is filled lazily during the backward sweep; for non-Parameter
    tensors it is released again as soon as the producing op consumed it.
    """

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data, needs_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, needs_grad={self.needs_grad})"


class Parameter(Tensor):
    """A named learnable tensor; `grad` is a persistent buffer the optimizer zeroes."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, dtype=None):
        super().__init__(np.array(data, copy=True), needs_grad=True, dtype=dtype)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


_TAPES = threading.local()


def _tape_stack() -> list["GradTape"]:
    stack = getattr(_TAPES, "stack", None)
    if stack is None:
        stack = _TAPES.stack = []
    return stack


def active_tape() -> "GradTape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class GradTape:
    """Records ops in execution order; backward replays them reversed, each once."""

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("GradTape exited out of order")
        return False

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into every reachable Parameter's .grad.

        The records already sit in topological order (ops only consume
        previously produced tensors), so one reversed sweep visits each op
        exactly once, after all its consumers have contributed gradient.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        else:
            loss.grad = loss.grad + np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            fn(g)
            if not isinstance(out, Parameter):
                out.grad = None
        self._records.clear()


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _result(data: np.ndarray, inputs: Iterable[Tensor],
            bwd: Callable[[np.ndarray], None]) -> Tensor:
    """The op's output. Under an active tape, when an input needs a gradient,
    the output is marked as needing one too and `bwd` is recorded for it.

    `bwd` receives d(loss)/d(output) and adds into its own inputs' grads.
    """
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(t.needs_grad for t in inputs):
        out.needs_grad = True
        tape.record(out, bwd)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (the adjoint of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        if a.needs_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accum(x, g * c)

    return _result(x.data * c, (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape

    def bwd(g: np.ndarray) -> None:
        _accum(x, g.reshape(old))

    return _result(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(np.argsort(axes))

    def bwd(g: np.ndarray) -> None:
        _accum(x, np.transpose(g, inv))

    return _result(np.transpose(x.data, axes), (x,), bwd)


def gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """out[i] = x[ids[i]]; backward scatter-adds, so repeated ids accumulate."""
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, ids, g)

    return _result(x.data[ids], (x,), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row gather with bounds checking; the table is typically a Parameter."""
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = table.data.shape[0]
    bad = ids[(ids < 0) | (ids >= n_rows)]
    if bad.size:
        raise IndexError(f"embedding id {int(bad.flat[0])} out of range [0, {n_rows})")
    return gather_rows(table, ids)


def take_row(x: Tensor, i: int) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[i] += g

    return _result(x.data[i], (x,), bwd)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors into a matrix; backward hands row i of g to rows[i]."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")

    def bwd(g: np.ndarray) -> None:
        for i, r in enumerate(rows):
            if r.needs_grad:
                _accum(r, g[i])

    return _result(np.stack([r.data for r in rows]), rows, bwd)


def concat_rows(blocks: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-d tensors along axis 0; backward slices g back apart."""
    if not blocks:
        raise ValueError("concat_rows needs at least one block")

    def bwd(g: np.ndarray) -> None:
        start = 0
        for b in blocks:
            n = b.data.shape[0]
            if b.needs_grad:
                _accum(b, g[start : start + n])
            start += n

    return _result(np.concatenate([b.data for b in blocks], axis=0), blocks, bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        if a.needs_grad:
            _accum(a, g @ bd.T)
        if b.needs_grad:
            _accum(b, ad.T @ g)

    return _result(ad @ bd, (a, b), bwd)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T, for scoring rows of `a` against rows of `b`."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"matmul_nt shape mismatch: {a.data.shape} @ {b.data.shape}.T")
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        if a.needs_grad:
            _accum(a, g @ bd)
        if b.needs_grad:
            _accum(b, g.T @ ad)

    return _result(ad @ bd.T, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


# Float32 erf as z * P(z^2) / Q(z^2) on z clamped to [-4, 4], where erf
# rounds to +-1 in single precision: the rational fit Eigen and XLA use.
# Coefficients run from the highest power down.
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
# Elements per pass of the float32 kernel: its five scratch blocks stay in
# cache across the ~25 in-place passes, and each numpy call is long enough
# to amortize its fixed cost. On a 2-core Xeon (2 MiB L2 per core), blocks
# of 16K-64K ran within 15% of each other on (550..2050, 256) activations,
# and 32K was fastest.
GELU_BLOCK = 32768
_erf_exact = np.vectorize(math.erf, otypes=[np.float64])


def _gelu32(x: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """x * Phi(x) for float32 x, evaluated block by block in place.

    Returns Phi(x) too when `keep_cdf` is set, for the backward rule.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    cdf = np.empty_like(flat) if keep_cdf else None
    z, z2, p, q, c = np.empty((5, min(GELU_BLOCK, flat.size)), dtype=np.float32)
    for start in range(0, flat.size, GELU_BLOCK):
        xb = flat[start : start + GELU_BLOCK]
        n = xb.size
        zb, z2b, pb, qb = z[:n], z2[:n], p[:n], q[:n]
        np.multiply(xb, np.float32(1.0 / math.sqrt(2.0)), out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)
        np.multiply(zb, zb, out=z2b)
        for poly, acc in ((_ERF_P, pb), (_ERF_Q, qb)):
            np.multiply(z2b, poly[0], out=acc)
            acc += poly[1]
            for coef in poly[2:]:
                acc *= z2b
                acc += coef
        pb *= zb
        pb /= qb                     # erf(x / sqrt 2)
        cb = cdf[start : start + n] if keep_cdf else c[:n]
        np.multiply(pb, 0.5, out=cb)
        cb += 0.5
        np.multiply(xb, cb, out=out[start : start + n])
    return out.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x). Backward is Phi(x) + x * phi(x).

    Float32 runs the blocked rational-erf kernel (within 2e-6 of the exact
    value); float64, the widened pathway of the gradient checks, calls
    math.erf per element.
    """
    xd = x.data
    if xd.dtype == np.float32:
        # Phi(x) is kept for the backward rule when x needs a gradient:
        # outside a tape only a Parameter does, so inference never keeps it.
        out_data, cdf = _gelu32(xd, keep_cdf=x.needs_grad)
    else:
        cdf = 0.5 * (1.0 + _erf_exact(xd / math.sqrt(2.0)))
        out_data = xd * cdf

    def bwd(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * xd * xd) / math.sqrt(2.0 * math.pi)
        _accum(x, g * (cdf + xd * pdf))

    return _result(out_data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor | None = None, beta: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine if given."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    centered = xd - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    if gamma is not None:
        out_data = y * gamma.data + (beta.data if beta is not None else 0.0)
    else:
        out_data = y

    def bwd(g: np.ndarray) -> None:
        if gamma is not None:
            if gamma.needs_grad:
                _accum(gamma, _unbroadcast(g * y, gamma.data.shape))
            if beta is not None and beta.needs_grad:
                _accum(beta, _unbroadcast(g, beta.data.shape))
            gy = g * gamma.data
        else:
            gy = g
        if x.needs_grad:
            # dx = inv * (gy - mean(gy) - y * mean(gy * y)) per row
            gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - y * (gy * y).mean(axis=-1, keepdims=True))
            _accum(x, gx)

    return _result(out_data.astype(xd.dtype, copy=False),
                   [t for t in (x, gamma, beta) if t is not None], bwd)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm below eps map to zero-ish."""
    xd = x.data
    norms = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    n_eff = np.maximum(norms, eps)
    y = xd / n_eff

    def bwd(g: np.ndarray) -> None:
        # d(x/||x||) applied to g: (g - y (y.g)) / ||x||
        _accum(x, (g - y * (y * g).sum(axis=-1, keepdims=True)) / n_eff)

    return _result(y, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling at train time keeps expectations unchanged."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def bwd(g: np.ndarray) -> None:
        _accum(x, g * keep)

    return _result(x.data * keep, (x,), bwd)


def cross_entropy_mean(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of integer targets over rows of logits."""
    t = np.asarray(targets, dtype=np.int64)
    ld = logits.data
    if ld.ndim != 2 or t.ndim != 1 or t.shape[0] != ld.shape[0]:
        raise ValueError(f"cross_entropy_mean shapes: logits {ld.shape}, targets {t.shape}")
    n, c = ld.shape
    bad = t[(t < 0) | (t >= c)]
    if bad.size:
        raise IndexError(f"target class {int(bad.flat[0])} out of range [0, {c})")
    m = ld.max(axis=-1, keepdims=True)
    e = np.exp(ld - m)
    z = e.sum(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    rows = np.arange(n)
    losses = lse - ld[rows, t]

    def bwd(g: np.ndarray) -> None:
        dl = e / z                   # softmax(logits)
        dl[rows, t] -= 1.0
        _accum(logits, dl * (g / n))

    return _result(np.asarray(losses.mean(), dtype=ld.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# windowed attention


class PairCounter:
    """Counts attended (query, key) pairs so scaling behavior is observable."""

    def __init__(self):
        self.pairs = 0

    def add(self, n: int) -> None:
        self.pairs += int(n)

    def reset(self) -> None:
        self.pairs = 0


attention_pairs = PairCounter()


_MASKED = -1e30  # finite, so a fully masked padded row softmaxes to finite weights


def _softmax_masked(s: np.ndarray, mask, axis: int) -> np.ndarray:
    """Softmax over `axis` of the entries where mask holds; the rest get weight 0."""
    s = np.where(mask, s, _MASKED)
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _padded(x: np.ndarray, before: int, rows: int) -> np.ndarray:
    """x (B, H, L, ...) placed at row `before` of `rows` zero rows (axis 2)."""
    out = np.zeros(x.shape[:2] + (rows,) + x.shape[3:], dtype=x.dtype)
    out[:, :, before : before + x.shape[2]] = x
    return out


def _chunk_view(x: np.ndarray, w: int) -> np.ndarray:
    """Contiguous (B, H, C*w + 2w, d) -> (B, H, C, d, 3w) overlapping views, no copy.

    Chunk i sees rows [i*w, i*w + 3w) of x, which hold keys i*w - w ..
    i*w + 2w - 1 when x is the key sequence padded by w rows on the left.
    """
    b, h, n, d = x.shape
    s0, s1, s2, s3 = x.strides
    return np.ndarray((b, h, n // w - 2, d, 3 * w), x.dtype, x, 0, (s0, s1, w * s2, s3, s2))


def windowed_attention(q: Tensor, k: Tensor, v: Tensor, neighbor_idx: np.ndarray,
                       neighbor_valid: np.ndarray, global_idx: np.ndarray,
                       lengths: np.ndarray | None = None) -> Tensor:
    """Sliding-window attention with a few rows that attend everywhere.

    q, k, v are (batch, heads, len, d_head), or (heads, len, d_head) for one
    sequence. neighbor_idx / neighbor_valid come from
    `encoder.build_window_index` and are (len, 3w + G): query rows are cut
    into chunks of w rows, and slot s of a row in chunk i holds key
    i*w - w + s, so one batched matmul against overlapping views of the
    padded keys scores every chunk at once (the sliding-chunk form of
    Longformer). The last G slots hold the global keys, valid only outside
    the row's window. The kernel reads w off the slot count and uses
    neighbor_idx, the slot-to-key map its views realize, only to check the
    layout. Rows listed in global_idx ignore their window and attend
    densely; every row can attend the global rows, so the pattern is
    symmetric. Work is O(len * w) plus O(len) per global row instead of
    O(len^2).

    `lengths` (batch,) gives each sequence's real length in a right-padded
    batch and defaults to the full length: keys at or past a sequence's
    length are masked, and its padded rows come out as zeros. Global rows
    must lie inside every sequence.

    `attention_pairs` is incremented by the number of scored pairs of real
    rows and keys summed over heads, which is what the linear-scaling checks
    measure.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.shape != kd.shape or qd.shape != vd.shape or qd.ndim not in (3, 4):
        raise ValueError(f"attention shapes must match: {qd.shape}, {kd.shape}, {vd.shape}")
    single = qd.ndim == 3
    if single:
        qd, kd, vd = qd[None], kd[None], vd[None]
    n_seq, n_heads, length, d_head = qd.shape
    global_idx = np.asarray(global_idx, dtype=np.int64)
    n_glob = global_idx.size
    n_slots = neighbor_valid.shape[-1]
    w = (n_slots - n_glob) // 3
    if w < 1 or neighbor_valid.shape != (length, 3 * w + n_glob) \
            or neighbor_idx.shape != neighbor_valid.shape:
        raise ValueError(f"window index {neighbor_valid.shape} does not fit length {length} "
                         f"with {n_glob} global rows")
    n_chunks = -(-length // w)
    span = n_chunks * w
    win = 3 * w
    alpha = 1.0 / math.sqrt(d_head)

    lengths = np.full(n_seq, length) if lengths is None else np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n_seq,) or lengths.max() > length \
            or lengths.min() <= global_idx.max(initial=0):
        raise ValueError(f"lengths {lengths.tolist()} do not fit a batch of "
                         f"{n_seq} x {length} with global rows {global_idx.tolist()}")
    n_real = int(lengths.sum())

    # Scores and weights live slot-first, (S, B, H, C, w), so the softmax
    # reduces over a leading axis; matmuls read and write them through
    # (B, H, C, w, S) views. mask is (S, B, 1, C, w): the window layout,
    # then each sequence's real keys. row_local (B, 1, C, w) marks the
    # rows the band serves: real and not global.
    key_real = np.arange(span + 2 * w) - w < lengths[:, None]     # (B, span + 2w)
    win_real = _chunk_view(key_real.reshape(n_seq, 1, -1, 1), w)[:, 0, :, 0]  # (B, C, 3w)
    slots = np.zeros((span, n_slots), dtype=bool)
    slots[:length] = neighbor_valid
    mask = np.repeat(slots.T.reshape(n_slots, 1, 1, n_chunks, w), n_seq, axis=1)
    mask[:win] &= win_real.transpose(2, 0, 1)[:, :, None, :, None]
    row_local = np.ones(span, dtype=bool)
    row_local[global_idx] = False
    row_local = row_local.reshape(1, 1, n_chunks, w) & key_real[:, w : w + span].reshape(n_seq, 1, n_chunks, w)

    qc = _padded(qd, 0, span).reshape(n_seq, n_heads, n_chunks, w, d_head)
    kc = _chunk_view(_padded(kd, w, span + 2 * w), w)      # (B, H, C, dh, 3w)
    vc = _chunk_view(_padded(vd, w, span + 2 * w), w)
    s = np.empty((n_slots, n_seq, n_heads, n_chunks, w), dtype=qd.dtype)
    s_rows = s.transpose(1, 2, 3, 4, 0)
    np.matmul(qc, kc, out=s_rows[..., :win])
    np.matmul(qc, kd[:, :, None, global_idx].swapaxes(-1, -2), out=s_rows[..., win:])
    s *= alpha
    p = _softmax_masked(s, mask, axis=0)
    p *= row_local
    p_rows = p.transpose(1, 2, 3, 4, 0)
    out_c = p_rows[..., :win] @ vc.swapaxes(-1, -2)          # (B, H, C, w, dh)
    for j, g_j in enumerate(global_idx):
        out_c += p[win + j][..., None] * vd[:, :, None, None, g_j]
    out_data = out_c.reshape(n_seq, n_heads, span, d_head)[:, :, :length]

    p_gl = None
    q_gl = None
    if n_glob:
        q_gl = qd[:, :, global_idx]                          # (B, H, G, dh)
        keys = key_real[:, None, None, w : w + length]
        p_gl = _softmax_masked((q_gl @ kd.swapaxes(-1, -2)) * alpha, keys, axis=-1)
        out_data[:, :, global_idx] = p_gl @ vd

    n_local = int(np.count_nonzero(mask & row_local))
    attention_pairs.add(n_heads * (n_local + n_glob * n_real))

    def bwd(g: np.ndarray) -> None:
        g = g[None] if single else g
        gc = _padded(g, 0, span).reshape(n_seq, n_heads, n_chunks, w, d_head)
        dp = np.empty_like(p)
        dp_rows = dp.transpose(1, 2, 3, 4, 0)
        np.matmul(gc, vc, out=dp_rows[..., :win])
        np.matmul(gc, vd[:, :, None, global_idx].swapaxes(-1, -2), out=dp_rows[..., win:])
        ds = p * (dp - (p * dp).sum(axis=0))
        ds_rows = ds.transpose(1, 2, 3, 4, 0)
        dq = ds_rows[..., :win] @ kc.swapaxes(-1, -2)
        # window slots j*w .. j*w + w - 1 of chunk i are padded key rows (i + j)*w ..
        dkp = np.zeros((n_seq, n_heads, n_chunks + 2, w, d_head), dtype=qd.dtype)
        dvp = np.zeros_like(dkp)
        dk_win = ds_rows[..., :win].swapaxes(-1, -2) @ qc      # (B, H, C, 3w, dh)
        dv_win = p_rows[..., :win].swapaxes(-1, -2) @ gc
        for j in range(3):
            dkp[:, :, j : j + n_chunks] += dk_win[:, :, :, j * w : (j + 1) * w]
            dvp[:, :, j : j + n_chunks] += dv_win[:, :, :, j * w : (j + 1) * w]
        dk = dkp.reshape(n_seq, n_heads, span + 2 * w, d_head)[:, :, w : w + length]
        dv = dvp.reshape(n_seq, n_heads, span + 2 * w, d_head)[:, :, w : w + length]
        flat = (n_seq, n_heads, 1, span)
        q_flat = qc.reshape(n_seq, n_heads, span, d_head)
        g_flat = gc.reshape(n_seq, n_heads, span, d_head)
        for j, g_j in enumerate(global_idx):
            dq += ds[win + j][..., None] * kd[:, :, None, None, g_j]
            dk[:, :, g_j] += (ds[win + j].reshape(flat) @ q_flat)[:, :, 0]
            dv[:, :, g_j] += (p[win + j].reshape(flat) @ g_flat)[:, :, 0]
        dq = dq.reshape(n_seq, n_heads, span, d_head)[:, :, :length]
        if n_glob:
            g_gl = g[:, :, global_idx]
            dp_gl = g_gl @ vd.swapaxes(-1, -2)
            ds_gl = p_gl * (dp_gl - (p_gl * dp_gl).sum(axis=-1, keepdims=True))
            dq[:, :, global_idx] += ds_gl @ kd
            dk += ds_gl.swapaxes(-1, -2) @ q_gl
            dv += p_gl.swapaxes(-1, -2) @ g_gl
        dq *= alpha
        dk *= alpha
        if single:
            dq, dk, dv = dq[0], dk[0], dv[0]
        if q.needs_grad:
            _accum(q, dq)
        if k.needs_grad:
            _accum(k, dk)
        if v.needs_grad:
            _accum(v, dv)

    return _result(out_data[0] if single else out_data, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction. step() consumes and zeroes the grads."""

    def __init__(self, params: Iterable[Parameter], lr: float = 5e-5,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            g[...] = 0.0


def clip_global_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all grads by max_norm/norm when their joint L2 norm exceeds it."""
    params = list(params)
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def load_params(params: Iterable[Parameter], state: dict[str, np.ndarray]) -> None:
    """Copy state[p.name] into each parameter; a missing or misshapen tensor raises."""
    for p in params:
        if p.name not in state:
            raise KeyError(f"missing parameter '{p.name}'")
        src = state[p.name]
        if src.shape != p.data.shape:
            raise ValueError(f"parameter '{p.name}' shape {src.shape} != {p.data.shape}")
        p.data[...] = src


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0


def truncated_normal(rng: np.random.Generator, shape: tuple[int, ...],
                     std: float = 0.02, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """N(0, std) redrawn until every sample lies within two deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x.astype(dtype)
