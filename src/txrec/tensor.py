"""Dense float tensors with taped reverse-mode differentiation.

Every floating-point operation in the package goes through the ops in this
module. Forwards are plain numpy; every op builds its output through
`_result`, which records the op's hand-derived backward rule on the active
GradTape when one of its inputs needs a gradient.
Default precision is float32; passing float64 arrays through the same ops
gives the widened pathway used by gradient checks.
Importing the module raises glibc's trim and mmap thresholds once, so that
freed activations stay in the process (see `_keep_freed_memory`).
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
NORM_EPS, LN_EPS = 1e-12, 1e-5  # floor of an L2 norm that divides; LayerNorm's variance offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
INIT_STD = 0.02  # of `truncated_normal` weight draws

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def _keep_freed_memory() -> None:
    """On glibc, keep freed blocks of up to 32 MiB for reuse, not for the kernel.

    Every encoder call allocates and frees activations of a few hundred KB to
    a few MB. By default glibc unmaps them or trims them off the heap, and the
    next call faults the same memory back in page by page. Both thresholds are
    set, or neither: an explicit threshold turns off glibc's dynamic mmap
    threshold, so either one alone faults more than the default. 32 MiB is the
    largest mmap threshold every 64-bit glibc accepts. A host that set glibc's
    own malloc variables or tunables keeps its setting.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    env = os.environ
    if ("MALLOC_TRIM_THRESHOLD_" in env or "MALLOC_MMAP_THRESHOLD_" in env
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):  # 0: refused, the defaults stay
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()


class GradSlot:
    """A tensor's gradient bookkeeping, kept apart from its data.

    The tape and the backward rules hold slots, never tensors, so an array
    outlives its forward only when some rule captured it to read it.
    """

    __slots__ = ("grad", "needs_grad", "shape", "dtype")

    def __init__(self, data: np.ndarray, needs_grad: bool):
        self.grad: np.ndarray | None = None
        self.needs_grad = needs_grad
        self.shape = data.shape
        self.dtype = data.dtype


class Tensor:
    """A dense float array plus, once it takes part in backward, a GradSlot.

    `grad` and `needs_grad` read the slot; a tensor without one needs no
    gradient and holds none, so inference makes no slots. `grad` is filled
    lazily during the backward sweep; for non-Parameter tensors it is
    released again as soon as the producing op consumed it.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, needs_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.slot = GradSlot(arr, True) if needs_grad else None

    def _own_slot(self) -> GradSlot:
        if self.slot is None:
            self.slot = GradSlot(self.data, False)
        return self.slot

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._own_slot().grad = value

    @property
    def needs_grad(self) -> bool:
        return self.slot is not None and self.slot.needs_grad

    @needs_grad.setter
    def needs_grad(self, value: bool) -> None:
        self._own_slot().needs_grad = value

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


Backward = Callable[..., None]  # (g, *input slots) -> None


class GradTape:
    """Records ops in execution order; backward replays them reversed, each once."""

    def __init__(self):
        self._records: list[tuple[GradSlot, Backward, list[GradSlot | None]]] = []

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("GradTape exited out of order")
        return False

    def record(self, out: GradSlot, backward_fn: Backward, inputs: list[GradSlot | None]) -> None:
        self._records.append((out, backward_fn, inputs))

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
        for out, fn, inputs in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            fn(g, *inputs)
            out.grad = None
        self._records.clear()


def _accum(s: GradSlot, g: np.ndarray, own: bool = False) -> None:
    """Add g into the slot's grad. With `own` the rule hands g over: it made
    g, or g views the output grad that only it reads, and no other slot gets
    g. A slot without a grad then takes g itself rather than a copy."""
    if s.grad is None:
        s.grad = g if own and g.dtype == s.dtype else np.array(g, dtype=s.dtype)
    else:
        s.grad += g


def _grad_slot(t: Tensor | None) -> GradSlot | None:
    s = None if t is None else t.slot
    return s if s is not None and s.needs_grad else None


def _result(data: np.ndarray, inputs: Sequence[Tensor | None], bwd: Backward) -> Tensor:
    """The op's output. Under an active tape, when an input needs a gradient,
    the output is marked as needing one too and `bwd` is recorded for its slot.

    `bwd(g, *slots)` receives d(loss)/d(output) and one slot per input, None
    for an input that needs no gradient, and adds into the slots' grads. It
    reads the arrays it captured and never an input Tensor, so an input's
    array stays alive only when the rule reads it.
    """
    out = Tensor(data)
    tape = active_tape()
    if tape is not None:
        slots = [_grad_slot(t) for t in inputs]
        if any(s is not None for s in slots):
            out.needs_grad = True
            tape.record(out.slot, bwd, slots)
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
    def bwd(g: np.ndarray, sa: GradSlot | None, sb: GradSlot | None) -> None:
        if sa is not None:
            _accum(sa, _unbroadcast(g, sa.shape), own=True)
        if sb is not None:  # a copy of g, when a took g itself
            _accum(sb, _unbroadcast(g, sb.shape))

    return _result(a.data + b.data, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        _accum(sx, g * c, own=True)

    return _result(x.data * c, (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        _accum(sx, g.reshape(sx.shape), own=True)

    return _result(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = sorted(range(len(axes)), key=axes.__getitem__)

    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        _accum(sx, np.transpose(g, inv), own=True)

    return _result(np.transpose(x.data, axes), (x,), bwd)


def gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """out[...] = x[ids[...]]; backward scatter-adds, so repeated ids accumulate.

    The backward sorts the ids stably, sums each id's gradient rows with one
    `np.add.reduceat` and adds each sum into its row once. Repeated ids sum
    in another order than `np.add.at`, so they match it at rounding level;
    unique ids match it bit for bit.
    """
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        if sx.grad is None:
            sx.grad = np.zeros(sx.shape, dtype=sx.dtype)
        flat = np.where(ids < 0, ids + sx.shape[0], ids).reshape(-1)
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        rows = g.reshape((flat.size,) + sx.shape[1:])[order]
        sx.grad[flat[starts]] += np.add.reduceat(rows, starts, axis=0)

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
    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        if sx.grad is None:
            sx.grad = np.zeros(sx.shape, dtype=sx.dtype)
        sx.grad[i] += g

    return _result(x.data[i], (x,), bwd)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors into a matrix; backward hands row i of g to rows[i]."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")

    def bwd(g: np.ndarray, *slots: GradSlot | None) -> None:
        for i, s in enumerate(slots):
            if s is not None:
                _accum(s, g[i])

    return _result(np.stack([r.data for r in rows]), rows, bwd)


def concat_rows(blocks: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-d tensors along axis 0; backward slices g back apart."""
    if not blocks:
        raise ValueError("concat_rows needs at least one block")
    sizes = [b.data.shape[0] for b in blocks]

    def bwd(g: np.ndarray, *slots: GradSlot | None) -> None:
        start = 0
        for s, n in zip(slots, sizes):
            if s is not None:
                _accum(s, g[start : start + n])
            start += n

    return _result(np.concatenate([b.data for b in blocks], axis=0), blocks, bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray, sa: GradSlot | None, sb: GradSlot | None) -> None:
        if sa is not None:
            _accum(sa, g @ bd.T, own=True)
        if sb is not None:
            _accum(sb, ad.T @ g, own=True)

    return _result(ad @ bd, (a, b), bwd)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T, for scoring rows of `a` against rows of `b`."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"matmul_nt shape mismatch: {a.data.shape} @ {b.data.shape}.T")
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray, sa: GradSlot | None, sb: GradSlot | None) -> None:
        if sa is not None:
            _accum(sa, g @ bd, own=True)
        if sb is not None:
            _accum(sb, g.T @ ad, own=True)

    return _result(ad @ bd.T, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


# Float32 Phi(x) = (1 + tanh(x * P(x^2))) / 2, so that numpy's SIMD float32 tanh
# does the transcendental part. P (highest power first) is the best of a grid of
# least-squares fits to atanh(erf(x / sqrt 2)) / x, here over (0, 5.48] weighted by
# exp(-x^2 / 1.5): within 5.1e-7 of the exact GELU of float32 inputs in [-12, 12].
# Past the clip at |x| = 6, x * P(x^2) > 11, so tanh is +-1 and Phi is 0 or 1.
_PHI_P = np.array([1.5711875e-09, -1.2339981e-07, 3.8220596e-06, -5.4353030e-05,
                   -3.5203593e-05, 3.6335528e-02, 7.9788446e-01], dtype=np.float32)
# Elements per pass of the float32 kernel: its three scratch blocks stay in cache
# across the 19 in-place passes, and each numpy call amortizes its fixed cost. On a
# 2-core Xeon (2 MiB L2 per core), blocks of 16K-64K ran within 15% of each other
# on (550..2050, 256) activations, and 32K was fastest.
GELU_BLOCK = 32768
_erf_exact = np.vectorize(math.erf, otypes=[np.float64])


def _gelu32(x: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """x * Phi(x) for float32 x, evaluated block by block in place.

    Returns Phi(x) too when `keep_cdf` is set, for the backward rule.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    cdf = np.empty_like(flat) if keep_cdf else None
    z, z2, p = np.empty((3, min(GELU_BLOCK, flat.size)), dtype=np.float32)
    for start in range(0, flat.size, GELU_BLOCK):
        xb = flat[start : start + GELU_BLOCK]
        n = xb.size
        zb, z2b, pb = z[:n], z2[:n], p[:n]
        np.clip(xb, -6.0, 6.0, out=zb)
        np.multiply(zb, zb, out=z2b)
        np.multiply(z2b, _PHI_P[0], out=pb)
        pb += _PHI_P[1]
        for coef in _PHI_P[2:]:
            pb *= z2b
            pb += coef
        pb *= zb
        np.tanh(pb, out=pb)          # erf(x / sqrt 2)
        cb = cdf[start : start + n] if keep_cdf else pb
        np.multiply(pb, 0.5, out=cb)
        cb += 0.5
        np.multiply(xb, cb, out=out[start : start + n])
    return out.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """GELU: x * Phi(x). Backward is Phi(x) + x * phi(x).

    Float32 runs the blocked tanh-form kernel, `_gelu32` (within 5.1e-7 of
    the exact-erf value); float64, the widened pathway of the gradient
    checks, is exact: it calls math.erf per element.
    """
    xd = x.data
    if xd.dtype == np.float32:
        # Phi(x) is kept for the backward rule when x needs a gradient:
        # outside a tape only a Parameter does, so inference never keeps it.
        out_data, cdf = _gelu32(xd, keep_cdf=x.needs_grad)
    else:
        cdf = 0.5 * (1.0 + _erf_exact(xd / math.sqrt(2.0)))
        out_data = xd * cdf

    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        gx = np.square(xd)           # g * (Phi(x) + x * phi(x)), on one buffer
        np.exp(np.multiply(gx, -0.5, out=gx), out=gx)
        gx /= math.sqrt(2.0 * math.pi)
        gx *= xd
        gx += cdf
        gx *= g
        _accum(sx, gx, own=True)

    return _result(out_data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor | None = None, beta: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine if given.

    Row sums go through `np.einsum`, which reduces each row on its own, so a
    row gets the same bits in any block, at any offset in memory.
    """
    xd = x.data
    d = xd.shape[-1]
    y = xd - np.einsum("...i->...", xd)[..., None] / d
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", y, y)[..., None] / d + LN_EPS)
    y *= inv
    gd = None if gamma is None else gamma.data
    out_data = y if gd is None else y * gd
    if gd is not None and beta is not None:
        out_data += beta.data

    def bwd(g: np.ndarray, sx: GradSlot | None, sgamma: GradSlot | None,
            sbeta: GradSlot | None) -> None:
        if gd is not None:
            if sgamma is not None:
                _accum(sgamma, _unbroadcast(g * y, sgamma.shape))
            if sbeta is not None:
                _accum(sbeta, _unbroadcast(g, sbeta.shape))
            gy = g * gd
        else:
            gy = g
        if sx is not None:
            # dx = inv * (gy - mean(gy) - y * mean(gy * y)) per row
            gx = y * (np.einsum("...i,...i->...", gy, y)[..., None] / d)
            np.subtract(gy, gx, out=gx)
            gx -= np.einsum("...i->...", gy)[..., None] / d
            gx *= inv
            _accum(sx, gx, own=True)

    return _result(out_data.astype(xd.dtype, copy=False), (x, gamma, beta), bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm below NORM_EPS map to zero-ish."""
    xd = x.data
    norms = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    n_eff = np.maximum(norms, NORM_EPS)
    y = xd / n_eff

    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        # d(x/||x||) applied to g: (g - y (y.g)) / ||x||
        _accum(sx, (g - y * (y * g).sum(axis=-1, keepdims=True)) / n_eff, own=True)

    return _result(y, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling at train time keeps expectations unchanged.
    The mask draws one float64 uniform per element of x, and no more.

    The mask is kept as booleans, and the kept values are scaled by 1 / (1 -
    rate) rounded to x's dtype, so each output and gradient element is x * s
    or a signed zero: the bits of multiplying by a float mask of s and 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    dtype = x.data.dtype.type
    s = dtype(1.0) / dtype(1.0 - rate)
    out = x.data * keep
    out *= s

    def bwd(g: np.ndarray, sx: GradSlot) -> None:
        gx = g * keep
        gx *= s
        _accum(sx, gx, own=True)

    return _result(out, (x,), bwd)


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

    def bwd(g: np.ndarray, slogits: GradSlot) -> None:
        dl = np.divide(e, z, out=e)  # softmax(logits), in the array the rule keeps
        dl[rows, t] -= 1.0
        dl *= g / n
        _accum(slogits, dl, own=True)

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


# Added to a left-out pair's score, it makes the pair weigh exactly 0 beside
# any real score. Finite, so a fully masked padded row softmaxes to finite
# weights.
_MASKED = -1e30


def _softmax(s: np.ndarray, axis: int) -> np.ndarray:
    """Softmax over `axis`, in place in s."""
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_grad(p: np.ndarray, dp: np.ndarray, axis: int) -> np.ndarray:
    """The scores' gradient p * (dp - sum(p * dp)) of softmax weights p over
    `axis`, for the weights' gradient dp, formed in place in dp."""
    dp -= (p * dp).sum(axis=axis, keepdims=True)
    dp *= p
    return dp


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (B, H, L) times b (B, H, d), (B, H, L, d): one product per element."""
    return np.einsum("bhl,bhd->bhld", a, b)


def _padded(xs: Sequence[np.ndarray], before: int, rows: int) -> np.ndarray:
    """Arrays xs of one shape (B, H, L, d), each placed at row `before` of
    `rows` zero rows: one (len(xs), B, H, rows, d) array."""
    n_seq, n_heads, length, d = xs[0].shape
    out = np.empty((len(xs), n_seq, n_heads, rows, d), dtype=xs[0].dtype)
    out[:, :, :, :before] = 0
    out[:, :, :, before + length:] = 0
    for buf, x in zip(out, xs):
        buf[:, :, before : before + length] = x
    return out


def _chunk_view(x: np.ndarray, w: int) -> np.ndarray:
    """Contiguous (B, H, C*w + 2w, d) -> (B, H, C, d, 3w) overlapping views, no copy.

    Chunk i sees rows [i*w, i*w + 3w) of x, which hold rows i*w - w ..
    i*w + 2w - 1 of a sequence that x pads by w rows on the left: the keys
    of query chunk i, or the queries that see key chunk i.
    """
    b, h, n, d = x.shape
    s0, s1, s2, s3 = x.strides
    return np.ndarray((b, h, n // w - 2, d, 3 * w), x.dtype, x, 0, (s0, s1, w * s2, s3, s2))


def _real_lengths(lengths, n_seq: int, length: int) -> np.ndarray:
    """Each sequence's real length, all `length` when None, checked to fit."""
    lengths = np.full(n_seq, length) if lengths is None else np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n_seq,) or lengths.max() > length or lengths.min() < 1:
        raise ValueError(f"lengths {lengths.tolist()} do not fit a batch of {n_seq} x {length}")
    return lengths


def _dense_rows(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, lengths: np.ndarray,
                alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Query rows qd (B, H, 1, dh) attending every real key of kd, vd (B, H, L, dh).

    Returns the output and the weights p (B, H, 1, L); keys at or past a
    sequence's length get weight 0. Counts the pairs of each real key.
    """
    s = qd @ kd.swapaxes(-1, -2)
    s *= alpha
    s += np.multiply(np.arange(kd.shape[2]) >= lengths[:, None], _MASKED,
                     dtype=s.dtype)[:, None, None]    # keys past the end weigh 0
    p = _softmax(s, axis=-1)
    attention_pairs.add(qd.shape[1] * int(lengths.sum()))
    return p @ vd, p


def _dense_rows_grad(g: np.ndarray, p: np.ndarray, kd: np.ndarray,
                     vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dq, ds) of `_dense_rows` for output gradient g (B, H, 1, dh): ds is the
    scores' gradient, so key x's gradient is ds[x] * q and its value's p[x] * g.
    dq and ds still lack the factor alpha."""
    ds = _softmax_grad(p, g @ vd.swapaxes(-1, -2), axis=-1)
    return ds @ kd, ds


def windowed_attention(q: Tensor, k: Tensor, v: Tensor, neighbor_idx: np.ndarray,
                       neighbor_valid: np.ndarray, lengths: np.ndarray | None = None) -> Tensor:
    """Sliding-window attention whose row 0, the aggregate slot, is global.

    q, k, v are (batch, heads, len, d_head). neighbor_idx / neighbor_valid
    come from `encoder.build_window_index` and are (len, 3w + 1): query rows
    are cut into chunks of w rows, and slot s of a row in chunk i holds key
    i*w - w + s, so one batched matmul against overlapping views of the
    padded keys scores every chunk at once (the sliding-chunk form of
    Longformer). The last slot holds key 0, valid only outside the row's
    window. The kernel reads w off the slot count and uses neighbor_idx, the
    slot-to-key map its views realize, only to check the layout. Row 0
    ignores its window and attends densely, and every row attends key 0, so
    the pattern is symmetric. Work is O(len * w) instead of O(len^2).

    `lengths` (batch,) gives each sequence's real length in a right-padded
    batch and defaults to the full length: keys at or past a sequence's
    length are masked, and its padded rows come out as zeros. So the index
    may also be the first len rows of one built for a longer sequence with
    the same window, as the encoder passes it: the slots it marks valid past
    a sequence's end are masked here, so they weigh exactly 0.

    `attention_pairs` is incremented by the number of scored pairs of real
    rows and keys summed over heads, which is what the linear-scaling checks
    measure. `kept_rows_attention` runs a few of these rows alone, with the
    same pairs; its row 0 goes through the same dense helpers.

    The rule keeps the padded q, k and v and the weights. Its key and value
    gradients come from the same overlapping views: chunk i of keys gets one
    product of its (w, 3w) band of score gradients, gathered from the three
    query chunks that see it, with the 3w query rows around it.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.shape != kd.shape or qd.shape != vd.shape or qd.ndim != 4:
        raise ValueError(f"attention shapes must match and be 4-D: {qd.shape}, {kd.shape}, {vd.shape}")
    n_seq, n_heads, length, d_head = qd.shape
    n_slots = neighbor_valid.shape[-1]
    w = (n_slots - 1) // 3
    if w < 1 or neighbor_valid.shape != (length, 3 * w + 1) \
            or neighbor_idx.shape != neighbor_valid.shape:
        raise ValueError(f"window index {neighbor_valid.shape} does not fit length {length}")
    n_chunks = -(-length // w)
    span = n_chunks * w
    win = 3 * w
    alpha = 1.0 / math.sqrt(d_head)

    lengths = _real_lengths(lengths, n_seq, length)

    # Scores and weights live slot-first, (S, B, H, C, w), so the softmax
    # reduces over a leading axis; matmuls read and write them through
    # (B, H, C, w, S) views. A pair left out gets _MASKED added to its score,
    # so it weighs exactly 0 (each real row keeps its own key); the rest add
    # zeros and keep their bits. `off` (S, B, 1, C, w) sums two such terms:
    # `layout` (S, C, w) leaves pairs out by the window layout, and
    # `past_end` (3w, B, C, 1) a window slot's key past its sequence's end.
    # row_local (B, 1, C, w) marks the rows the band serves: real and not row 0.
    layout = np.zeros((n_slots, span), dtype=qd.dtype)
    np.multiply(np.logical_not(neighbor_valid.T), _MASKED, out=layout[:, :length])
    layout = layout.reshape(n_slots, 1, n_chunks, w)
    key_off = np.multiply(np.arange(-w, span + w) >= lengths[:, None], _MASKED, dtype=qd.dtype)
    b0, b1 = key_off.strides
    past_end = np.ndarray((win, n_seq, n_chunks, 1), qd.dtype, key_off, 0, (b1, b0, w * b1, 0))
    off = np.empty((n_slots, n_seq, 1, n_chunks, w), dtype=qd.dtype)
    np.add(layout[:win], past_end, out=off[:win, :, 0])
    off[win] = layout[win]
    row_local = (np.arange(span) < lengths[:, None]).reshape(n_seq, 1, n_chunks, w)
    row_local[:, :, 0, 0] = False

    # q, k and v padded by w zero rows on the left, up to span + 2w rows
    qp, kp, vp = _padded((qd, kd, vd), w, span + 2 * w)
    qc = qp[:, :, w : w + span].reshape(n_seq, n_heads, n_chunks, w, d_head)
    kc = _chunk_view(kp, w)                                  # (B, H, C, dh, 3w)
    vc = _chunk_view(vp, w)
    k0, v0 = kp[:, :, w], vp[:, :, w]                        # key 0, (B, H, dh)
    s = np.empty((n_slots, n_seq, n_heads, n_chunks, w), dtype=qd.dtype)
    s_rows = s.transpose(1, 2, 3, 4, 0)
    np.matmul(qc, kc, out=s_rows[..., :win])
    np.matmul(qc, k0[:, :, None, :, None], out=s_rows[..., win:])
    s *= alpha
    s += off
    p = _softmax(s, axis=0)
    p *= row_local
    p_rows = p.transpose(1, 2, 3, 4, 0)
    out_data = (p_rows[..., :win] @ vc.swapaxes(-1, -2)).reshape(n_seq, n_heads, span, d_head)
    out_data += _outer(p[win].reshape(n_seq, n_heads, span), v0)
    out_data = out_data[:, :, :length]
    out_data[:, :, :1], p_gl = _dense_rows(qd[:, :, :1], kd, vd, lengths, alpha)
    # Rows 1 .. n - 1 of a sequence of n: its pairs within w of each other,
    # less row 0's, and key 0 from each row past w.
    m = np.minimum(lengths - 1, w)
    attention_pairs.add(n_heads * int((lengths * (2 * m + 1) - (m + 1) ** 2
                                       + np.maximum(lengths - 1 - w, 0)).sum()))

    def bwd(g: np.ndarray, sq: GradSlot | None, sk: GradSlot | None,
            sv: GradSlot | None) -> None:
        flat = (n_seq, n_heads, span, d_head)
        gp = _padded((g,), w, span + 2 * w)[0]
        gc = gp[:, :, w : w + span].reshape(n_seq, n_heads, n_chunks, w, d_head)
        dp = np.empty_like(p)
        dp_rows = dp.transpose(1, 2, 3, 4, 0)
        np.matmul(gc, vc, out=dp_rows[..., :win])
        np.matmul(gc, v0[:, :, None, :, None], out=dp_rows[..., win:])
        ds = _softmax_grad(p, dp, axis=0)
        ds_rows = ds.transpose(1, 2, 3, 4, 0)
        dq = (ds_rows[..., :win] @ kc.swapaxes(-1, -2)).reshape(n_seq, n_heads, span, d_head)
        dq += _outer(ds[win].reshape(n_seq, n_heads, span), k0)
        # Key chunk i is seen by query chunks i - 1, i and i + 1, through their
        # window slots 2w.., w.. and 0..: its band holds those score
        # gradients as (key, query row) for query rows i*w - w .. i*w + 2w - 1.
        band = np.empty((2, n_seq, n_heads, n_chunks, w, win), dtype=p.dtype)
        band[:, :, :, 0, :, :w] = 0
        band[:, :, :, -1, :, 2 * w:] = 0
        for b, x in zip(band, (ds, p)):
            x = x.transpose(1, 2, 3, 0, 4)                   # (B, H, C, slot, row)
            b[:, :, 1:, :, :w] = x[:, :, :-1, 2 * w : win]
            b[:, :, :, :, w : 2 * w] = x[:, :, :, w : 2 * w]
            b[:, :, :-1, :, 2 * w:] = x[:, :, 1:, :w]
        dk = (band[0] @ _chunk_view(qp, w).swapaxes(-1, -2)).reshape(flat)[:, :, :length]
        dv = (band[1] @ _chunk_view(gp, w).swapaxes(-1, -2)).reshape(flat)[:, :, :length]
        # key 0, seen by every row through its own slot
        row0 = (n_seq, n_heads, 1, span)
        dk[:, :, 0] += (ds[win].reshape(row0) @ qp[:, :, w : w + span])[:, :, 0]
        dv[:, :, 0] += (p[win].reshape(row0) @ gp[:, :, w : w + span])[:, :, 0]
        dq = dq[:, :, :length]
        g_gl = g[:, :, :1]
        dq_gl, ds_gl = _dense_rows_grad(g_gl, p_gl, kp[:, :, w : w + length],
                                        vp[:, :, w : w + length])
        dq[:, :, 0] += dq_gl[:, :, 0]
        dk += _outer(ds_gl[:, :, 0], qp[:, :, w])
        dv += _outer(p_gl[:, :, 0], g_gl[:, :, 0])
        dq *= alpha
        dk *= alpha
        if sq is not None:
            _accum(sq, dq, own=True)
        if sk is not None:
            _accum(sk, dk, own=True)
        if sv is not None:
            _accum(sv, dv, own=True)

    return _result(out_data, (q, k, v), bwd)


def kept_rows_attention(q: Tensor, k: Tensor, v: Tensor, seq: np.ndarray, pos: np.ndarray,
                        window: int, lengths: np.ndarray | None = None) -> Tensor:
    """The rows of `windowed_attention` an encoder keeps from its last layer,
    alone: row 0 of every sequence, then a few other rows.

    k and v are (batch, heads, len, d_head), with `lengths` as in
    `windowed_attention`. q is (batch + M, heads, d_head). Row b < batch is
    row 0 of sequence b and attends every real key of it. Row batch + m sits
    at position pos[m] >= 1 of sequence seq[m], and no two such rows share a
    place; it attends keys pos[m] - w .. pos[m] + w that lie in its
    sequence, plus key 0 when it is outside that window: the pairs
    `encoder.build_window_index` allows. Returns (batch + M, heads, d_head),
    and counts the scored pairs of every head. With M = 0 only the dense
    rows run.

    The rule keeps q, k, v and the weights, and no gathered block. Per
    sequence and head, row 0 and the window rows are the columns of two
    small matrices: their queries and output gradients, and their score
    gradients and weights at the rows of their keys. The window rows' dp,
    and dq, dk and dv, are then each one product.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 3 or kd.shape != vd.shape or kd.ndim != 4 \
            or qd.shape[0] < kd.shape[0] or qd.shape[1:] != kd.shape[1::2]:
        raise ValueError(f"kept rows attention shapes: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    n_seq, n_heads, length, d_head = kd.shape
    seq = np.asarray(seq, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    lengths = _real_lengths(lengths, n_seq, length)
    if seq.shape != (qd.shape[0] - n_seq,) or pos.shape != seq.shape or seq.size and (
            not ((seq >= 0) & (seq < n_seq)).all()
            or not ((pos >= 1) & (pos < lengths[seq])).all()
            or np.bincount(seq * length + pos).max() > 1):
        raise ValueError(f"the {qd.shape[0] - n_seq} query rows after row 0 of each sequence "
                         f"must be distinct, real and not row 0, got sequences {seq.tolist()} "
                         f"at positions {pos.tolist()}")
    alpha = 1.0 / math.sqrt(d_head)
    q_gl = qd[:n_seq, :, None]                                      # (B, H, 1, dh)
    out_gl, p_gl = _dense_rows(q_gl, kd, vd, lengths, alpha)
    out_data = out_gl[:, :, 0]
    if seq.size:
        w = max(min(window, length - 1), 1)    # a wider window changes no pair
        span = 2 * w + 1
        # Row m's slot j < 2w + 1 holds key pos[m] - w + j, and slot 2w + 1 key
        # 0; a key outside the sequence reads the sequence's nearest row, and
        # is masked.
        key = pos[:, None] + np.arange(-w, w + 1)
        mask = np.concatenate([(key >= 0) & (key < lengths[seq][:, None]),
                               (pos > w)[:, None]], axis=1)[:, None]
        slots = np.zeros((seq.size, span + 1), dtype=np.int64)
        np.minimum(np.maximum(key, 0), length - 1, out=slots[:, :span])
        slots += (seq * length)[:, None]
        q_win = qd[n_seq:]
        # The forward gathers each row's keys and values, (M, 2w + 2, H, dh)
        # each, from their (B * len, H, dh) rows, and lets them go: its
        # per-row products round as they always have.
        kc, vc = (np.take(x.transpose(0, 2, 1, 3).reshape(n_seq * length, n_heads, d_head),
                          slots, axis=0) for x in (kd, vd))
        s = (kc.transpose(0, 2, 1, 3) @ q_win[..., None])[..., 0]   # (M, H, 2w + 2)
        s *= alpha
        s += np.multiply(np.logical_not(mask), _MASKED, dtype=s.dtype)   # left-out keys weigh 0
        p = _softmax(s, axis=-1)
        out_win = (p[:, :, None] @ vc.transpose(0, 2, 1, 3))[:, :, 0]
        out_data = np.concatenate([out_data, out_win])
        attention_pairs.add(n_heads * int(np.count_nonzero(mask)))
        # column 1 + r of sequence b's matrix: its window row r, in input order
        counts = np.bincount(seq, minlength=n_seq)
        order = np.argsort(seq, kind="stable")
        col = np.empty_like(seq)
        col[order] = np.arange(1, seq.size + 1) - (np.cumsum(counts) - counts)[seq[order]]

    def bwd(g: np.ndarray, sq: GradSlot | None, sk: GradSlot | None,
            sv: GradSlot | None) -> None:
        g_gl = g[:n_seq, :, None]
        if not seq.size:
            dq, ds_gl = _dense_rows_grad(g_gl, p_gl, kd, vd)
            dq = dq[:, :, 0] * alpha
            dk = _outer(ds_gl[:, :, 0], q_gl[:, :, 0])
            dk *= alpha
            dv = _outer(p_gl[:, :, 0], g_gl[:, :, 0])
        else:
            # Per sequence and head, column 0 is row 0 and column 1 + r its
            # window row r: `rows` holds their queries and output gradients,
            # `dp` every key's value against their output gradients, and
            # `weights` their score gradients and weights. Key x is row w + x
            # of dp and weights, so each window slot has a cell, `at`: slot
            # j <= 2w row pos[m] + j, slot 2w + 1 row w (key 0).
            n_cols, padded = 1 + counts.max(), length + 2 * w
            rows = np.zeros((2, n_seq, n_heads, n_cols, d_head), dtype=qd.dtype)
            rows[0, :, :, 0], rows[1, :, :, 0] = q_gl[:, :, 0], g_gl[:, :, 0]
            rows[0, seq, :, col], rows[1, seq, :, col] = q_win, g[n_seq:]
            dp = np.zeros((n_seq, n_heads, padded, n_cols), dtype=qd.dtype)
            np.matmul(vd, rows[1].swapaxes(-1, -2), out=dp[:, :, w : w + length])
            at = np.concatenate([pos[:, None] + np.arange(span), np.full((seq.size, 1), w)], axis=1)
            at = (((seq * n_heads)[:, None, None] + np.arange(n_heads)[:, None]) * padded
                  + at[:, None]) * n_cols + col[:, None, None]               # (M, H, 2w + 2)
            ds = _softmax_grad(p, dp.reshape(-1)[at], axis=-1)
            ds *= alpha
            ds_gl = _softmax_grad(p_gl[:, :, 0], dp[:, :, w : w + length, 0], axis=-1)
            weights = np.zeros((2, n_seq, n_heads, padded, n_cols), dtype=qd.dtype)
            np.multiply(ds_gl, alpha, out=weights[0, :, :, w : w + length, 0])
            weights[1, :, :, w : w + length, 0] = p_gl[:, :, 0]
            # key 0's slot and a window slot share a cell only where key 0's
            # slot is masked, so key 0's slot adds
            wk, wv = weights.reshape(2, -1)
            cells, cell0 = at[..., :span].reshape(-1), at[..., span].reshape(-1)
            wk[cells], wv[cells] = ds[..., :span].reshape(-1), p[..., :span].reshape(-1)
            wk[cell0] += ds[..., span].reshape(-1)
            wv[cell0] += p[..., span].reshape(-1)
            weights = weights[:, :, :, w : w + length]
            dk, dv = weights @ rows
            dq = weights[0].swapaxes(-1, -2) @ kd                            # (B, H, n_cols, dh)
            dq = np.concatenate([dq[:, :, 0], dq[seq, :, col]])
        if sq is not None:
            _accum(sq, dq, own=True)
        if sk is not None:
            _accum(sk, dk, own=True)
        if sv is not None:
            _accum(sv, dv, own=True)

    return _result(out_data, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction. step() consumes and zeroes the grads."""

    def __init__(self, params: Iterable[Parameter], lr: float = 5e-5):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
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


def truncated_normal(rng: np.random.Generator, shape: tuple[int, ...],
                     dtype=DEFAULT_DTYPE) -> np.ndarray:
    """N(0, INIT_STD) redrawn until every sample lies within two deviations."""
    x = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(x) > 2.0 * INIT_STD
    while bad.any():
        x[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * INIT_STD
    return x.astype(dtype)


def init_weight(rng: np.random.Generator | None, shape: tuple[int, ...],
                dtype=DEFAULT_DTYPE) -> np.ndarray:
    """`truncated_normal` draw; without an rng, zeros for a state dict to fill."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return truncated_normal(rng, shape, dtype=dtype)
