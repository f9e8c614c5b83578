"""History encoder: config, masking pattern, forward vs dense reference."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from conftest import fd_gradcheck, scalarize
from txrec import tensor as T
from txrec.catalog import ModelBatch, ModelInput, build_model_input, item_input
from txrec.encoder import (
    Encoder,
    EncoderConfig,
    build_window_index,
    encode_rows,
    params_fingerprint,
)
from txrec.errors import DataError
from txrec.objectives import MLMHead
from txrec.rng import stream

F64 = np.float64


def _cfg(vocab_size, **kw):
    base = dict(d=8, n_layers=2, n_heads=2, window=2, ffn_dim=16,
                vocab_size=vocab_size, max_tokens=64, max_items=6, dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def _history(tiny_corpus, ids=("i0", "i3", "i5")):
    catalog, vocab, limits = tiny_corpus
    return build_model_input(list(ids), catalog, vocab, limits)


# ---------------------------------------------------------------------------
# config


def test_config_collects_all_problems_at_once():
    with pytest.raises(ValueError) as exc:
        EncoderConfig(d=7, n_heads=2, window=0, vocab_size=2)
    msg = str(exc.value)
    assert "d=7" in msg and "window=0" in msg and "vocab_size=2" in msg


def test_config_dropout_range():
    with pytest.raises(ValueError, match="dropout"):
        EncoderConfig(vocab_size=10, dropout=1.0)


def test_config_to_dict_round_trips():
    cfg = _cfg(30)
    assert EncoderConfig(**cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# attention pattern


def test_attention_mask_hand_example():
    # length 5, window 1, aggregate at 0: row 3 sees {0, 2, 3, 4}
    m = ref.allowed_pairs_ref(5, 1)
    npt.assert_array_equal(m[3], [True, False, True, True, True])
    npt.assert_array_equal(m[0], np.ones(5, dtype=bool))
    npt.assert_array_equal(m[:, 0], np.ones(5, dtype=bool))
    assert not m[1, 3]


def test_attention_mask_is_symmetric():
    for length, window in [(9, 2), (13, 3), (6, 1)]:
        m = ref.allowed_pairs_ref(length, window)
        npt.assert_array_equal(m, m.T)
        assert m.diagonal().all()


_WINDOW_CASES = [(5, 1), (12, 3), (7, 2), (15, 2), (3, 5)]


# ids name the cases as they were named when each case also chose its own
# global rows, so test reports stay comparable across versions
@pytest.mark.parametrize("length,window", _WINDOW_CASES,
                         ids=[f"{n}-{w}-global_idx{i}" for i, (n, w) in enumerate(_WINDOW_CASES)])
def test_window_index_covers_mask_exactly_once(length, window):
    idx, valid = build_window_index(length, window)
    dense = ref.allowed_pairs_ref(length, window)
    seen = np.zeros((length, length), dtype=int)
    for row in range(length):
        if row == 0:
            seen[row, :] += 1  # the kernel routes the aggregate row through the dense path
        else:
            for col, ok in zip(idx[row], valid[row]):
                if ok:
                    seen[row, col] += 1
    npt.assert_array_equal(seen, dense.astype(int))


def test_window_index_is_cached_and_frozen():
    a = build_window_index(10, 2)
    b = build_window_index(10, 2)
    assert a[0] is b[0]
    with pytest.raises(ValueError):
        a[0][0, 0] = 5


def test_encoder_builds_one_window_index_per_config():
    """Every input length, 1 to max_tokens + 1, reads one cached index: the
    one built for max_tokens + 1 rows, whose first len rows the kernel takes."""
    cfg = _cfg(12, window=3, max_tokens=40)
    enc = Encoder(cfg, stream(0, "init"))
    rng = np.random.default_rng(5)
    build_window_index.cache_clear()
    for n in range(1, cfg.max_tokens + 2):
        enc.encode(ModelInput(token_ids=rng.integers(4, 12, n), token_types=np.zeros(n, np.int64),
                              item_positions=np.zeros(n, np.int64)))
    info = build_window_index.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


# ---------------------------------------------------------------------------
# forward


def test_embed_is_normalized_sum_of_four_tables(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(0, "init"), dtype=F64)
    x = _history(tiny_corpus)
    npt.assert_allclose(enc.embed(x).data, ref.embed_ref(enc.state_dict(), x), atol=1e-12)


def test_encode_matches_masked_dense_reference(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(1, "init"), dtype=F64)
    x = _history(tiny_corpus)
    assert len(x) > 2 * enc.config.window + 1  # wide enough that the window bites
    got = enc.encode(x).data
    expected = ref.encode_ref(enc.state_dict(), enc.config, x, masked=True)
    npt.assert_allclose(got, expected, atol=1e-10)


def test_encode_equals_unmasked_dense_when_window_covers_input(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, window=64), stream(2, "init"), dtype=F64)
    x = _history(tiny_corpus, ids=("i1", "i2"))
    assert len(x) <= enc.config.window
    got = enc.encode(x).data
    expected = ref.encode_ref(enc.state_dict(), enc.config, x, masked=False)
    npt.assert_allclose(got, expected, atol=1e-10)


def test_zero_layer_encoder_is_just_the_embedding(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=0), stream(3, "init"), dtype=F64)
    x = _history(tiny_corpus)
    npt.assert_array_equal(enc.encode(x).data, enc.embed(x).data)


def test_dense_encode_is_token_permutation_equivariant(tiny_corpus):
    """With the window covering everything and the position table zeroed,
    rows are coupled only through attention, so permuting the input rows
    permutes the output rows."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, window=64), stream(4, "init"), dtype=F64)
    enc.pos_emb.data[...] = 0.0  # a position is a slot's index, which permuting keeps
    x = _history(tiny_corpus, ids=("i4", "i7"))
    perm = np.random.default_rng(5).permutation(len(x))
    xp = ModelInput(
        token_ids=x.token_ids[perm],
        token_types=x.token_types[perm],
        item_positions=x.item_positions[perm],
    )
    npt.assert_allclose(enc.encode(xp).data, enc.encode(x).data[perm], atol=1e-10)


def test_encode_is_deterministic_in_eval_mode(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(6, "init"))
    x = _history(tiny_corpus)
    npt.assert_array_equal(enc.encode(x).data, enc.encode(x).data)


def test_dropout_runs_exactly_when_an_rng_is_given(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, dropout=0.3), stream(7, "init"))
    x = _history(tiny_corpus)
    clean = enc.encode(x).data
    npt.assert_array_equal(enc.encode(x).data, clean)
    noisy = enc.encode(x, dropout_rng=stream(7, "dropout")).data
    assert np.abs(noisy - clean).max() > 1e-4


def test_sequence_and_item_repr_are_row_zero(tiny_corpus):
    """Row 0 to float roundoff: the aggregate path's (1, d) matmuls may round
    differently from the full encode's (len, d) ones."""
    catalog, vocab, limits = tiny_corpus
    for dtype, atol in ((np.float32, 1e-6), (F64, 1e-12)):
        enc = Encoder(_cfg(vocab.size), stream(8, "init"), dtype=dtype)
        for x in (_history(tiny_corpus), item_input("i2", catalog, vocab, limits)):
            r = enc.sequence_repr(x)
            assert r.shape == (enc.config.d,) and r.dtype == dtype
            npt.assert_allclose(r, enc.encode(x).data[0], rtol=0.0, atol=atol)


# ---------------------------------------------------------------------------
# padded batches


def test_model_batch_pack_pads_right_and_keeps_lengths(tiny_corpus):
    short = _history(tiny_corpus, ids=("i1",))
    long = _history(tiny_corpus)
    batch = ModelBatch.pack([short, long])
    n = len(short)
    assert batch.token_ids.shape == (2, len(long))
    npt.assert_array_equal(batch.lengths, [n, len(long)])
    npt.assert_array_equal(batch.token_ids[0, :n], short.token_ids)
    npt.assert_array_equal(batch.item_positions[1], long.item_positions)
    assert not batch.token_ids[0, n:].any() and not batch.item_positions[0, n:].any()
    with pytest.raises(ValueError, match="at least one"):
        ModelBatch.pack([])


@pytest.mark.parametrize("field", ["token_ids", "token_types", "item_positions"])
def test_model_batch_rejects_arrays_that_disagree_on_length(tiny_corpus, field):
    x, y = _history(tiny_corpus), _history(tiny_corpus, ids=("i1",))

    def with_field(m, arr):
        return ModelInput(**{**{f: getattr(m, f) for f in ModelInput.__dataclass_fields__},
                             field: arr})

    longer = with_field(x, np.append(getattr(x, field), getattr(x, field)[-1]))
    shorter = with_field(y, getattr(y, field)[:-1])
    # in the last pair one slot too many and one too few cancel out in total
    for inputs in ([longer], [x, shorter], [longer, shorter]):
        with pytest.raises(ValueError, match="model input arrays disagree on length"):
            ModelBatch.pack(inputs)


def test_embed_positions_are_slot_indices_and_padded_slots_take_0(tiny_corpus):
    """The encoder makes the positions: a real slot embeds at its index, as
    in the reference embedding of its sequence alone, and a padded slot
    embeds as an all-zero slot (PAD_ID, position, type and item slot 0)."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(20, "init"), dtype=F64)
    xs = [_history(tiny_corpus, ids) for ids in (("i0",), ("i0", "i3", "i5"), ("i2", "i7"))]
    got = enc.embed(ModelBatch.pack(xs)).data
    state = enc.state_dict()
    zero_slot = ref.embed_ref(state, ModelInput(*[np.zeros(1, dtype=np.int64)] * 3))[0]
    width = max(len(x) for x in xs)
    assert got.shape == (len(xs), width, enc.config.d)
    for b, x in enumerate(xs):
        npt.assert_allclose(got[b, : len(x)], ref.embed_ref(state, x), atol=1e-12)
        pads = got[b, len(x):]
        assert len(pads) == width - len(x)
        npt.assert_allclose(pads, np.broadcast_to(zero_slot, pads.shape), atol=1e-12)
    assert width > 2 * min(len(x) for x in xs)  # padded slots at indices far from 0


def test_encode_batch_matches_dense_reference_per_sequence(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(21, "init"), dtype=F64)
    xs = [_history(tiny_corpus, ids) for ids in (("i0",), ("i0", "i3", "i5"), ("i2", "i7"))]
    out = enc.encode(ModelBatch.pack(xs)).data
    for b, x in enumerate(xs):
        expected = ref.encode_ref(enc.state_dict(), enc.config, x, masked=True)
        npt.assert_allclose(out[b, : len(x)], expected, atol=1e-10)


def test_sequence_alone_and_next_to_a_longer_one_agree(tiny_corpus):
    """Batch invariance in float32: padding a sequence out to a longer
    batch-mate changes its rows by roundoff only."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(22, "init"))
    short = _history(tiny_corpus, ids=("i6",))
    long = _history(tiny_corpus, ids=("i0", "i3", "i5", "i1"))
    assert len(long) > len(short) + 2 * enc.config.window
    alone = enc.encode(short).data
    padded = enc.encode(ModelBatch.pack([long, short])).data[1, : len(short)]
    npt.assert_allclose(padded, alone, rtol=0.0, atol=1e-6)


def _mixed_lengths(tiny_corpus):
    """Histories of 1-4 items (10-37 tokens), one length twice, out of order."""
    ids = (("i0", "i3", "i5"), ("i6",), ("i0", "i3", "i5", "i1"), ("i2", "i7"), ("i4",))
    return [_history(tiny_corpus, h) for h in ids]


@pytest.mark.parametrize("keep", [False, True], ids=["aggregate", "kept-rows"])
@pytest.mark.parametrize("budget,n_calls", [(1, 5), (60, 3), (1024, 1)])
def test_encode_rows_keeps_to_the_budget_and_the_row_layout(tiny_corpus, monkeypatch, budget,
                                                            n_calls, keep):
    """Float32, dropout 0: each encode call is a length-sorted sub-batch within
    the token budget (one input at least), and the result is the aggregate
    rows in input order, then the kept rows input by input, each equal to
    that row of its own input's full encode."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(23, "init"))
    xs = _mixed_lengths(tiny_corpus)
    full = [enc.encode(x).data for x in xs]
    monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", budget)
    batches = []
    encode = Encoder.encode

    def recording(self, x, *args, **kwargs):
        batches.append(x)
        return encode(self, x, *args, **kwargs)

    monkeypatch.setattr(Encoder, "encode", recording)
    rows = _some_rows(xs) if keep else None
    got = encode_rows(enc, xs, rows=rows).data
    assert len(batches) == n_calls
    lengths = np.concatenate([b.lengths for b in batches])
    assert lengths.tolist() == sorted(len(x) for x in xs)  # stable, shortest first
    assert all(len(b.lengths) == 1 or b.token_ids.size <= budget for b in batches)
    want = [np.stack([f[0] for f in full])]
    if keep:
        want += [f[r] for f, r in zip(full, rows)]
    assert got.dtype == np.float32
    npt.assert_allclose(got, np.concatenate(want), rtol=0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# the aggregate-only last layer


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (F64, 1e-12)])
def test_aggregate_encode_is_row_zero_of_the_full_encode(tiny_corpus, n_layers, dtype, atol):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=n_layers), stream(25, "init"), dtype=dtype)
    xs = _mixed_lengths(tiny_corpus) + [_raw_input([1])]  # one input of length 1
    for x in xs:
        got = enc.encode(x, aggregate=True).data
        assert got.shape == (1, enc.config.d) and got.dtype == dtype
        npt.assert_allclose(got, enc.encode(x).data[:1], rtol=0.0, atol=atol)
    batch = ModelBatch.pack(xs)
    got = enc.encode(batch, aggregate=True).data
    assert got.shape == (len(xs), enc.config.d)
    npt.assert_allclose(got, enc.encode(batch).data[:, 0], rtol=0.0, atol=atol)


def test_aggregate_encode_is_differentiable(tiny_corpus):
    _, vocab, _ = tiny_corpus
    cfg = _cfg(vocab.size, d=4, n_layers=2, n_heads=2, window=1, ffn_dim=8)
    enc = Encoder(cfg, stream(28, "init"), dtype=F64)
    batch = ModelBatch.pack([_history(tiny_corpus, ids=("i2",)),
                             _history(tiny_corpus, ids=("i0", "i3"))])
    rng = np.random.default_rng(29)
    w = rng.normal(size=2 * cfg.d)
    fd_gradcheck(lambda: scalarize(enc.encode(batch, aggregate=True), w), enc.parameters(),
                 rng, coords_per_tensor=4)


class _LastLayerReplay:
    """The dropout rng of a full encode, drawing what an aggregate encode
    draws: the layers before the last draw from `rng` for every row, as both
    encodes do; the last layer's two masks draw for the flat `keep` rows
    alone, in that order, and keep every element of the other rows."""

    def __init__(self, rng, n_layers, keep):
        self.rng, self.keep, self.full_draws = rng, keep, 2 * (n_layers - 1)

    def random(self, shape):
        if self.full_draws > 0:
            self.full_draws -= 1
            return self.rng.random(shape)
        u = np.ones(shape)
        u[self.keep] = self.rng.random((len(self.keep),) + shape[1:])
        return u


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (F64, 1e-12)])
def test_aggregate_train_encode_keeps_the_dropout_stream(tiny_corpus, n_layers, dtype, atol):
    """With dropout, the aggregate rows are row 0 of the full encode when the
    full encode's last layer is handed the masks drawn for row 0, and both
    rngs end in the same state: the aggregate encode draws one uniform per
    element it drops out, and no more."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=n_layers, dropout=0.3), stream(31, "init"),
                  dtype=dtype)
    xs = _mixed_lengths(tiny_corpus)
    for x in (xs[0], ModelBatch.pack(xs)):
        n_seq, length = np.atleast_2d(x.token_ids).shape
        rng_full = _LastLayerReplay(stream(32, "dropout"), n_layers, np.arange(n_seq) * length)
        rng_agg = stream(32, "dropout")
        full = enc.encode(x, dropout_rng=rng_full).data
        got = enc.encode(x, dropout_rng=rng_agg, aggregate=True).data
        want = full[..., 0, :].reshape(-1, enc.config.d)
        assert got.shape == want.shape and got.dtype == dtype
        npt.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert np.abs(got - enc.encode(x, aggregate=True).data).max() > 1e-4  # dropout acted
        assert rng_full.rng.random() == rng_agg.random()


def test_aggregate_train_encode_gradcheck(tiny_corpus):
    """Float64 with dropout on: every evaluation reseeds the rng, so the masks
    are fixed and the finite differences see the same function."""
    _, vocab, _ = tiny_corpus
    cfg = _cfg(vocab.size, d=4, n_layers=2, n_heads=2, window=1, ffn_dim=8, dropout=0.3)
    enc = Encoder(cfg, stream(33, "init"), dtype=F64)
    batch = ModelBatch.pack([_history(tiny_corpus, ids=("i2",)),
                             _history(tiny_corpus, ids=("i0", "i3"))])
    rng = np.random.default_rng(34)
    w = rng.normal(size=2 * cfg.d)
    fd_gradcheck(lambda: scalarize(enc.encode(batch, dropout_rng=stream(35, "dropout"),
                                              aggregate=True), w),
                 enc.parameters(), rng, coords_per_tensor=4)


def test_aggregate_encode_scores_fewer_pairs(tiny_corpus):
    """The last layer scores one query row per head instead of the band."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=1), stream(30, "init"))
    x = _history(tiny_corpus)
    enc.encode(x, aggregate=True)
    assert T.attention_pairs.pairs == enc.config.n_heads * len(x)


# ---------------------------------------------------------------------------
# kept rows: the aggregate-only last layer plus named rows


def _some_rows(xs):
    """Positions to keep per input: its first and last non-aggregate rows and
    one in between, none for an input of one token."""
    return [np.unique([1, len(x) // 2, len(x) - 1]) if len(x) > 1
            else np.array([], dtype=np.int64) for x in xs]


def _kept(full, rows):
    """Row 0 of each sequence of a full (B, len, d) encode, then its `rows`."""
    return np.concatenate([full[:, 0]] + [full[b, r] for b, r in enumerate(rows)])


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (F64, 1e-12)])
def test_kept_rows_encode_is_those_rows_of_the_full_encode(tiny_corpus, n_layers, dtype, atol):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=n_layers), stream(36, "init"), dtype=dtype)
    xs = _mixed_lengths(tiny_corpus) + [_raw_input([1])]
    rows = _some_rows(xs)
    batch = ModelBatch.pack(xs)
    got = enc.encode(batch, aggregate=True, rows=rows).data
    assert got.shape == (len(xs) + sum(map(len, rows)), enc.config.d) and got.dtype == dtype
    npt.assert_allclose(got, _kept(enc.encode(batch).data, rows), rtol=0.0, atol=atol)
    one = enc.encode(xs[0], aggregate=True, rows=rows[:1]).data  # a single input
    npt.assert_allclose(one, _kept(enc.encode(xs[0]).data[None], rows[:1]), rtol=0.0, atol=atol)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("every", [False, True], ids=["some-rows", "every-row"])
def test_kept_rows_leave_the_aggregate_rows_bit_for_bit(tiny_corpus, n_layers, dtype, every):
    """The last layer's one gather, Q projection and attention call give the
    aggregate rows the bits of an aggregate-only encode, however many rows
    ride along."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=n_layers), stream(45, "init"), dtype=dtype)
    xs = _mixed_lengths(tiny_corpus) + [_raw_input([1])]
    rows = [np.arange(1, len(x)) for x in xs] if every else _some_rows(xs)
    batch = ModelBatch.pack(xs)
    got = enc.encode(batch, aggregate=True, rows=rows).data[: len(xs)]
    assert got.tobytes() == enc.encode(batch, aggregate=True).data.tobytes()


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (F64, 1e-12)])
def test_kept_rows_train_encode_keeps_the_dropout_stream(tiny_corpus, n_layers, dtype, atol):
    """With dropout, the kept rows are those rows of the full encode when the
    full encode's last layer is handed the masks drawn for the kept rows, and
    both rngs end in the same state."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=n_layers, dropout=0.3), stream(37, "init"),
                  dtype=dtype)
    xs = _mixed_lengths(tiny_corpus)
    rows = _some_rows(xs)
    batch = ModelBatch.pack(xs)
    n_seq, length = batch.token_ids.shape
    keep = np.concatenate([np.arange(n_seq) * length] + [b * length + r for b, r in enumerate(rows)])
    rng_full, rng_kept = _LastLayerReplay(stream(38, "dropout"), n_layers, keep), stream(38, "dropout")
    full = enc.encode(batch, dropout_rng=rng_full).data
    got = enc.encode(batch, dropout_rng=rng_kept, aggregate=True, rows=rows).data
    assert got.dtype == dtype
    npt.assert_allclose(got, _kept(full, rows), rtol=0.0, atol=atol)
    assert np.abs(got - enc.encode(batch, aggregate=True, rows=rows).data).max() > 1e-4
    assert rng_full.rng.random() == rng_kept.random()


def test_kept_rows_train_encode_gradcheck(tiny_corpus):
    """Float64 with dropout on: every evaluation reseeds the rng, so the masks
    are fixed and the finite differences see the same function."""
    _, vocab, _ = tiny_corpus
    cfg = _cfg(vocab.size, d=4, n_layers=2, n_heads=2, window=1, ffn_dim=8, dropout=0.3)
    enc = Encoder(cfg, stream(39, "init"), dtype=F64)
    xs = [_history(tiny_corpus, ids=("i2",)), _history(tiny_corpus, ids=("i0", "i3"))]
    rows = [np.array([1, len(xs[0]) - 1]), np.array([2, 3, 9])]
    batch = ModelBatch.pack(xs)
    rng = np.random.default_rng(40)
    w = rng.normal(size=(2 + 5) * cfg.d)
    fd_gradcheck(lambda: scalarize(enc.encode(batch, dropout_rng=stream(41, "dropout"),
                                              aggregate=True, rows=rows), w),
                 enc.parameters(), rng, coords_per_tensor=4)


def test_kept_rows_encode_scores_only_their_pairs(tiny_corpus):
    """One layer: row 0 scores every real key, each kept row its window."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=1), stream(42, "init"))
    x = _history(tiny_corpus)
    rows = _some_rows([x])
    enc.encode(x, aggregate=True, rows=rows)
    allowed = ref.allowed_pairs_ref(len(x), enc.config.window)
    assert T.attention_pairs.pairs == enc.config.n_heads * (len(x) + int(allowed[rows[0]].sum()))


def test_kept_rows_encode_rejects_rows_it_cannot_keep(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(44, "init"))
    batch = ModelBatch.pack(_mixed_lengths(tiny_corpus)[:2])   # 28 and 10 tokens
    with pytest.raises(ValueError, match="aggregate=True"):
        enc.encode(batch, rows=[np.array([1]), np.array([1])])
    with pytest.raises(ValueError, match="one array per input"):
        enc.encode(batch, aggregate=True, rows=[np.array([1])])
    for bad in ([0], [10]):
        with pytest.raises(ValueError, match="1 .. len - 1"):
            enc.encode(batch, aggregate=True, rows=[np.array([1]), np.array(bad)])


# ---------------------------------------------------------------------------
# gradients


def test_gradient_reaches_every_parameter(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, n_layers=1), stream(9, "init"), dtype=F64)
    x = _history(tiny_corpus, ids=("i0", "i1"))
    rng = np.random.default_rng(10)
    w = rng.normal(size=len(x) * enc.config.d)
    with T.GradTape() as tape:
        loss = scalarize(enc.encode(x), w)
    tape.backward(loss)
    for p in enc.parameters():
        assert np.abs(p.grad).max() > 0.0, f"no gradient reached {p.name}"
    # embedding rows never looked up stay untouched
    unused = [i for i in range(vocab.size) if i not in set(x.token_ids.tolist())]
    assert np.abs(enc.token_emb.grad[unused]).max() == 0.0


def test_encoder_gradcheck_small(tiny_corpus):
    _, vocab, _ = tiny_corpus
    cfg = _cfg(vocab.size, d=4, n_layers=1, n_heads=1, window=1, ffn_dim=8)
    enc = Encoder(cfg, stream(11, "init"), dtype=F64)
    x = _history(tiny_corpus, ids=("i2",))
    rng = np.random.default_rng(12)
    w = rng.normal(size=len(x) * cfg.d)
    fd_gradcheck(lambda: scalarize(enc.encode(x), w), enc.parameters(), rng,
                 coords_per_tensor=4)


# ---------------------------------------------------------------------------
# input validation


def _raw_input(ids, types=None, item_pos=None):
    n = len(ids)
    return ModelInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        token_types=np.asarray(types if types is not None else [0] * n, dtype=np.int64),
        item_positions=np.asarray(item_pos if item_pos is not None else [0] * n,
                                  dtype=np.int64),
    )


def test_encoder_rejects_bad_inputs(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, max_tokens=4, max_items=2), stream(13, "init"))
    with pytest.raises(DataError, match="exceeds"):
        enc.encode(_raw_input([1, 4, 4, 4, 4, 4]))
    with pytest.raises(DataError, match="vocab"):
        enc.encode(_raw_input([1, vocab.size]))
    with pytest.raises(DataError, match="item position"):
        enc.encode(_raw_input([1, 4], item_pos=[0, 3]))
    with pytest.raises(ValueError, match="length"):
        enc.encode(_raw_input([1, 4], types=[0]))


# ---------------------------------------------------------------------------
# state and identity


def test_state_dict_round_trip_gives_identical_encodings(tiny_corpus):
    _, vocab, _ = tiny_corpus
    a = Encoder(_cfg(vocab.size), stream(14, "init"))
    b = Encoder(_cfg(vocab.size), stream(15, "init"))
    x = _history(tiny_corpus)
    assert np.abs(a.encode(x).data - b.encode(x).data).max() > 0
    b.load_state_dict(a.state_dict())
    npt.assert_array_equal(a.encode(x).data, b.encode(x).data)


def test_load_state_dict_errors(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(16, "init"))
    state = enc.state_dict()
    missing = {k: v for k, v in state.items() if k != "emb.token"}
    with pytest.raises(KeyError, match="emb.token"):
        enc.load_state_dict(missing)
    bad = dict(state)
    bad["emb.type"] = np.zeros((5, 5), dtype=np.float32)
    with pytest.raises(ValueError, match="emb.type"):
        enc.load_state_dict(bad)


def test_encoder_and_head_without_an_rng_draw_nothing_and_load_a_state(tiny_corpus,
                                                                       monkeypatch):
    _, vocab, _ = tiny_corpus
    seeded = Encoder(_cfg(vocab.size), stream(20, "init"))
    seeded_head = MLMHead(8, vocab.size, rng=stream(20, "init"))
    monkeypatch.setattr(T, "truncated_normal", lambda *a, **k: pytest.fail("random draw"))
    blank, head = Encoder(_cfg(vocab.size), rng=None), MLMHead(8, vocab.size, rng=None)
    for mine, theirs in ((blank, seeded), (head, seeded_head)):
        assert [(p.name, p.data.shape, p.data.dtype) for p in mine.parameters()] == \
               [(p.name, p.data.shape, p.data.dtype) for p in theirs.parameters()]
        assert not any(p.data.any() for p in mine.parameters() if "gamma" not in p.name)
        mine.load_state_dict(theirs.state_dict())
    x = _history(tiny_corpus)
    npt.assert_array_equal(blank.encode(x).data, seeded.encode(x).data)
    npt.assert_array_equal(head.w_out.data, seeded_head.w_out.data)


def test_params_fingerprint_tracks_content(tiny_corpus):
    _, vocab, _ = tiny_corpus
    a = Encoder(_cfg(vocab.size), stream(17, "init"))
    b = Encoder(_cfg(vocab.size), stream(17, "init"))
    c = Encoder(_cfg(vocab.size), stream(18, "init"))
    fa, fb, fc = (params_fingerprint(e.parameters()) for e in (a, b, c))
    assert fa == fb != fc
    assert len(fa) == 16 and all(ch in "0123456789abcdef" for ch in fa)


def test_same_seed_gives_identical_initialization(tiny_corpus):
    _, vocab, _ = tiny_corpus
    a = Encoder(_cfg(vocab.size), stream(19, "init"))
    b = Encoder(_cfg(vocab.size), stream(19, "init"))
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa.data, pb.data)


# ---------------------------------------------------------------------------
# cost scaling


def test_attention_pair_count_grows_linearly_in_length(tiny_corpus):
    _, vocab, _ = tiny_corpus
    cfg = _cfg(vocab.size, n_layers=1, window=4, max_tokens=1024)
    enc = Encoder(cfg, stream(20, "init"))
    counts = []
    for length in (64, 128, 192):
        x = _raw_input([1] + [4] * (length - 1))
        T.attention_pairs.reset()
        enc.encode(x)
        counts.append(T.attention_pairs.pairs)
    # exactly linear once the window is interior: equal second difference
    assert counts[2] - counts[1] == counts[1] - counts[0]
    assert counts[1] > counts[0] > 0
