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
    aggregate_rows,
    build_window_index,
    encode_batches,
    params_fingerprint,
)
from txrec.errors import DataError
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
    m = ref.allowed_pairs_ref(5, 1, (0,))
    npt.assert_array_equal(m[3], [True, False, True, True, True])
    npt.assert_array_equal(m[0], np.ones(5, dtype=bool))
    npt.assert_array_equal(m[:, 0], np.ones(5, dtype=bool))
    assert not m[1, 3]


def test_attention_mask_is_symmetric():
    for length, window, g in [(9, 2, (0,)), (13, 3, (0, 4)), (6, 1, ())]:
        m = ref.allowed_pairs_ref(length, window, g)
        npt.assert_array_equal(m, m.T)
        assert m.diagonal().all()


@pytest.mark.parametrize("length,window,global_idx", [
    (5, 1, (0,)), (12, 3, (0,)), (7, 2, ()), (15, 2, (0, 6)), (3, 5, (0,)),
])
def test_window_index_covers_mask_exactly_once(length, window, global_idx):
    idx, valid = build_window_index(length, window, global_idx)
    dense = ref.allowed_pairs_ref(length, window, global_idx)
    is_global = np.zeros(length, dtype=bool)
    is_global[list(global_idx)] = True
    seen = np.zeros((length, length), dtype=int)
    for row in range(length):
        if is_global[row]:
            seen[row, :] += 1  # kernel routes these rows through the dense path
        else:
            for col, ok in zip(idx[row], valid[row]):
                if ok:
                    seen[row, col] += 1
    npt.assert_array_equal(seen, dense.astype(int))


def test_window_index_is_cached_and_frozen():
    a = build_window_index(10, 2, (0,))
    b = build_window_index(10, 2, (0,))
    assert a[0] is b[0]
    with pytest.raises(ValueError):
        a[0][0, 0] = 5


def test_window_index_rejects_global_out_of_range():
    with pytest.raises(ValueError, match="global index 9"):
        build_window_index(5, 2, (9,))


# ---------------------------------------------------------------------------
# forward


def test_embed_is_normalized_sum_of_four_tables(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(0, "init"), dtype=F64)
    x = _history(tiny_corpus)
    got = enc.embed(x).data
    state = enc.state_dict()
    e = (state["emb.token"][x.token_ids] + state["emb.pos"][x.token_positions]
         + state["emb.type"][x.token_types] + state["emb.item"][x.item_positions])
    expected = ref.layer_norm_ref(e, state["emb.ln.gamma"], state["emb.ln.beta"])
    npt.assert_allclose(got, expected, atol=1e-12)


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
    """With the window covering everything, rows are coupled only through
    attention, so permuting the input rows permutes the output rows."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, window=64), stream(4, "init"), dtype=F64)
    x = _history(tiny_corpus, ids=("i4", "i7"))
    perm = np.random.default_rng(5).permutation(len(x))
    xp = ModelInput(
        token_ids=x.token_ids[perm],
        token_positions=x.token_positions[perm],
        token_types=x.token_types[perm],
        item_positions=x.item_positions[perm],
        global_mask=x.global_mask[perm],
    )
    npt.assert_allclose(enc.encode(xp).data, enc.encode(x).data[perm], atol=1e-10)


def test_encode_is_deterministic_in_eval_mode(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(6, "init"))
    x = _history(tiny_corpus)
    npt.assert_array_equal(enc.encode(x).data, enc.encode(x).data)


def test_train_mode_dropout_needs_rng_and_perturbs(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size, dropout=0.3), stream(7, "init"))
    x = _history(tiny_corpus)
    with pytest.raises(ValueError, match="rng"):
        enc.encode(x, train=True)
    noisy = enc.encode(x, train=True, dropout_rng=stream(7, "dropout")).data
    clean = enc.encode(x).data
    assert np.abs(noisy - clean).max() > 1e-4


def test_sequence_and_item_repr_are_row_zero(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(8, "init"))
    x = _history(tiny_corpus)
    npt.assert_array_equal(enc.sequence_repr(x), enc.encode(x).data[0])
    r = enc.sequence_repr(item_input("i2", catalog, vocab, limits))
    assert r.shape == (enc.config.d,)


# ---------------------------------------------------------------------------
# padded batches


def test_model_batch_pack_pads_right_and_keeps_lengths(tiny_corpus):
    short = _history(tiny_corpus, ids=("i1",))
    long = _history(tiny_corpus)
    batch = ModelBatch.pack([short, long])
    n = len(short)
    assert batch.token_ids.shape == (2, len(long))
    npt.assert_array_equal(batch.lengths, [n, len(long)])
    assert batch.global_idx == (0,)
    npt.assert_array_equal(batch.token_ids[0, :n], short.token_ids)
    npt.assert_array_equal(batch.item_positions[1], long.item_positions)
    assert not batch.token_ids[0, n:].any() and not batch.token_positions[0, n:].any()


def test_model_batch_rejects_mixed_global_positions(tiny_corpus):
    x = _history(tiny_corpus)
    moved = ModelInput(x.token_ids, x.token_positions, x.token_types, x.item_positions,
                       np.roll(x.global_mask, 1))
    with pytest.raises(ValueError, match="global"):
        ModelBatch.pack([x, moved])
    with pytest.raises(ValueError, match="at least one"):
        ModelBatch.pack([])


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


def test_encode_batches_keeps_to_the_token_budget(tiny_corpus, monkeypatch):
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(23, "init"))
    xs = _mixed_lengths(tiny_corpus)
    lengths = [len(x) for x in xs]
    for budget, n_calls in ((1, 5), (60, 3), (1024, 1)):
        monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", budget)
        batches = list(encode_batches(enc, xs))
        assert len(batches) == n_calls
        members = np.concatenate([m for m, _ in batches])
        assert sorted(members.tolist()) == list(range(len(xs)))  # each input once
        assert [lengths[i] for i in members] == sorted(lengths)  # stable, shortest first
        for m, h in batches:
            assert h.data.shape == (len(m), max(lengths[i] for i in m), enc.config.d)
            assert len(m) == 1 or h.data.shape[0] * h.data.shape[1] <= budget


def test_aggregate_rows_do_not_depend_on_batch_mates_or_budget(tiny_corpus, monkeypatch):
    """Float32, dropout 0: each input's row is row 0 of its own single encode,
    whether it shares one call with every other input (the default budget)
    or sits alone (a budget of one token)."""
    _, vocab, _ = tiny_corpus
    enc = Encoder(_cfg(vocab.size), stream(24, "init"))
    xs = _mixed_lengths(tiny_corpus)
    alone = np.stack([enc.encode(x).data[0] for x in xs])
    together = aggregate_rows(encode_batches(enc, xs)).data
    monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", 1)
    one_per_call = aggregate_rows(encode_batches(enc, xs)).data
    assert together.dtype == np.float32
    npt.assert_allclose(together, alone, rtol=0.0, atol=1e-6)
    npt.assert_allclose(one_per_call, alone, rtol=0.0, atol=1e-6)


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


def _raw_input(ids, positions=None, types=None, item_pos=None):
    n = len(ids)
    return ModelInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        token_positions=np.asarray(positions if positions is not None else range(n),
                                   dtype=np.int64),
        token_types=np.asarray(types if types is not None else [0] * n, dtype=np.int64),
        item_positions=np.asarray(item_pos if item_pos is not None else [0] * n,
                                  dtype=np.int64),
        global_mask=np.asarray([True] + [False] * (n - 1)),
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
        enc.encode(ModelInput(
            token_ids=np.array([1, 4], dtype=np.int64),
            token_positions=np.array([0], dtype=np.int64),
            token_types=np.array([0, 1], dtype=np.int64),
            item_positions=np.array([0, 1], dtype=np.int64),
            global_mask=np.array([True, False]),
        ))


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
