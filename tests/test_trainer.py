"""Training loops: catalog encoding, early stopping, and the two-stage procedure."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from conftest import fd_gradcheck
from txrec import tensor as T
from txrec.catalog import InteractionSequence, build_model_input, item_input
from txrec.encoder import (Encoder, EncoderConfig, aggregate_rows, encode_batches,
                           params_fingerprint)
from txrec.errors import CatalogError, NonFiniteLossError
from txrec.evaluator import leave_one_out
from txrec.objectives import (LossConfig, MLMHead, apply_masking_plan, finetune_loss,
                              iic_inbatch_loss, make_masking_plan, pooled_mlm_loss,
                              pretrain_loss)
from txrec.rng import stream
from txrec.trainer import (
    FinetuneResult,
    ItemFeatureMatrix,
    TrainConfig,
    _pretrain_batch_loss,
    early_stop,
    encode_all_items,
    finetune_examples,
    load_state,
    pretrain,
    pretrain_examples,
    save_state,
    two_stage_finetune,
)


def _encoder(vocab, seed=0, **kw):
    base = dict(d=8, n_layers=1, n_heads=2, window=4, ffn_dim=16,
                vocab_size=vocab.size, max_tokens=64, max_items=6, dropout=0.0)
    base.update(kw)
    return Encoder(EncoderConfig(**base), stream(seed, "init"))


def _sequences():
    """Brand-consistent histories over the tiny corpus (i0,i4 share a brand, etc.)."""
    seqs = []
    for u in range(16):
        a, b = u % 4, u % 4 + 4
        items = [f"i{a}", f"i{b}", f"i{a}", f"i{b}"] if u % 2 else [f"i{b}", f"i{a}", f"i{b}", f"i{a}"]
        seqs.append(InteractionSequence(f"u{u}", tuple(items)))
    return seqs


# ---------------------------------------------------------------------------
# config and helpers


def test_train_config_collects_problems():
    with pytest.raises(ValueError) as exc:
        TrainConfig(n_epochs=0, lr=-1.0, patience=0)
    msg = str(exc.value)
    assert "n_epochs" in msg and "lr" in msg and "patience" in msg


def test_early_stop_contract():
    # no new maximum in the last `patience` entries -> stop
    assert early_stop([0.1, 0.2, 0.19, 0.18, 0.17, 0.16, 0.15], patience=5) is True
    assert early_stop([0.1, 0.2, 0.3, 0.4, 0.5], patience=3) is False
    assert early_stop([0.5, 0.4], patience=5) is False  # shorter than patience
    assert early_stop([0.3, 0.1, 0.2], patience=2) is True
    assert early_stop([0.1, 0.3, 0.2], patience=2) is False
    assert early_stop([], patience=1) is False
    with pytest.raises(ValueError):
        early_stop([0.1], patience=0)


def test_save_load_state_round_trip(tiny_corpus):
    _, vocab, _ = tiny_corpus
    enc = _encoder(vocab)
    state = save_state(enc.parameters())
    enc.token_emb.data[...] = 0.0
    load_state(enc.parameters(), state)
    assert np.abs(enc.token_emb.data).max() > 0
    state["emb.token"][...] = -1.0  # saved copies are detached from the params
    assert enc.token_emb.data.max() != -1.0


# ---------------------------------------------------------------------------
# item feature matrix


def test_item_feature_matrix_index_and_copy():
    m = ItemFeatureMatrix(["a", "b"], np.arange(4.0).reshape(2, 2), "fp")
    assert m.index_of("b") == 1
    assert m.index == {"a": 0, "b": 1}
    c = m.copy()
    c.rows[0, 0] = 99.0
    assert m.rows[0, 0] == 0.0
    with pytest.raises(ValueError, match="unique"):
        ItemFeatureMatrix(["a", "a"], np.zeros((2, 2)), "fp")
    with pytest.raises(ValueError, match="rows"):
        ItemFeatureMatrix(["a"], np.zeros((2, 2)), "fp")


def test_encode_all_items_matches_per_item_encoding(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=1)
    m = encode_all_items(enc, catalog, vocab, limits)
    assert m.ids == catalog.ids
    for i, iid in enumerate(m.ids):
        npt.assert_array_equal(m.rows[i], enc.sequence_repr(item_input(iid, catalog, vocab, limits)))
    assert m.fingerprint == params_fingerprint(enc.parameters())


def test_encode_all_items_rejects_empty_catalog(tiny_corpus):
    from txrec.catalog import Catalog
    _, vocab, limits = tiny_corpus
    with pytest.raises(ValueError, match="empty"):
        encode_all_items(_encoder(vocab), Catalog([]), vocab, limits)


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_examples_skip_rules(tiny_corpus):
    catalog, _, _ = tiny_corpus
    seqs = [
        InteractionSequence("u1", ("i0", "i1", "i2")),
        InteractionSequence("u2", ("i3",)),            # too short
    ]
    ex = pretrain_examples(seqs, catalog)
    assert ex == [(("i0", "i1"), "i2")]
    for unknown in (("i0", "missing", "gone"), ("missing",)):  # long or short
        with pytest.raises(CatalogError, match="^unknown item id 'missing'$"):
            pretrain_examples(seqs + [InteractionSequence("u3", unknown)], catalog)


def test_pretrain_loss_decreases(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=3)
    head = MLMHead(8, vocab.size, stream(3, "init"))
    cfg = TrainConfig(n_epochs=8, pretrain_batch=8, lr=3e-3, seed=0)
    history = pretrain(_sequences(), catalog, vocab, enc, head, cfg,
                       LossConfig(temperature=0.1, mlm_weight=0.1), limits)
    assert len(history) == 8
    assert min(r["loss"] for r in history[-3:]) < history[0]["loss"]
    for r in history:
        assert r["stage"] == "pretrain"
        assert set(r) == {"stage", "epoch", "loss", "iic", "mlm",
                          "valid_metric", "snapshot_taken"}
        assert r["mlm"] > 0.0


def test_pretrain_identical_seeds_identical_curves(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    cfg = TrainConfig(n_epochs=3, pretrain_batch=4, lr=1e-3, seed=11)
    runs = []
    for _ in range(2):
        enc = _encoder(vocab, seed=5)
        head = MLMHead(8, vocab.size, stream(5, "init"))
        runs.append((pretrain(_sequences(), catalog, vocab, enc, head, cfg,
                              LossConfig(), limits),
                     params_fingerprint(enc.parameters() + head.parameters())))
    assert runs[0][0] == runs[1][0]      # float-for-float identical records
    assert runs[0][1] == runs[1][1]      # bit-identical final parameters


def test_pretrain_without_mlm_leaves_head_untouched(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=6)
    head = MLMHead(8, vocab.size, stream(6, "init"))
    before = save_state(head.parameters())
    cfg = TrainConfig(n_epochs=2, pretrain_batch=8, lr=1e-3, seed=0)
    history = pretrain(_sequences(), catalog, vocab, enc, head, cfg,
                       LossConfig(mlm_weight=0.0), limits)
    for r in history:
        assert r["mlm"] == 0.0
        assert r["loss"] == r["iic"]
    for p in head.parameters():
        npt.assert_array_equal(p.data, before[p.name])


def test_pretrain_reports_validation_loss(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=7)
    head = MLMHead(8, vocab.size, stream(7, "init"))
    seqs = _sequences()
    cfg = TrainConfig(n_epochs=2, pretrain_batch=8, lr=1e-3, seed=0)
    logged = []
    history = pretrain(seqs[4:], catalog, vocab, enc, head, cfg, LossConfig(),
                       limits, valid_sequences=seqs[:4], log_fn=logged.append)
    assert all(isinstance(r["valid_metric"], float) for r in history)
    assert logged == history


def test_pretrain_rejects_unusable_data(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab)
    head = MLMHead(8, vocab.size, stream(0, "init"))
    with pytest.raises(ValueError, match="no usable"):
        pretrain([InteractionSequence("u", ("i0",))], catalog, vocab, enc, head,
                 TrainConfig(), LossConfig(), limits)


def test_pretrain_stops_on_non_finite_loss(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab)
    head = MLMHead(8, vocab.size, stream(0, "init"))
    enc.token_emb.data[...] = np.nan
    before = save_state(head.parameters())
    cfg = TrainConfig(n_epochs=2, pretrain_batch=8, lr=1e-3, seed=0)
    with pytest.raises(NonFiniteLossError,
                       match=r"^non-finite loss nan at pretrain epoch 1 batch 1$"):
        pretrain(_sequences(), catalog, vocab, enc, head, cfg, LossConfig(), limits)
    for p in head.parameters():  # no step was taken with the bad loss
        npt.assert_array_equal(p.data, before[p.name])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_finetune_stops_on_non_finite_loss(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab)
    enc.parameters()[-1].data[...] = np.inf
    cfg = TrainConfig(n_epochs=2, finetune_batch=8, lr=1e-3, seed=0)
    with pytest.raises(NonFiniteLossError,
                       match=r"^non-finite loss nan at batch 1 of finetune stage 1 epoch 1$"):
        two_stage_finetune(leave_one_out(_sequences()), catalog, vocab, enc, cfg,
                           LossConfig(), limits)


# ---------------------------------------------------------------------------
# batched losses: one encode path, whatever the token budget


def _mixed_examples():
    """(prefix, positive) pairs whose prefixes hold 1-4 items (10-37 tokens)."""
    return [(("i0",), "i4"), (("i1", "i5", "i1"), "i5"), (("i2", "i6"), "i2"),
            (("i3", "i7", "i3", "i7"), "i3"), (("i4",), "i0")]


def _batch_loss(objective, tiny_corpus, enc, head):
    """A builder of the pretrain or finetune loss of one batch, and its parameters."""
    catalog, vocab, limits = tiny_corpus
    examples = _mixed_examples()
    if objective == "pretrain":
        loss_cfg = LossConfig(temperature=0.1, mlm_weight=0.5)
        return (lambda: _pretrain_batch_loss(examples, catalog, vocab, enc, head, loss_cfg,
                                             limits, stream(4, "mask"), None, train=True)[0],
                enc.parameters() + head.parameters())
    xs = [build_model_input(prefix, catalog, vocab, limits) for prefix, _ in examples]
    pos = np.array([catalog.ids.index(p) for _, p in examples])
    rows = np.random.default_rng(5).normal(size=(len(catalog), enc.config.d)).astype(
        enc.token_emb.data.dtype)
    return (lambda: finetune_loss(aggregate_rows(encode_batches(enc, xs, train=True)),
                                  pos, rows, 0.1),
            enc.parameters())


def _loss_and_grads(build, params):
    for p in params:
        p.grad = None
    with T.GradTape() as tape:
        loss = build()
    tape.backward(loss)
    return float(loss.data), [p.grad.copy() for p in params]


@pytest.mark.parametrize("objective", ["pretrain", "finetune"])
def test_batch_loss_gradients_do_not_depend_on_the_token_budget(tiny_corpus, monkeypatch,
                                                                 objective):
    """Float32, dropout 0: a budget of one token encodes every sequence alone,
    the default budget encodes the batch in one call. Loss and gradients agree
    to 1e-6, relative to each tensor's largest gradient (some reach ~40,
    where one float32 step is ~4e-6)."""
    _, vocab, _ = tiny_corpus
    enc = _encoder(vocab, seed=12)
    head = MLMHead(8, vocab.size, stream(12, "init"))
    build, params = _batch_loss(objective, tiny_corpus, enc, head)
    loss, grads = _loss_and_grads(build, params)
    monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", 1)
    loss_alone, grads_alone = _loss_and_grads(build, params)
    assert abs(loss_alone - loss) <= 1e-6
    for p, g, g_alone in zip(params, grads, grads_alone):
        assert g.dtype == np.float32
        npt.assert_allclose(g_alone, g, rtol=0.0, atol=1e-6 * max(np.abs(g).max(), 1.0),
                            err_msg=p.name)


def test_pretrain_batch_loss_gradcheck(tiny_corpus, monkeypatch):
    """Float64 over three sub-batches: the gathers that put aggregate rows and
    hidden states back in input order carry the right gradient."""
    _, vocab, _ = tiny_corpus
    monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", 60)
    cfg = EncoderConfig(d=4, n_layers=1, n_heads=1, window=2, ffn_dim=8,
                        vocab_size=vocab.size, max_tokens=64, max_items=6, dropout=0.0)
    rng = stream(13, "init")
    enc = Encoder(cfg, rng, dtype=np.float64)
    head = MLMHead(4, vocab.size, rng, dtype=np.float64)
    build, params = _batch_loss("pretrain", tiny_corpus, enc, head)
    fd_gradcheck(build, params, np.random.default_rng(14), coords_per_tensor=4)


@pytest.mark.parametrize("objective", ["pretrain", "finetune"])
def test_batch_loss_matches_one_encode_per_example(tiny_corpus, monkeypatch, objective):
    """Float64 over three sub-batches: the batched loss equals the loss built
    from one `encode` call per sequence, so every row and every hidden state
    lands with its own example."""
    catalog, vocab, limits = tiny_corpus
    monkeypatch.setattr("txrec.encoder.ENCODE_BATCH_TOKENS", 60)
    cfg = EncoderConfig(d=8, n_layers=1, n_heads=2, window=2, ffn_dim=16,
                        vocab_size=vocab.size, max_tokens=64, max_items=6, dropout=0.0)
    rng = stream(15, "init")
    enc = Encoder(cfg, rng, dtype=np.float64)
    head = MLMHead(8, vocab.size, rng, dtype=np.float64)
    build, _ = _batch_loss(objective, tiny_corpus, enc, head)
    examples = _mixed_examples()
    xs = [build_model_input(prefix, catalog, vocab, limits) for prefix, _ in examples]
    if objective == "pretrain":
        mask_rng = stream(4, "mask")
        plans = [make_masking_plan(x, vocab.size, mask_rng) for x in xs]
        hiddens = [enc.encode(apply_masking_plan(x, plan)) for x, plan in zip(xs, plans)]
        seqs = T.stack_rows([T.take_row(h, 0) for h in hiddens])
        items = T.stack_rows([T.take_row(enc.encode(item_input(pos, catalog, vocab, limits)), 0)
                              for _, pos in examples])
        want = float(pretrain_loss(iic_inbatch_loss(seqs, items, 0.1),
                                   pooled_mlm_loss(hiddens, plans, head), 0.5).data)
    else:
        rows = np.random.default_rng(5).normal(size=(len(catalog), cfg.d))
        want = np.mean([float(finetune_loss(T.take_row(enc.encode(x), 0),
                                            catalog.ids.index(pos), rows, 0.1).data)
                        for x, (_, pos) in zip(xs, examples)])
    assert abs(float(build().data) - want) < 1e-10


# ---------------------------------------------------------------------------
# two-stage finetuning (scripted)


def _scripted_run(tiny_corpus, stage1, stage2, patience=2, incoming_probe=None):
    """Run two_stage_finetune with a no-train stamp and scripted validation.

    The train fn stamps `stage*100 + epoch` into one parameter row, so the
    parameter state at any snapshot is recognizable. Returns the result, the
    per-(stage, epoch) log, and the matrices seen by evaluate.
    """
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=8)
    scripts = {1: list(stage1), 2: list(stage2)}
    seen = {}

    def train_fn(stage, epoch, encoder, matrix):
        encoder.emb_ln_b.data[...] = float(stage * 100 + epoch)

    def evaluate_fn(stage, epoch, encoder, matrix):
        seen[(stage, epoch)] = matrix
        return scripts[stage][epoch - 1]

    split = leave_one_out(_sequences())
    cfg = TrainConfig(n_epochs=max(len(stage1), len(stage2), 1), patience=patience,
                      lr=1e-3, seed=0)
    result = two_stage_finetune(split, catalog, vocab, enc, cfg, LossConfig(),
                                limits, evaluate_fn=evaluate_fn, train_fn=train_fn)
    return result, enc, seen


def test_finetune_snapshots_exactly_at_running_maxima(tiny_corpus):
    result, enc, seen = _scripted_run(
        tiny_corpus, stage1=[0.1, 0.3, 0.2, 0.25], stage2=[0.28, 0.31, 0.25, 0.26])
    flags = [(r["stage"], r["epoch"], r["snapshot_taken"]) for r in result.history]
    assert flags == [
        (1, 1, True), (1, 2, True), (1, 3, False), (1, 4, False),
        (2, 1, False), (2, 2, True), (2, 3, False), (2, 4, False),
    ]
    assert result.best_metric == 0.31
    # final parameters are the stage-2 epoch-2 snapshot, not the last epoch
    assert float(enc.emb_ln_b.data[0]) == 202.0
    assert result.best_state["emb.ln.beta"][0] == 202.0


def test_finetune_frozen_matrix_is_stage1_best_re_encoding(tiny_corpus):
    result, enc, seen = _scripted_run(
        tiny_corpus, stage1=[0.1, 0.3, 0.2, 0.25], stage2=[0.05, 0.06, 0.04, 0.05])
    # the kept matrix is the one evaluated at the stage-1 best epoch (epoch 2),
    # bit for bit, and stage 2 reuses that same frozen matrix every epoch
    npt.assert_array_equal(result.item_matrix.rows, seen[(1, 2)].rows)
    assert result.item_matrix.fingerprint == seen[(1, 2)].fingerprint
    for epoch in (1, 2):
        assert seen[(2, epoch)] is result.item_matrix
    # stage-1 matrices are re-encodings of the evolving encoder: all distinct
    assert not np.array_equal(seen[(1, 1)].rows, seen[(1, 2)].rows)


def test_finetune_stage2_below_best_changes_nothing(tiny_corpus):
    result, enc, seen = _scripted_run(
        tiny_corpus, stage1=[0.4, 0.6, 0.5, 0.55], stage2=[0.1, 0.2, 0.15, 0.18])
    assert result.best_metric == 0.6
    assert all(not r["snapshot_taken"] for r in result.history if r["stage"] == 2)
    assert float(enc.emb_ln_b.data[0]) == 102.0  # stage-1 epoch-2 state wins


def test_finetune_early_stop_counts_from_incoming_best(tiny_corpus):
    # stage 1 peaks at 0.6; stage 2 never reaches it, so its running max never
    # moves and patience bites after exactly `patience` epochs
    result, _, _ = _scripted_run(
        tiny_corpus, stage1=[0.6, 0.1, 0.1, 0.1], stage2=[0.4, 0.45, 0.44, 0.43],
        patience=2)
    stage1_epochs = [r["epoch"] for r in result.history if r["stage"] == 1]
    stage2_epochs = [r["epoch"] for r in result.history if r["stage"] == 2]
    assert stage1_epochs == [1, 2, 3]  # 0.6 at epoch 1, two stale epochs, stop
    assert stage2_epochs == [1, 2]


def test_finetune_validation_requirements(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab)
    split = leave_one_out([InteractionSequence("u", ("i0", "i1"))])
    with pytest.raises(ValueError, match="validation"):
        two_stage_finetune(split, catalog, vocab, enc, TrainConfig(), LossConfig(),
                           limits)
    empty = leave_one_out([])
    with pytest.raises(ValueError, match="train sequence"):
        two_stage_finetune(empty, catalog, vocab, enc, TrainConfig(), LossConfig(),
                           limits)


def test_finetune_examples_use_last_train_item_as_positive():
    split = leave_one_out([InteractionSequence("u", ("a", "b", "c", "d", "e"))])
    assert finetune_examples(split) == [(("a", "b"), "c")]


def test_finetune_default_loop_improves_on_separable_data(tiny_corpus):
    """End-to-end smoke: real training on the toy task lifts validation NDCG
    above the untrained encoder's score."""
    catalog, vocab, limits = tiny_corpus
    enc = _encoder(vocab, seed=9, dropout=0.0)
    split = leave_one_out(_sequences())
    cfg = TrainConfig(n_epochs=6, finetune_batch=8, lr=3e-3, patience=6, seed=1)
    result = two_stage_finetune(split, catalog, vocab, enc, cfg, LossConfig(temperature=0.1),
                                limits)
    assert isinstance(result, FinetuneResult)
    first = result.history[0]["valid_metric"]
    assert result.best_metric >= first
    assert result.best_metric > 0.0


def test_finetune_determinism(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    split = leave_one_out(_sequences())
    cfg = TrainConfig(n_epochs=3, finetune_batch=8, lr=1e-3, patience=3, seed=2)
    results = []
    for _ in range(2):
        enc = _encoder(vocab, seed=10)
        results.append(two_stage_finetune(split, catalog, vocab, enc, cfg,
                                          LossConfig(), limits))
    a, b = results
    assert a.history == b.history
    assert a.best_metric == b.best_metric
    npt.assert_array_equal(a.item_matrix.rows, b.item_matrix.rows)
    for name in a.best_state:
        npt.assert_array_equal(a.best_state[name], b.best_state[name])
