"""Similarity, masking, and the contrastive / MLM / finetune losses."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from conftest import fd_gradcheck
from txrec import tensor as T
from txrec.catalog import MASK_ID, NUM_RESERVED, build_model_input
from txrec.objectives import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    MASK_RATE,
    LossConfig,
    MaskingPlan,
    MLMHead,
    apply_masking_plan,
    cosine_scores,
    finetune_loss,
    iic_inbatch_loss,
    make_masking_plan,
    mlm_loss,
    pooled_mlm_loss,
    pretrain_loss,
)
from txrec.rng import stream

F64 = np.float64


# ---------------------------------------------------------------------------
# cosine


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors through the package's scorer, on a one-row matrix."""
    return float(cosine_scores(a, b[None, :])[0])


def test_cosine_sim_hand_values():
    assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0
    assert cosine_sim(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == -1.0
    assert cosine_sim(np.zeros(4), np.ones(4)) == 0.0
    a = np.array([1.0, 1.0])
    b = np.array([1.0, 0.0])
    assert abs(cosine_sim(a, b) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_cosine_sim_is_scale_invariant_and_clipped():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        s = cosine_sim(a, b)
        assert -1.0 <= s <= 1.0
        assert abs(cosine_sim(3.7 * a, 0.2 * b) - s) < 1e-9
        assert abs(s - ref.cosine_ref(a, b)) < 1e-12


def test_cosine_scores_matches_rowwise_cosine():
    rng = np.random.default_rng(1)
    h = rng.normal(size=6)
    rows = rng.normal(size=(10, 6))
    rows[4] = 0.0  # zero row scores 0
    got = cosine_scores(h, rows)
    expected = [ref.cosine_ref(h, r) for r in rows]
    npt.assert_allclose(got, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# masking


def _long_input(tiny_corpus, n_items=5):
    catalog, vocab, limits = tiny_corpus
    ids = [f"i{k % 8}" for k in range(n_items)]
    return build_model_input(ids, catalog, vocab, limits), vocab


def test_masking_rate_and_action_split(tiny_corpus):
    x, vocab = _long_input(tiny_corpus)
    n_eligible = int((x.token_ids >= NUM_RESERVED).sum())
    total = 0
    counts = np.zeros(3)
    rounds = 4000
    rng = stream(0, "mask")
    for _ in range(rounds):
        plan = make_masking_plan(x, vocab.size, rng)
        total += len(plan)
        for a in (ACTION_MASK, ACTION_RANDOM, ACTION_KEEP):
            counts[a] += int((plan.actions == a).sum())
    rate = total / (rounds * n_eligible)
    assert abs(rate - MASK_RATE) < 0.01
    frac = counts / counts.sum()
    npt.assert_allclose(frac, [0.8, 0.1, 0.1], atol=0.02)


def test_masking_plan_is_deterministic_per_stream(tiny_corpus):
    x, vocab = _long_input(tiny_corpus)
    p1 = make_masking_plan(x, vocab.size, stream(7, "mask"))
    p2 = make_masking_plan(x, vocab.size, stream(7, "mask"))
    npt.assert_array_equal(p1.positions, p2.positions)
    npt.assert_array_equal(p1.actions, p2.actions)
    npt.assert_array_equal(p1.replacements, p2.replacements)


def test_masking_never_touches_reserved_positions(tiny_corpus):
    x, vocab = _long_input(tiny_corpus)
    rng = stream(1, "mask")
    for _ in range(200):
        plan = make_masking_plan(x, vocab.size, rng)
        assert (x.token_ids[plan.positions] >= NUM_RESERVED).all()
        assert (plan.originals >= NUM_RESERVED).all()
        # random replacements are never reserved ids either
        rand = plan.replacements[plan.actions == ACTION_RANDOM]
        assert (rand >= NUM_RESERVED).all() and (rand < vocab.size).all()
        masked = plan.replacements[plan.actions == ACTION_MASK]
        assert (masked == MASK_ID).all()
        kept = plan.actions == ACTION_KEEP
        npt.assert_array_equal(plan.replacements[kept], plan.originals[kept])


def test_apply_masking_plan_only_writes_planned_positions(tiny_corpus):
    x, vocab = _long_input(tiny_corpus)
    rng = stream(2, "mask")
    plan = make_masking_plan(x, vocab.size, rng)
    assert len(plan) > 0
    corrupted = apply_masking_plan(x, plan)
    npt.assert_array_equal(corrupted.token_ids[plan.positions], plan.replacements)
    untouched = np.setdiff1d(np.arange(len(x)), plan.positions)
    npt.assert_array_equal(corrupted.token_ids[untouched], x.token_ids[untouched])
    npt.assert_array_equal(corrupted.token_positions, x.token_positions)
    assert not corrupted.token_ids.flags.writeable


# ---------------------------------------------------------------------------
# mlm head and loss


def test_mlm_logits_match_reference():
    rng = np.random.default_rng(3)
    head = MLMHead(6, 11, stream(4, "init"), dtype=F64)
    rows = rng.normal(size=(5, 6))
    got = head.logits(T.Tensor(rows, dtype=F64)).data
    expected = ref.mlm_logits_ref(head.state_dict(), rows)
    npt.assert_allclose(got, expected, atol=1e-10)


def test_mlm_loss_uniform_head_is_log_vocab():
    # zero output projection -> uniform logits -> loss is exactly ln(vocab)
    vocab_size = 23
    head = MLMHead(4, vocab_size, stream(5, "init"), dtype=F64)
    head.w_out.data[...] = 0.0
    head.b_out.data[...] = 0.0
    hidden = T.Tensor(np.random.default_rng(6).normal(size=(9, 4)), dtype=F64)
    plan = MaskingPlan(np.array([1, 3, 4]), np.array([7, 8, 9]),
                       np.zeros(3, dtype=np.int64), np.full(3, MASK_ID))
    loss = mlm_loss(hidden, plan, head)
    assert abs(float(loss.data) - math.log(vocab_size)) < 1e-5


def test_mlm_loss_empty_plan_is_zero():
    head = MLMHead(4, 10, stream(7, "init"))
    hidden = T.Tensor(np.ones((3, 4)))
    empty = MaskingPlan(*(np.zeros(0, dtype=np.int64),) * 4)
    assert float(mlm_loss(hidden, empty, head).data) == 0.0


def test_pooled_mlm_loss_weights_positions_not_examples():
    """One mean over all selected rows: an example with more masked positions
    contributes proportionally more, unlike averaging per-example losses."""
    rng = np.random.default_rng(8)
    head = MLMHead(5, 12, stream(9, "init"), dtype=F64)
    h1 = T.Tensor(rng.normal(size=(6, 5)), dtype=F64)
    h2 = T.Tensor(rng.normal(size=(6, 5)), dtype=F64)
    plan1 = MaskingPlan(np.array([0, 1, 2]), np.array([4, 5, 6]),
                        np.zeros(3, dtype=np.int64), np.full(3, MASK_ID))
    plan2 = MaskingPlan(np.array([3]), np.array([7]),
                        np.zeros(1, dtype=np.int64), np.full(1, MASK_ID))
    pooled = float(pooled_mlm_loss([h1, h2], [plan1, plan2], head).data)
    rows = np.vstack([h1.data[plan1.positions], h2.data[plan2.positions]])
    logits = ref.mlm_logits_ref(head.state_dict(), rows)
    expected = ref.cross_entropy_ref(logits, np.array([4, 5, 6, 7]))
    assert abs(pooled - expected) < 1e-10
    per_example = (float(mlm_loss(h1, plan1, head).data) * 3
                   + float(mlm_loss(h2, plan2, head).data) * 1) / 4
    assert abs(pooled - per_example) < 1e-10


def test_mlm_gradcheck():
    rng = np.random.default_rng(10)
    head = MLMHead(4, 9, stream(11, "init"), dtype=F64)
    hidden = T.Parameter("hidden", rng.normal(size=(5, 4)), dtype=F64)
    plan = MaskingPlan(np.array([0, 2, 2, 4]), np.array([4, 5, 4, 8]),
                       np.zeros(4, dtype=np.int64), np.full(4, MASK_ID))
    fd_gradcheck(lambda: mlm_loss(hidden, plan, head),
                 [hidden] + head.parameters(), rng)


# ---------------------------------------------------------------------------
# contrastive loss


def test_iic_single_example_is_exactly_zero():
    rng = np.random.default_rng(12)
    s = T.Tensor(rng.normal(size=(1, 8)))
    i = T.Tensor(rng.normal(size=(1, 8)))
    assert float(iic_inbatch_loss(s, i, 0.05).data) == 0.0


def test_iic_orthogonal_batch_is_log_batch_over_softmax():
    # identical normalized rows for sequences and items, mutually orthogonal:
    # diagonal logit 1/tau, off-diagonal 0 -> closed-form cross-entropy
    n, tau = 6, 0.25
    eye = np.eye(n, 8)
    loss = float(iic_inbatch_loss(T.Tensor(eye, dtype=F64),
                                  T.Tensor(eye * 3.0, dtype=F64), tau).data)
    z = math.exp(1.0 / tau) + (n - 1)
    expected = -(1.0 / tau) + math.log(z)
    assert abs(loss - expected) < 1e-10


def test_iic_identical_rows_is_log_batch():
    # every pair maximally similar -> uniform softmax -> exactly ln(B)
    n = 5
    row = np.full((n, 4), 0.3)
    loss = float(iic_inbatch_loss(T.Tensor(row, dtype=F64),
                                  T.Tensor(row * 2, dtype=F64), 0.05).data)
    assert abs(loss - math.log(n)) < 1e-6


def test_iic_prefers_aligned_diagonal():
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(4, 16))
    aligned = float(iic_inbatch_loss(T.Tensor(rows, dtype=F64),
                                     T.Tensor(rows, dtype=F64), 0.05).data)
    shuffled = rows[[1, 2, 3, 0]]
    mismatched = float(iic_inbatch_loss(T.Tensor(rows, dtype=F64),
                                        T.Tensor(shuffled, dtype=F64), 0.05).data)
    assert aligned < 0.01 < mismatched


def test_iic_shape_mismatch():
    with pytest.raises(ValueError):
        iic_inbatch_loss(T.Tensor(np.ones((2, 4))), T.Tensor(np.ones((3, 4))), 0.05)


def test_iic_gradcheck():
    rng = np.random.default_rng(14)
    s = T.Parameter("s", rng.normal(size=(4, 6)), dtype=F64)
    i = T.Parameter("i", rng.normal(size=(4, 6)), dtype=F64)
    fd_gradcheck(lambda: iic_inbatch_loss(s, i, 0.1), [s, i], rng)


# ---------------------------------------------------------------------------
# combined pretrain loss


def test_pretrain_loss_combination():
    iic = T.Tensor(np.asarray(2.0))
    mlm = T.Tensor(np.asarray(3.0))
    assert float(pretrain_loss(iic, mlm, 0.1).data) == pytest.approx(2.3)
    assert pretrain_loss(iic, mlm, 0.0) is iic
    assert pretrain_loss(iic, None, 0.5) is iic


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(temperature=0.0)
    with pytest.raises(ValueError):
        LossConfig(mlm_weight=-0.1)
    assert LossConfig().temperature == 0.05


# ---------------------------------------------------------------------------
# finetune loss


def test_finetune_loss_uniform_matrix_is_log_items():
    # orthogonal history: every item scores 0 -> uniform -> exactly ln(n)
    n = 7
    rows = np.eye(n, 16)
    h = T.Tensor(np.r_[np.zeros(15), 1.0], dtype=F64)
    loss = float(finetune_loss(h, 3, rows, 1.0).data)
    assert abs(loss - math.log(n)) < 1e-9


def test_finetune_loss_drops_when_history_aligns_with_positive():
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(20, 8))
    far = float(finetune_loss(T.Tensor(-rows[4], dtype=F64), 4, rows, 0.05).data)
    near = float(finetune_loss(T.Tensor(rows[4], dtype=F64), 4, rows, 0.05).data)
    assert near < far


def test_finetune_loss_matrix_stays_frozen():
    rng = np.random.default_rng(16)
    rows = rng.normal(size=(6, 5))
    rows_before = rows.copy()
    h = T.Parameter("h", rng.normal(size=5), dtype=F64)
    with T.GradTape() as tape:
        loss = finetune_loss(h, 2, rows, 0.05)
    tape.backward(loss)
    assert np.abs(h.grad).max() > 0
    npt.assert_array_equal(rows, rows_before)


def test_finetune_loss_gradcheck():
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(9, 6))
    h = T.Parameter("h", rng.normal(size=6), dtype=F64)
    fd_gradcheck(lambda: finetune_loss(h, 5, rows, 0.1), [h], rng)


def test_batched_finetune_loss_is_the_mean_of_its_rows():
    rng = np.random.default_rng(18)
    rows = rng.normal(size=(9, 6))
    hs = rng.normal(size=(4, 6))
    pos = np.array([5, 0, 5, 8])
    batched = float(finetune_loss(T.Tensor(hs, dtype=F64), pos, rows, 0.1).data)
    singles = [float(finetune_loss(T.Tensor(h, dtype=F64), int(p), rows, 0.1).data)
               for h, p in zip(hs, pos)]
    assert abs(batched - np.mean(singles)) < 1e-12
    with pytest.raises(IndexError, match="9"):
        finetune_loss(T.Tensor(hs, dtype=F64), np.array([0, 9, 1, 2]), rows, 0.1)


def test_batched_finetune_loss_gradcheck():
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(9, 6))
    hs = T.Parameter("hs", rng.normal(size=(4, 6)), dtype=F64)
    fd_gradcheck(lambda: finetune_loss(hs, np.array([5, 0, 5, 8]), rows, 0.1), [hs], rng)


def test_finetune_loss_errors():
    h = T.Tensor(np.ones(4))
    with pytest.raises(IndexError, match="3"):
        finetune_loss(h, 3, np.ones((3, 4)), 0.05)
    with pytest.raises(ValueError):
        finetune_loss(h, 0, np.ones((0, 4)), 0.05)
