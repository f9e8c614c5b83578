"""Shipping gate: ten end-to-end checks, one test per release criterion.

Each test prints a single `[criterion NN] PASS` line with the measured
numbers once its assertions hold; tolerances and budgets are pinned here
and nowhere else. Training checks run real optimization on synthetic
planted-rule corpora, so they take seconds, not milliseconds.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import txrec.tensor as T
from txrec.catalog import (CLS_ID, Catalog, InputLimits, InteractionSequence, Item,
                           MASK_ID, ModelInput, Vocabulary, build_model_input)
from txrec.checkpoint import load_checkpoint, save_checkpoint
from txrec.cli import main as cli_main
from txrec.encoder import Encoder, EncoderConfig, build_window_index
from txrec.evaluator import (EvalCase, cold_start_split, evaluate_cases,
                             leave_one_out, mrr, ndcg_at_k, random_baseline_mrr,
                             rank_of_target, recall_at_k, zero_shot_evaluate)
from txrec.objectives import (ACTION_KEEP, ACTION_MASK, ACTION_RANDOM, LossConfig,
                              MaskingPlan, MLMHead, apply_masking_plan,
                              finetune_loss, iic_inbatch_loss, make_masking_plan,
                              pooled_mlm_loss, pretrain_loss)
from txrec.rng import stream
from txrec.synthetic import SyntheticSpec, generate_domain
from txrec.trainer import TrainConfig, pretrain, two_stage_finetune

from conftest import fd_gradcheck
from reference import allowed_pairs_ref, dense_attention_ref, rank_ref


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. analytic gradients of the full pretraining loss


def test_criterion_01_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    vocab = Vocabulary([f"w{i:02d}" for i in range(30)])  # 30 word types
    words = vocab.token_list()
    items = []
    for i in range(6):  # one key + four value words -> 5 tokens per sentence
        vals = " ".join(words[1 + (4 * i + j) % 29] for j in range(4))
        items.append(Item(f"x{i}", ((words[0], vals),)))
    catalog = Catalog(items)
    limits = InputLimits(max_tokens=32, max_items=4, tokens_per_field=8)

    cfg = EncoderConfig(d=8, n_layers=1, n_heads=1, window=2, ffn_dim=16,
                        vocab_size=vocab.size, max_tokens=32, max_items=4, dropout=0.0)
    rng = stream(1, "init")
    encoder = Encoder(cfg, rng, dtype=np.float64)
    head = MLMHead(cfg.d, vocab.size, rng, dtype=np.float64)
    check_rng = np.random.default_rng(11)
    head.b_h.data[:] = 0.01 * check_rng.standard_normal(cfg.d)
    head.b_out.data[:] = 0.01 * check_rng.standard_normal(vocab.size)

    histories = (["x0", "x1", "x2"], ["x3", "x4", "x5"], ["x1", "x3", "x5"])
    positives = ("x4", "x0", "x2")
    prefix_inputs = [build_model_input(h, catalog, vocab, limits) for h in histories]
    for x in prefix_inputs:
        assert len(x.token_ids) == 16  # aggregate slot + 3 items x 5 tokens
    pos_inputs = [build_model_input([y], catalog, vocab, limits) for y in positives]

    plans = []
    for i, x in enumerate(prefix_inputs):  # fixed plans exercise all 3 actions
        positions = np.array([2 + i, 7, 12 - i], dtype=np.int64)
        originals = x.token_ids[positions].astype(np.int64)
        actions = np.array([ACTION_MASK, ACTION_RANDOM, ACTION_KEEP], dtype=np.int64)
        replacements = np.array([MASK_ID, 4 + (5 * i + 3) % 30, originals[2]],
                                dtype=np.int64)
        plans.append(MaskingPlan(positions, originals, actions, replacements))
    masked = [apply_masking_plan(x, p) for x, p in zip(prefix_inputs, plans)]

    def build():
        hiddens = [encoder.encode(xm) for xm in masked]
        seq_rows = T.concat_rows([T.gather_rows(hid, [0]) for hid in hiddens])
        item_rows = T.concat_rows([T.gather_rows(encoder.encode(xp), [0]) for xp in pos_inputs])
        masked_rows = T.concat_rows([T.gather_rows(hid, plan.positions)
                                     for hid, plan in zip(hiddens, plans)])
        iic = iic_inbatch_loss(seq_rows, item_rows, 0.05)
        return pretrain_loss(iic, pooled_mlm_loss(masked_rows, plans, head), 0.1)

    params = encoder.parameters() + head.parameters()
    names = {p.name for p in params}
    assert {"emb.token", "emb.pos", "emb.type", "emb.item"} <= names
    assert any(n.startswith("layer0.attn") for n in names)
    assert any(n.startswith("layer0.ffn") for n in names)
    assert any(n.startswith("mlm.") for n in names)
    n_coords = sum(min(p.data.size, 12) for p in params)
    assert n_coords >= 200

    worst = fd_gradcheck(build, params, check_rng, coords_per_tensor=12,
                         h=1e-4, tol=1e-4)
    dt = time.monotonic() - t0
    assert dt < 120.0
    _report(1, f"worst relative error {worst:.2e} over {n_coords} coordinates "
               f"in {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. windowed kernel vs. materialized reference; cost grows linearly


def test_criterion_02_windowed_attention_matches_dense_and_scales_linearly():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        w = int(rng.integers(1, 5))
        length = int(rng.integers(1, 2 * w + 2))  # short enough to build densely
        heads = int(rng.integers(1, 3))
        dh = int(rng.integers(2, 5))
        q, k, v = (rng.standard_normal((heads, length, dh)).astype(np.float32)
                   for _ in range(3))
        idx, valid = build_window_index(length, w)
        out = T.windowed_attention(T.Tensor(q[None]), T.Tensor(k[None]), T.Tensor(v[None]),
                                   idx, valid)
        ref = dense_attention_ref(q.astype(np.float64), k.astype(np.float64),
                                  v.astype(np.float64),
                                  allowed_pairs_ref(length, w))
        worst = max(worst, float(np.abs(out.data - ref).max()))
    assert worst < 1e-5

    counts = []
    for length in (64, 128, 256):
        idx, valid = build_window_index(length, 8)
        q, k, v = (rng.standard_normal((2, length, 4)).astype(np.float32)
                   for _ in range(3))
        T.attention_pairs.reset()
        T.windowed_attention(T.Tensor(q[None]), T.Tensor(k[None]), T.Tensor(v[None]), idx, valid)
        counts.append(T.attention_pairs.pairs)
    s1 = (counts[1] - counts[0]) / 64.0
    s2 = (counts[2] - counts[1]) / 128.0
    assert s1 > 0 and s2 > 0
    assert abs(s1 - s2) <= 0.10 * max(s1, s2)
    _report(2, f"max |windowed - dense| {worst:.2e}; pair counts {counts} "
               f"(slopes {s1:.1f}/{s2:.1f} per token)")


# ---------------------------------------------------------------------------
# 3. closed forms of the three losses


def test_criterion_03_loss_closed_forms():
    rng = np.random.default_rng(3)
    d = 12

    one = iic_inbatch_loss(T.Tensor(rng.standard_normal((1, d))),
                           T.Tensor(rng.standard_normal((1, d))), 0.05)
    assert float(one.data) == 0.0  # a single pair can only match itself

    b = 16  # identical rows -> every similarity equal -> uniform softmax
    seqs = T.Tensor(np.tile(rng.standard_normal(d), (b, 1)))
    poss = T.Tensor(np.tile(rng.standard_normal(d), (b, 1)))
    uniform = float(iic_inbatch_loss(seqs, poss, 0.05).data)
    assert abs(uniform - math.log(b)) < 1e-6

    n_items = 50  # history orthogonal to every item -> flat score vector
    rows = np.zeros((n_items, d))
    rows[:, 1:] = rng.standard_normal((n_items, d - 1))
    h = T.Tensor(np.eye(d)[:1])
    flat = float(finetune_loss(h, np.array([7]), rows, 0.05).data)
    assert abs(flat - math.log(n_items)) < 1e-6

    v_words = 30  # zeroed output projection -> uniform logits over the words
    head = MLMHead(8, v_words, stream(3, "init"))
    head.w_out.data[:] = 0.0
    head.b_out.data[:] = 0.0
    hidden = T.Tensor(rng.standard_normal((16, 8)).astype(np.float32))
    positions = np.array([1, 4, 9, 13], dtype=np.int64)
    originals = np.array([5, 17, 8, 29], dtype=np.int64)
    plan = MaskingPlan(positions, originals,
                       np.full(4, ACTION_MASK, dtype=np.int64),
                       np.full(4, MASK_ID, dtype=np.int64))
    flat_mlm = float(pooled_mlm_loss(T.gather_rows(hidden, positions), [plan], head).data)
    assert abs(flat_mlm - math.log(v_words)) < 1e-5
    _report(3, f"single-pair {0.0}, uniform batch {uniform:.8f} vs ln16, "
               f"flat catalog {flat:.8f} vs ln50, flat logits {flat_mlm:.7f} vs ln30")


# ---------------------------------------------------------------------------
# 4. ranking and metrics against a stable-sort oracle


def test_criterion_04_rank_and_metrics_match_stable_sort_oracle():
    rng = np.random.default_rng(4)
    n_ties = 0
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        scores = np.round(rng.uniform(-0.99, 0.99, size=n), 2).astype(np.float32)
        target = int(rng.integers(n))
        n_ties += int((scores == scores[target]).sum()) > 1
        # rows built so the cosine against [1, 0] is the planted score exactly
        rows = np.stack([scores, np.sqrt(1.0 - scores ** 2)], axis=1)
        got = int(rank_of_target(np.array([[1.0, 0.0]], dtype=np.float32),
                                 rows.astype(np.float32), [target])[0])
        want = rank_ref(scores.astype(np.float64), target)
        assert got == want
        assert (ndcg_at_k(got, 10), recall_at_k(got, 10), mrr(got)) == \
               (ndcg_at_k(want, 10), recall_at_k(want, 10), mrr(want))
    assert n_ties > 100  # the quantized grid must actually produce ties
    _report(4, f"1000 instances exact, {n_ties} of them with tied scores")


# ---------------------------------------------------------------------------
# 5. overfit a planted rule from random init


def _planted_world(seed: int, cold_fraction: float = 0.0):
    spec = SyntheticSpec(seed=seed, n_domains=1, items_per_domain=50,
                         users_per_domain=200, cold_fraction=cold_fraction)
    items, seqs = generate_domain(spec, 0)
    return Catalog(items), Vocabulary.build(items), seqs


_LIMITS = InputLimits(max_tokens=128, max_items=10, tokens_per_field=8)


def _small_encoder(vocab: Vocabulary) -> Encoder:
    cfg = EncoderConfig(d=32, n_layers=1, n_heads=2, window=8, ffn_dim=64,
                        vocab_size=vocab.size, max_tokens=128, max_items=10,
                        dropout=0.0)
    return Encoder(cfg, stream(0, "init"))


def test_criterion_05_overfits_planted_rule_within_budget():
    t0 = time.monotonic()
    catalog, vocab, seqs = _planted_world(seed=0)
    split = leave_one_out(seqs)
    encoder = _small_encoder(vocab)
    tcfg = TrainConfig(n_epochs=20, finetune_batch=16, lr=3e-3, patience=20, seed=0)
    res = two_stage_finetune(split, catalog, vocab, encoder, tcfg,
                             LossConfig(temperature=0.05), _LIMITS)
    assert len(res.history) <= 50  # both stages together stay inside the budget

    train_cases = [EvalCase(s.user_id, s.items[:-1], s.items[-1])
                   for s in split.train if len(s.items) >= 2]
    on_train = evaluate_cases(encoder, res.item_matrix.rows, res.item_matrix.index,
                              train_cases, catalog, vocab, _LIMITS)
    on_test = evaluate_cases(encoder, res.item_matrix.rows, res.item_matrix.index,
                             split.test, catalog, vocab, _LIMITS)
    dt = time.monotonic() - t0
    r_train = on_train.metrics["recall@10"]
    r_test = on_test.metrics["recall@10"]
    assert r_train >= 0.95
    assert r_test > 0.5
    assert dt < 600.0
    _report(5, f"train recall@10 {r_train:.3f}, test recall@10 {r_test:.3f}, "
               f"{len(res.history)} epochs in {dt:.0f}s")


# ---------------------------------------------------------------------------
# 6. snapshot/rewind semantics on scripted validation curves


def test_criterion_06_snapshot_rewind_and_frozen_matrix_semantics():
    brands = ("acme", "zenith", "orbit", "lumen")
    items = [Item(f"i{k}", (("Brand", brands[k % 4]), ("Title", f"widget type{k}")))
             for k in range(8)]
    seqs = [InteractionSequence(f"u{j}", tuple(f"i{(j + t) % 8}" for t in range(5)))
            for j in range(6)]
    catalog, vocab = Catalog(items), Vocabulary.build(items)
    limits = InputLimits(max_tokens=64, max_items=6, tokens_per_field=4)
    split = leave_one_out(seqs)

    cfg = EncoderConfig(d=8, n_layers=1, n_heads=1, window=2, ffn_dim=16,
                        vocab_size=vocab.size, max_tokens=64, max_items=6, dropout=0.0)
    encoder = Encoder(cfg, stream(6, "init"))
    beta = next(p for p in encoder.parameters() if p.name == "emb.ln.beta")

    curves = {1: [0.10, 0.30, 0.20, 0.25], 2: [0.28, 0.31, 0.25, 0.26]}
    captured: dict[tuple[int, int], np.ndarray] = {}

    def train_fn(stage, epoch, enc, matrix):
        beta.data[:] = float(stage * 100 + epoch)  # recognizable state stamp

    def evaluate_fn(stage, epoch, enc, matrix):
        captured[(stage, epoch)] = matrix.rows.copy()
        return curves[stage][epoch - 1]

    res = two_stage_finetune(split, catalog, vocab, encoder,
                             TrainConfig(n_epochs=4, patience=4, lr=1e-3, seed=0),
                             LossConfig(), limits,
                             evaluate_fn=evaluate_fn, train_fn=train_fn)

    running = 0.0
    expected = []
    for metric in curves[1] + curves[2]:
        expected.append(metric > running)
        running = max(running, metric)
    assert [r["snapshot_taken"] for r in res.history] == expected
    assert res.best_metric == 0.31
    assert res.best_metric >= max(curves[1])

    best_epoch = 1 + int(np.argmax(curves[1]))
    frozen = captured[(1, best_epoch)]
    assert res.item_matrix.rows.tobytes() == frozen.tobytes()
    for epoch in (1, 2, 3, 4):  # the frozen stage never re-encodes
        assert captured[(2, epoch)].tobytes() == frozen.tobytes()
    assert captured[(1, 1)].tobytes() != captured[(1, 2)].tobytes()  # stage 1 does
    _report(6, f"snapshots {expected}, best {res.best_metric}, frozen matrix "
               f"identical across {len(curves[2])} frozen-stage epochs")


# ---------------------------------------------------------------------------
# 7. zero-shot transfer to a domain never trained on


def test_criterion_07_zero_shot_transfer_beats_random_by_3x():
    t0 = time.monotonic()
    spec = SyntheticSpec(seed=7, n_domains=4, items_per_domain=50,
                         users_per_domain=200)
    train_items: list[Item] = []
    train_seqs: list[InteractionSequence] = []
    for dom in range(3):
        items, seqs = generate_domain(spec, dom)
        train_items += items
        train_seqs += seqs
    eval_items, eval_seqs = generate_domain(spec, 3)

    catalog, vocab = Catalog(train_items), Vocabulary.build(train_items)
    encoder = _small_encoder(vocab)
    head = MLMHead(encoder.config.d, vocab.size, stream(0, "init"))
    tcfg = TrainConfig(n_epochs=20, pretrain_batch=32, lr=1e-3, patience=20, seed=0)
    pretrain(train_seqs, catalog, vocab, encoder, head, tcfg,
             LossConfig(temperature=0.05, mlm_weight=0.1), _LIMITS)

    report = zero_shot_evaluate(encoder, eval_seqs, Catalog(eval_items), vocab,
                                _LIMITS)
    baseline = random_baseline_mrr(len(eval_items))
    dt = time.monotonic() - t0
    assert report.n_users == 200
    assert report.metrics["mrr"] >= 3.0 * baseline
    assert dt < 900.0
    _report(7, f"unseen-domain MRR {report.metrics['mrr']:.4f} vs random "
               f"{baseline:.4f} ({report.metrics['mrr'] / baseline:.1f}x) in {dt:.0f}s")


# ---------------------------------------------------------------------------
# 8. items never seen in training rank close to trained-on items


def test_criterion_08_cold_items_rank_close_to_warm():
    catalog, vocab, seqs = _planted_world(seed=3, cold_fraction=0.2)
    split = leave_one_out(seqs)
    buckets = cold_start_split(seqs)
    assert buckets.in_set and buckets.cold
    assert len(set(catalog.ids) - buckets.train_item_ids) >= 10  # 20% of 50

    encoder = _small_encoder(vocab)
    tcfg = TrainConfig(n_epochs=20, finetune_batch=16, lr=3e-3, patience=20, seed=0)
    res = two_stage_finetune(split, catalog, vocab, encoder, tcfg,
                             LossConfig(temperature=0.05), _LIMITS)

    on_warm = evaluate_cases(encoder, res.item_matrix.rows, res.item_matrix.index,
                             buckets.in_set, catalog, vocab, _LIMITS)
    on_cold = evaluate_cases(encoder, res.item_matrix.rows, res.item_matrix.index,
                             buckets.cold, catalog, vocab, _LIMITS)
    r_warm = on_warm.metrics["recall@10"]
    r_cold = on_cold.metrics["recall@10"]
    assert r_cold > 0.0
    assert r_warm <= 2.5 * r_cold
    _report(8, f"in-set recall@10 {r_warm:.3f}, cold recall@10 {r_cold:.3f} "
               f"({len(buckets.cold)} cold cases)")


# ---------------------------------------------------------------------------
# 9. corruption statistics over a large position sample


def test_criterion_09_masking_rate_and_action_split():
    n_pos = 1000
    ids = np.concatenate([[CLS_ID], 4 + (np.arange(n_pos) % 30)]).astype(np.int64)
    x = ModelInput(
        token_ids=ids,
        token_types=np.concatenate([[0], np.full(n_pos, 2)]).astype(np.int64),
        item_positions=np.concatenate([[0], 1 + np.arange(n_pos) // 9]).astype(np.int64),
    )
    rng = stream(9, "mask")
    n_candidates = n_selected = n_m = n_r = n_k = 0
    for _ in range(120):
        plan = make_masking_plan(x, 34, rng)
        n_candidates += n_pos
        n_selected += len(plan)
        n_m += int((plan.actions == ACTION_MASK).sum())
        n_r += int((plan.actions == ACTION_RANDOM).sum())
        n_k += int((plan.actions == ACTION_KEEP).sum())
    assert n_candidates >= 100_000
    rate = n_selected / n_candidates
    p_m, p_r, p_k = (n / n_selected for n in (n_m, n_r, n_k))
    assert abs(rate - 0.15) <= 0.01
    assert abs(p_m - 0.80) <= 0.02
    assert abs(p_r - 0.10) <= 0.02
    assert abs(p_k - 0.10) <= 0.02
    _report(9, f"rate {rate:.4f}, split {p_m:.3f}/{p_r:.3f}/{p_k:.3f} "
               f"over {n_candidates} candidate positions")


# ---------------------------------------------------------------------------
# 10. identical reruns produce identical bytes


def _cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_10_reruns_and_round_trips_are_byte_identical(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert _cli("make-synthetic", "--out", corpus, "--seed", 11, "--domains", 1,
                "--items-per-domain", 12, "--users", 24) == 0
    data = corpus / "domain_00"
    config = {
        "seed": 0,
        "data": {"items": str(data / "items.jsonl"),
                 "interactions": str(data / "interactions.jsonl")},
        "encoder": {"d": 8, "n_layers": 1, "n_heads": 2, "window": 4,
                    "ffn_dim": 16, "max_tokens": 96, "max_items": 6, "dropout": 0.1},
        "train": {"n_epochs": 2, "pretrain_batch": 8, "finetune_batch": 8,
                  "lr": 0.001, "patience": 2},
        "loss": {"temperature": 0.1, "mlm_weight": 0.1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outs = {}
    for tag in ("a", "b"):
        run_dir = tmp_path / tag
        run_dir.mkdir()
        pre, fine, csv = run_dir / "pre.ckpt", run_dir / "fine.ckpt", run_dir / "m.csv"
        assert _cli("pretrain", "--config", cfg_path, "--out", pre) == 0
        assert _cli("finetune", "--config", cfg_path, "--init", pre, "--out", fine) == 0
        capsys.readouterr()
        assert _cli("evaluate", "--ckpt", fine, "--data", data, "--csv", csv) == 0
        outs[tag] = (pre.read_bytes(), fine.read_bytes(),
                     capsys.readouterr().out, csv.read_bytes())

    assert outs["a"][0] == outs["b"][0]  # pretrained checkpoint
    assert outs["a"][1] == outs["b"][1]  # finetuned checkpoint
    assert outs["a"][2] == outs["b"][2]  # evaluation report on stdout
    assert outs["a"][3] == outs["b"][3]  # evaluation report on disk

    # what load sees, save writes back bit-for-bit (checksum verified on read)
    cfg_loaded, tensors = load_checkpoint(tmp_path / "a" / "fine.ckpt")
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, cfg_loaded, tensors)
    assert again.read_bytes() == outs["a"][1]
    _report(10, f"checkpoints {len(outs['a'][0])}+{len(outs['a'][1])} bytes "
                f"identical across reruns; round-trip exact")
