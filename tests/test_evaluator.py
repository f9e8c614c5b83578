"""Split construction, ranking metrics, and full-catalog evaluation."""

from __future__ import annotations

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from txrec import evaluator
from txrec.catalog import InteractionSequence, build_model_input, item_input
from txrec.encoder import Encoder, EncoderConfig, encode_rows, params_fingerprint
from txrec.errors import CatalogError
from txrec.evaluator import (
    CSV_HEADER,
    EvalCase,
    EvalReport,
    cold_start_split,
    evaluate_cases,
    leave_one_out,
    mrr,
    ndcg_at_k,
    random_baseline_mrr,
    rank_of_target,
    recall_at_k,
    zero_shot_evaluate,
)
from txrec.objectives import cosine_scores
from txrec.rng import stream


def _seq(uid, *items):
    return InteractionSequence(uid, items)


# ---------------------------------------------------------------------------
# leave-one-out


def test_leave_one_out_hand_example():
    split = leave_one_out([
        _seq("u4", "a", "b", "c", "d"),
        _seq("u3", "x", "y", "z"),
        _seq("u2", "p", "q"),
        _seq("u1", "r"),
    ])
    assert split.excluded_users == ["u2", "u1"]
    assert [s.items for s in split.train] == [("a", "b"), ("x",), ("p", "q"), ("r",)]
    assert split.valid == [EvalCase("u4", ("a", "b"), "c"), EvalCase("u3", ("x",), "y")]
    assert split.test == [EvalCase("u4", ("a", "b", "c"), "d"),
                          EvalCase("u3", ("x", "y"), "z")]


def test_leave_one_out_counts():
    seqs = [_seq(f"u{i}", *[f"i{j}" for j in range(3 + i % 4)]) for i in range(40)]
    split = leave_one_out(seqs)
    assert len(split.valid) == len(split.test) == 40
    assert len(split.train) == 40
    assert split.excluded_users == []
    for case, v in zip(split.test, split.valid):
        assert case.context[:-1] == v.context
        assert case.context[-1] == v.target


# ---------------------------------------------------------------------------
# cold-start bucketing


def test_cold_start_split_buckets_by_train_membership():
    split = cold_start_split([
        _seq("u1", "a", "b", "c"),     # test target c; train donates {a}
        _seq("u2", "b", "a", "cold"),  # test target "cold" never trains
        _seq("u3", "a", "b"),          # too short: whole history trains
    ])
    assert {"a", "b"} <= split.train_item_ids
    assert "cold" not in split.train_item_ids
    targets_in = {c.target for c in split.in_set}
    targets_cold = {c.target for c in split.cold}
    assert targets_cold == {"cold", "c"} - split.train_item_ids
    assert targets_in == {"c"} & split.train_item_ids or targets_in <= {"c"}
    # every test case lands in exactly one bucket
    assert len(split.in_set) + len(split.cold) == 2


def test_cold_start_split_all_warm():
    split = cold_start_split([_seq("u", "a", "b", "a"), _seq("v", "b", "a", "b")])
    assert split.cold == []
    assert len(split.in_set) == 2


# ---------------------------------------------------------------------------
# metrics


def test_metric_frozen_values():
    assert ndcg_at_k(1) == 1.0
    assert abs(ndcg_at_k(2) - 0.6309297535714575) < 1e-15   # 1/log2(3)
    assert abs(ndcg_at_k(10) - 0.28906482631788785) < 1e-15  # 1/log2(11)
    assert ndcg_at_k(11) == 0.0
    assert recall_at_k(10) == 1.0 and recall_at_k(11) == 0.0
    assert mrr(1) == 1.0 and mrr(4) == 0.25


def test_random_baseline_mrr_values():
    assert random_baseline_mrr(1) == 1.0
    assert abs(random_baseline_mrr(5) - 137.0 / 300.0) < 1e-15
    with pytest.raises(ValueError):
        random_baseline_mrr(0)


def test_random_baseline_mrr_is_empirical_mean():
    n = 8
    rng = np.random.default_rng(0)
    trials = 20000
    total = 0.0
    for _ in range(trials):
        total += 1.0 / (int(rng.integers(0, n)) + 1)
    assert abs(total / trials - random_baseline_mrr(n)) < 0.01


def _rows_with_scores(scores):
    """Rows whose cosine against h=[1,0] is exactly the given score."""
    s = np.asarray(scores, dtype=np.float64)
    return np.stack([s, np.sqrt(1.0 - s * s)], axis=1)


def test_rank_ties_never_push_target_down():
    h = np.array([[1.0, 0.0]])
    rows = _rows_with_scores([0.9, 0.5, 0.5, 0.5, 0.1])
    assert rank_of_target(h, rows, [2])[0] == 2  # one strictly better, two ties ignored
    assert rank_of_target(h, rows, [0])[0] == 1
    assert rank_of_target(h, rows, [4])[0] == 5


def test_rank_matches_stable_sort_oracle_on_random_scores():
    rng = np.random.default_rng(1)
    h = np.array([[1.0, 0.0]])
    for trial in range(300):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.uniform(-0.99, 0.99, size=n), 2)  # ties likely
        target = int(rng.integers(0, n))
        rows = _rows_with_scores(scores)
        got = rank_of_target(h, rows, [target])[0]
        expected = ref.rank_ref(np.asarray(
            [ref.cosine_ref(h[0], r) for r in rows]), target)
        assert got == expected, f"trial {trial}: {got} != {expected}"


# ---------------------------------------------------------------------------
# block ranking: a (U, d) block of histories against one-row blocks

BLOCK_SIZES = (1, 2, 7, 15)


def _assert_block_ranks_like_rows(hs, rows, targets):
    """Each leading block of `hs` scores bit for bit, and ranks, as its rows do alone."""
    for u in BLOCK_SIZES:
        alone = np.concatenate([cosine_scores(hs[i:i + 1], rows) for i in range(u)])
        assert cosine_scores(hs[:u], rows).tobytes() == alone.tobytes(), u
        ranks = rank_of_target(hs[:u], rows, targets[:u])
        one_by_one = [int(rank_of_target(hs[i:i + 1], rows, targets[i:i + 1])[0])
                      for i in range(u)]
        assert ranks.shape == (u,) and ranks.tolist() == one_by_one, u


def test_block_ranks_match_one_row_calls_with_planted_ties():
    rng = np.random.default_rng(18)
    rows = rng.normal(size=(600, 64)).astype(np.float32)
    rows[300:] = rows[:300]  # every item has an identical twin
    targets = rng.integers(0, 600, size=15)
    # histories near their targets, so the twins tie at the top of each ranking
    hs = (rows[targets] + 0.05 * rng.normal(size=(15, 64))).astype(np.float32)
    _assert_block_ranks_like_rows(hs, rows, targets)


def test_block_ranks_match_one_row_calls_on_collapsed_untrained_representations(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab)
    rows = encode_rows(enc, [item_input(i, catalog, vocab, limits) for i in catalog.ids]).data
    contexts = [catalog.ids[k % 8: k % 8 + 1 + k % 3] for k in range(15)]
    hs = encode_rows(enc, [build_model_input(c, catalog, vocab, limits) for c in contexts]).data
    scores = cosine_scores(hs, rows)
    assert scores.min() > 0.9  # untrained: every history sits at a cosine near 1 to every item
    _assert_block_ranks_like_rows(hs, rows, np.arange(15) % 8)


def test_block_ranks_match_one_row_calls_with_a_zero_history_and_a_zero_item():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(50, 16)).astype(np.float32)
    rows[7] = 0.0
    hs = rng.normal(size=(15, 16)).astype(np.float32)
    hs[1] = 0.0
    targets = rng.integers(0, 50, size=15)
    targets[[1, 2, 6]] = 7
    _assert_block_ranks_like_rows(hs, rows, targets)
    assert not cosine_scores(hs[1:2], rows).any()  # a zero history scores 0 everywhere
    assert rank_of_target(hs[:3], rows, targets[:3])[1] == 1
    assert not cosine_scores(hs, rows)[:, 7].any()  # so does a zero item


def test_block_ranks_do_not_depend_on_the_block_bound(monkeypatch):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(40, 16)).astype(np.float32)
    rows[20:] = rows[:20]
    hs = rng.normal(size=(15, 16)).astype(np.float32)
    targets = rng.integers(0, 40, size=15)
    whole = rank_of_target(hs, rows, targets)
    for bound in (1, 2 * 40, 7 * 40 + 39):
        monkeypatch.setattr(evaluator, "RANK_BLOCK_SCORES", bound)
        assert rank_of_target(hs, rows, targets).tolist() == whole.tolist(), bound


# ---------------------------------------------------------------------------
# report object


def test_eval_report_json_and_csv():
    rep = EvalReport({"ndcg@10": 0.5, "recall@10": 1.0, "mrr": 0.25},
                     n_users=7, fingerprint="cafe", protocol="leave-one-out")
    d = json.loads(json.dumps(rep.to_dict()))
    assert d == {"protocol": "leave-one-out", "n_users": 7, "fingerprint": "cafe",
                 "encoder_fingerprint": "",
                 "metrics": {"ndcg@10": 0.5, "recall@10": 1.0, "mrr": 0.25}}
    assert rep.csv_row() == "0.500000,1.000000,0.250000,7"
    assert CSV_HEADER == "ndcg@10,recall@10,mrr,n_users"


# ---------------------------------------------------------------------------
# evaluation drivers


def _encoder_for(vocab, seed=0):
    cfg = EncoderConfig(d=8, n_layers=1, n_heads=2, window=2, ffn_dim=16,
                        vocab_size=vocab.size, max_tokens=64, max_items=6, dropout=0.0)
    return Encoder(cfg, stream(seed, "init"))


def test_evaluate_cases_aggregates_per_case_metrics(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab)
    ids = catalog.ids
    rows = np.stack([enc.sequence_repr(item_input(i, catalog, vocab, limits)) for i in ids])
    index = {iid: k for k, iid in enumerate(ids)}
    cases = [EvalCase("u1", ("i0", "i1"), "i2"), EvalCase("u2", ("i3",), "i7")]
    rep = evaluate_cases(enc, rows, index, cases, catalog, vocab, limits,
                         fingerprint="fp")
    from txrec.catalog import build_model_input
    ranks = []
    for c in cases:
        h = enc.sequence_repr(build_model_input(c.context, catalog, vocab, limits))
        ranks.append(int(rank_of_target(h[None], rows, [index[c.target]])[0]))
    assert rep.n_users == 2
    assert rep.fingerprint == "fp"
    assert rep.metrics["mrr"] == pytest.approx(sum(1.0 / r for r in ranks) / 2)
    assert rep.metrics["ndcg@10"] == pytest.approx(
        sum(ndcg_at_k(r) for r in ranks) / 2)
    assert rep.metrics["recall@10"] == pytest.approx(
        sum(recall_at_k(r) for r in ranks) / 2)


@pytest.mark.parametrize("block_scores,blocks", [(1 << 18, [7]), (3 * 8, [3, 3, 1]),
                                                 (1, [1] * 7)],
                         ids=["default", "3-per-block", "1-per-block"])
def test_evaluate_cases_ranks_every_case_with_one_call(tiny_corpus, monkeypatch,
                                                       block_scores, blocks):
    """One `rank_of_target` call per `evaluate_cases` call, and one `cosine_scores`
    call per block of at most RANK_BLOCK_SCORES scores (one history at least)
    against the 8 items."""
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab, seed=2)
    ids = catalog.ids
    rows = encode_rows(enc, [item_input(i, catalog, vocab, limits) for i in ids]).data
    index = {iid: k for k, iid in enumerate(ids)}
    cases = [EvalCase(f"u{k}", tuple(ids[k:k + 2]), ids[(k + 3) % 8]) for k in range(7)]
    calls = []

    def spy(name, fn):
        return lambda *args: calls.append((name, len(args[0]))) or fn(*args)

    monkeypatch.setattr(evaluator, "RANK_BLOCK_SCORES", block_scores)
    monkeypatch.setattr(evaluator, "rank_of_target", spy("rank", rank_of_target))
    monkeypatch.setattr(evaluator, "cosine_scores", spy("scores", cosine_scores))
    rep = evaluate_cases(enc, rows, index, cases, catalog, vocab, limits)
    assert calls == [("rank", 7)] + [("scores", u) for u in blocks]
    # the same means, to the bit, as summing one-row ranks case by case
    users = encode_rows(enc, [build_model_input(c.context, catalog, vocab, limits)
                              for c in cases]).data
    sums = {"ndcg@10": 0.0, "recall@10": 0.0, "mrr": 0.0}
    for h, c in zip(users, cases):
        rank = int(rank_of_target(h[None], rows, [index[c.target]])[0])
        sums["ndcg@10"] += ndcg_at_k(rank)
        sums["recall@10"] += recall_at_k(rank)
        sums["mrr"] += mrr(rank)
    assert rep.metrics == {k: s / len(cases) for k, s in sums.items()}


def test_evaluate_cases_requires_cases(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab)
    with pytest.raises(ValueError):
        evaluate_cases(enc, np.ones((2, 8)), {}, [], catalog, vocab, limits)


def test_evaluate_cases_checks_every_target_before_encoding(tiny_corpus, monkeypatch):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab)
    index = {iid: k for k, iid in enumerate(catalog.ids)}
    cases = [EvalCase("u1", ("i0", "i1"), "i2"), EvalCase("u2", ("i3",), "ghost")]

    def no_encode(*args, **kwargs):
        raise AssertionError("a history was encoded before every target was checked")

    monkeypatch.setattr(Encoder, "encode", no_encode)
    with pytest.raises(CatalogError, match="^unknown item id 'ghost'$"):
        evaluate_cases(enc, np.ones((len(index), 8)), index, cases, catalog, vocab, limits)


def test_zero_shot_evaluate_runs_untrained(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab, seed=3)
    before = {p.name: p.data.copy() for p in enc.parameters()}
    seqs = [_seq("u1", "i0", "i1", "i2", "i3"), _seq("u2", "i4", "i5", "i6")]
    rep = zero_shot_evaluate(enc, seqs, catalog, vocab, limits)
    assert rep.protocol == "zero-shot"
    assert rep.n_users == 2
    assert len(rep.fingerprint) == 16
    assert rep.encoder_fingerprint == params_fingerprint(enc.parameters()) == rep.fingerprint
    for p in enc.parameters():  # nothing may train during evaluation
        npt.assert_array_equal(p.data, before[p.name])
    again = zero_shot_evaluate(enc, seqs, catalog, vocab, limits)
    assert again.to_dict() == rep.to_dict()


def test_zero_shot_needs_long_enough_histories(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab)
    with pytest.raises(ValueError, match="enough interactions"):
        zero_shot_evaluate(enc, [_seq("u", "i0", "i1")], catalog, vocab, limits)


def test_metrics_are_perfect_when_target_is_nearest(tiny_corpus):
    catalog, vocab, limits = tiny_corpus
    enc = _encoder_for(vocab, seed=9)
    ids = catalog.ids
    index = {iid: k for k, iid in enumerate(ids)}
    # plant the target's own representation as the history representation
    rows = np.stack([enc.sequence_repr(item_input(i, catalog, vocab, limits)) for i in ids])
    h = rows[index["i5"]]
    assert rank_of_target(h[None], rows, [index["i5"]])[0] == 1
