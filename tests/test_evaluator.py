"""Split construction, ranking metrics, and full-catalog evaluation."""

from __future__ import annotations

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from txrec.catalog import InteractionSequence, item_input
from txrec.encoder import Encoder, EncoderConfig
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
    h = np.array([1.0, 0.0])
    rows = _rows_with_scores([0.9, 0.5, 0.5, 0.5, 0.1])
    assert rank_of_target(h, rows, 2) == 2  # one strictly better, two ties ignored
    assert rank_of_target(h, rows, 0) == 1
    assert rank_of_target(h, rows, 4) == 5


def test_rank_matches_stable_sort_oracle_on_random_scores():
    rng = np.random.default_rng(1)
    h = np.array([1.0, 0.0])
    for trial in range(300):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.uniform(-0.99, 0.99, size=n), 2)  # ties likely
        target = int(rng.integers(0, n))
        rows = _rows_with_scores(scores)
        got = rank_of_target(h, rows, target)
        expected = ref.rank_ref(np.asarray(
            [ref.cosine_ref(h, r) for r in rows]), target)
        assert got == expected, f"trial {trial}: {got} != {expected}"


# ---------------------------------------------------------------------------
# report object


def test_eval_report_json_and_csv():
    rep = EvalReport({"ndcg@10": 0.5, "recall@10": 1.0, "mrr": 0.25},
                     n_users=7, fingerprint="cafe", protocol="leave-one-out")
    d = json.loads(rep.to_json())
    assert d == {"protocol": "leave-one-out", "n_users": 7, "fingerprint": "cafe",
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
        ranks.append(rank_of_target(h, rows, index[c.target]))
    assert rep.n_users == 2
    assert rep.fingerprint == "fp"
    assert rep.metrics["mrr"] == pytest.approx(sum(1.0 / r for r in ranks) / 2)
    assert rep.metrics["ndcg@10"] == pytest.approx(
        sum(ndcg_at_k(r) for r in ranks) / 2)
    assert rep.metrics["recall@10"] == pytest.approx(
        sum(recall_at_k(r) for r in ranks) / 2)


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
    assert rank_of_target(h, rows, index["i5"]) == 1
