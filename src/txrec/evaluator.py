"""Leave-one-out ranking evaluation over the full item catalog.

Each user's last interaction is the test target and the second-to-last the
validation target; everything earlier is training history. Candidates are
never sampled: the target is ranked against every catalog item by cosine
similarity of representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .catalog import Catalog, InputLimits, InteractionSequence, Vocabulary, build_model_input
from .encoder import Encoder, encode_rows
from .errors import CatalogError
from .objectives import cosine_scores

METRIC_KEYS = ("ndcg@10", "recall@10", "mrr")
CSV_HEADER = "ndcg@10,recall@10,mrr,n_users"


@dataclass(frozen=True)
class EvalCase:
    user_id: str
    context: tuple[str, ...]
    target: str


@dataclass
class EvalSplit:
    train: list[InteractionSequence]
    valid: list[EvalCase]
    test: list[EvalCase]
    excluded_users: list[str] = field(default_factory=list)


def leave_one_out(sequences: Sequence[InteractionSequence]) -> EvalSplit:
    """Split each user's history into train prefix / valid target / test target.

    Users with fewer than three interactions cannot donate both targets; their
    whole history stays in train and they are flagged as excluded.
    """
    train: list[InteractionSequence] = []
    valid: list[EvalCase] = []
    test: list[EvalCase] = []
    excluded: list[str] = []
    for seq in sequences:
        if len(seq.items) < 3:
            train.append(seq)
            excluded.append(seq.user_id)
            continue
        train.append(InteractionSequence(seq.user_id, seq.items[:-2]))
        valid.append(EvalCase(seq.user_id, seq.items[:-2], seq.items[-2]))
        test.append(EvalCase(seq.user_id, seq.items[:-1], seq.items[-1]))
    return EvalSplit(train, valid, test, excluded)


@dataclass
class ColdStartSplit:
    """Test cases bucketed by whether the target ever appears in train history."""

    in_set: list[EvalCase]
    cold: list[EvalCase]
    train_item_ids: set[str]


def cold_start_split(sequences: Sequence[InteractionSequence]) -> ColdStartSplit:
    split = leave_one_out(sequences)
    seen = {item for seq in split.train for item in seq.items}
    in_set = [c for c in split.test if c.target in seen]
    cold = [c for c in split.test if c.target not in seen]
    return ColdStartSplit(in_set, cold, seen)


# ---------------------------------------------------------------------------
# metrics


# Scores per `cosine_scores` call in `rank_of_target`: bounds a block's (users,
# items) arrays at a few MB while one call's item norms serve many histories.
RANK_BLOCK_SCORES = 1 << 18


def rank_of_target(hs: np.ndarray, item_rows: np.ndarray, target_index) -> np.ndarray:
    """(U,) 1-based ranks of a (U, d) block's targets; ties do not push a target down.
    The block is scored RANK_BLOCK_SCORES // len(item_rows) histories per call
    (one at least)."""
    targets = np.reshape(target_index, (len(hs), 1))
    step = max(1, RANK_BLOCK_SCORES // max(len(item_rows), 1))
    ranks = np.empty(len(hs), dtype=np.int64)
    for start in range(0, len(hs), step):
        scores = cosine_scores(hs[start:start + step], item_rows)
        ranks[start:start + step] = 1 + (
            scores > np.take_along_axis(scores, targets[start:start + step], 1)).sum(1)
    return ranks


def ndcg_at_k(rank: int, k: int = 10) -> float:
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def recall_at_k(rank: int, k: int = 10) -> float:
    return 1.0 if rank <= k else 0.0


def mrr(rank: int) -> float:
    return 1.0 / rank


def random_baseline_mrr(n_items: int) -> float:
    """Expected MRR of a uniformly random ranking: H(n)/n."""
    if n_items < 1:
        raise ValueError("need at least one item")
    return sum(1.0 / r for r in range(1, n_items + 1)) / n_items


@dataclass
class EvalReport:
    metrics: dict[str, float]
    n_users: int
    fingerprint: str
    protocol: str = "leave-one-out"
    encoder_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "n_users": self.n_users,
            "fingerprint": self.fingerprint,
            "encoder_fingerprint": self.encoder_fingerprint,
            "metrics": {k: self.metrics[k] for k in METRIC_KEYS},
        }

    def csv_row(self) -> str:
        vals = ",".join(f"{self.metrics[k]:.6f}" for k in METRIC_KEYS)
        return f"{vals},{self.n_users}"


# ---------------------------------------------------------------------------
# evaluation drivers


def evaluate_cases(encoder: Encoder, item_rows: np.ndarray, item_index: dict[str, int],
                   cases: Sequence[EvalCase], catalog: Catalog, vocab: Vocabulary,
                   limits: InputLimits = InputLimits(), fingerprint: str = "",
                   protocol: str = "leave-one-out", encoder_fingerprint: str = "") -> EvalReport:
    """Rank every case's target against the full matrix with one `rank_of_target`
    call, which scores the cases in blocks; mean the metrics."""
    if not cases:
        raise ValueError("no evaluation cases")
    unknown = next((c.target for c in cases if c.target not in item_index), None)
    if unknown is not None:
        raise CatalogError(f"unknown item id '{unknown}'")
    inputs = [build_model_input(c.context, catalog, vocab, limits) for c in cases]
    users = encode_rows(encoder, inputs).data
    ranks = rank_of_target(users, item_rows, [item_index[c.target] for c in cases]).tolist()
    # np.cumsum adds case by case on every Python; sum() compensates from Python 3.12
    metrics = {k: float(np.cumsum([f(r) for r in ranks])[-1]) / len(ranks)
               for k, f in zip(METRIC_KEYS, (ndcg_at_k, recall_at_k, mrr))}
    return EvalReport(metrics, len(ranks), fingerprint, protocol, encoder_fingerprint)


def zero_shot_evaluate(encoder: Encoder, sequences: Sequence[InteractionSequence],
                       catalog: Catalog, vocab: Vocabulary,
                       limits: InputLimits = InputLimits()) -> EvalReport:
    """Evaluate an encoder on a domain it never trained on, as-is.

    Out-of-vocabulary words degrade to the unknown token inside the shared
    vocabulary; no parameter is touched.
    """
    from .trainer import encode_all_items  # local import, trainer depends on us

    split = leave_one_out(sequences)
    if not split.test:
        raise ValueError("no users with enough interactions to evaluate")
    matrix = encode_all_items(encoder, catalog, vocab, limits)
    return evaluate_cases(encoder, matrix.rows, matrix.index, split.test, catalog,
                          vocab, limits, fingerprint=matrix.fingerprint,
                          protocol="zero-shot", encoder_fingerprint=matrix.fingerprint)
