"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated here from the workload seed; the package only sees
the generated catalogs, histories, files and configs. Each operation exists
at two sizes: the full size a workload runs for its timed phase, and a small
"companion" size that untraced runs use to report the end-to-end metrics of
the other two workloads.

An operation is a generator of passes over its inputs. A pass yields after
each unit of work (an index shard, a ranked chunk, a request, a pretrain or
finetune call) and records one sample per unit, with the time it was taken.
Metrics are medians or percentiles of those samples.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from txrec import catalog as C
from txrec import cli, evaluator, trainer
from txrec.encoder import Encoder, EncoderConfig
from txrec.objectives import LossConfig, MLMHead
from txrec.rng import stream
from txrec.synthetic import SyntheticSpec, generate_domain

clock = time.perf_counter

# Paper limits: 1,024 history tokens, 50 items, d=64, 2 layers, window 8.
LIMITS = C.InputLimits(max_tokens=1024, max_items=50, tokens_per_field=16)
TOPK = 10
BLOCK_REQUESTS = 20     # recommend requests per block; each block has the same length mix
ROW_TOL = 1e-5
SCORE_TOL = 1e-5
TIE_TOL = 1e-6          # float32 vs float64 cosine may reorder only near-ties

# "full" runs in the workload that owns the operation, "companion" in the other two.
# A recommend pass sends 100 requests, so that 10 latency samples lie beyond p90.
SIZES = {
    "zero-shot": {"full": dict(n_items=4000, shard_items=250, n_chunks=20, chunk_users=15),
                  "companion": dict(n_items=400, shard_items=25, n_chunks=4, chunk_users=10)},
    "recommend": {"full": dict(n_items=4000, requests=100),
                  "companion": dict(n_items=400, requests=100)},
    "train": {"full": dict(items_per_domain=200, users_per_domain=8),
              "companion": dict(items_per_domain=20, users_per_domain=4)},
}

_SYL = ("ka", "lo", "mu", "ne", "pi", "ra", "so", "tu",
        "vi", "ze", "bo", "di", "fa", "gu", "hi", "jo")


def paper_config(vocab_size: int, dropout: float = 0.0) -> EncoderConfig:
    return EncoderConfig(d=64, n_layers=2, n_heads=2, window=8, ffn_dim=256,
                         vocab_size=vocab_size, max_tokens=LIMITS.max_tokens,
                         max_items=LIMITS.max_items, dropout=dropout)


def described_items(seed: int, domain: int, items: list[C.Item]) -> list[C.Item]:
    """Add a seeded 8-12 word description, so an item sentence is ~20 tokens."""
    rng = stream(seed, f"bench-description-{domain}")
    words = [f"{a}{b}q{domain}" for a in _SYL for b in _SYL]
    out = []
    for it in items:
        n = int(rng.integers(8, 13))
        text = " ".join(words[int(j)] for j in rng.integers(0, len(words), size=n))
        out.append(C.Item(it.item_id, it.attributes + (("Description", text),)))
    return out


def domain_items(seed: int, domain: int, n_items: int) -> list[C.Item]:
    spec = SyntheticSpec(seed=seed, n_domains=domain + 1, items_per_domain=n_items,
                         users_per_domain=0)
    items, _ = generate_domain(spec, domain)
    return described_items(seed, domain, items)


def stratified_sequences(rng: np.random.Generator, ids: list[str], n: int, lo: int, hi: int,
                         prefix: str) -> list[C.InteractionSequence]:
    """n histories whose lengths span lo..hi evenly; only the items depend on the seed."""
    lengths = rng.permutation(np.linspace(lo, hi, n).round().astype(int))
    return [C.InteractionSequence(f"{prefix}{u:04d}",
                                  tuple(ids[int(j)] for j in rng.integers(0, len(ids), size=int(length))))
            for u, length in enumerate(lengths)]


def length_histogram(lengths) -> dict[str, int]:
    edges = (32, 64, 128, 256, 512, 1025)
    hist = {f"<={e}": 0 for e in edges}
    for n in lengths:
        for e in edges:
            if n <= e:
                hist[f"<={e}"] += 1
                break
    return hist


def cosine64(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    h = h.astype(np.float64)
    r = rows.astype(np.float64)
    return (r @ h) / np.maximum(np.linalg.norm(r, axis=1) * np.linalg.norm(h), 1e-12)


@dataclass
class OpResult:
    """Per-unit samples of one or more runs of an operation, and its outputs."""

    samples: dict[str, list[float]]
    times: dict[str, list[float]]   # clock() at the middle of each sample's unit
    attempted: int
    outputs: list   # what the checks read, after the timed (or traced) phase

    def add(self, key: str, value: float, t0: float, t1: float) -> None:
        """One sample of a unit of work that ran from t0 to t1."""
        self.samples[key].append(value)
        self.times[key].append(0.5 * (t0 + t1))

    def scaled(self, speed_at, exponents: dict[str, int]) -> "OpResult":
        """Samples multiplied by speed_at(t) ** exponent, each at its own time t."""
        samples = {k: [v * speed_at(t) ** exponents.get(k, 0) for v, t in zip(vs, self.times[k])]
                   for k, vs in self.samples.items()}
        return OpResult(samples, self.times, self.attempted, self.outputs)

    def metrics(self) -> dict[str, float]:
        out = {k: float(np.median(v)) for k, v in self.samples.items() if k != "recommend_ms"}
        if "recommend_ms" in self.samples:
            p50, p90 = np.percentile(self.samples["recommend_ms"], [50, 90])
            out.update(recommend_ms_p50=float(p50), recommend_ms_p90=float(p90))
        return out


def _no_span(name: str):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# zero-shot: encode an unseen catalog, then rank leave-one-out users against it


@dataclass
class ZeroShotData:
    encoder: Encoder
    vocab: C.Vocabulary
    catalog: C.Catalog
    shards: list[C.Catalog]
    chunks: list[list[evaluator.EvalCase]]

    def sizes(self) -> dict:
        lens = [len(C.build_model_input(c.context, self.catalog, self.vocab, LIMITS))
                for chunk in self.chunks for c in chunk]
        return {"items": len(self.catalog), "items_per_call": len(self.shards[0]),
                "users": len(lens), "users_per_call": len(self.chunks[0]),
                "history_tokens": length_histogram(lens)}


def unseen_catalog(seed: int, n_items: int) -> tuple[C.Vocabulary, C.Catalog, Encoder]:
    """Vocabulary of a training domain (0), catalog of an unseen one (1), seeded weights.

    Cost does not depend on weight values, so a seeded init stands in for a
    pretrained encoder.
    """
    vocab = C.Vocabulary.build(domain_items(seed, 0, 200))
    catalog = C.Catalog(domain_items(seed, 1, n_items))
    return vocab, catalog, Encoder(paper_config(vocab.size), stream(seed, "init"))


def make_zero_shot(seed: int, n_items: int, shard_items: int, n_chunks: int,
                   chunk_users: int) -> ZeroShotData:
    vocab, catalog, encoder = unseen_catalog(seed, n_items)
    rng = stream(seed, "bench-zero-shot-users")
    ids = catalog.ids
    # context lengths 3..56 items: ~64 to 1,025 tokens, truncated at the top
    chunks = [evaluator.leave_one_out(
        stratified_sequences(rng, ids, chunk_users, 4, 57, f"c{c}u")).test
        for c in range(n_chunks)]
    items = list(catalog)
    shards = [C.Catalog(items[i:i + shard_items]) for i in range(0, len(items), shard_items)]
    encoder.sequence_repr(C.item_input(ids[0], catalog, vocab, LIMITS))  # warm-up
    return ZeroShotData(encoder, vocab, catalog, shards, chunks)


def zero_shot_pass(data: ZeroShotData, res: OpResult, span=_no_span):
    """Index the catalog shard by shard (one encode_all_items call each), then rank
    users chunk by chunk (one evaluate_cases call each) against the assembled
    matrix. `span(name)` wraps each unit of work in a root span in traced runs."""
    enc, cat, vocab = data.encoder, data.catalog, data.vocab
    parts = []
    for shard in data.shards:
        with span("bench.index"):
            t0 = clock()
            parts.append(trainer.encode_all_items(enc, shard, vocab, LIMITS))
            t1 = clock()
            res.add("index_items_per_s", len(shard) / (t1 - t0), t0, t1)
        res.attempted += len(shard)
        yield
    matrix = trainer.ItemFeatureMatrix([i for p in parts for i in p.ids],
                                       np.vstack([p.rows for p in parts]), parts[0].fingerprint)
    ranked = []
    res.outputs.append((matrix, ranked))
    for c, chunk in enumerate(data.chunks):
        with span("bench.rank"):
            t0 = clock()
            rep = evaluator.evaluate_cases(enc, matrix.rows, matrix.index, chunk, cat, vocab,
                                           LIMITS, fingerprint=matrix.fingerprint,
                                           protocol="zero-shot")
            t1 = clock()
            res.add("eval_users_per_s", len(chunk) / (t1 - t0), t0, t1)
        res.attempted += len(chunk)
        ranked.append((c, rep))
        yield


def check_zero_shot(data: ZeroShotData, outputs) -> list[str]:
    """Sampled matrix rows against single encodes; the first and last ranked chunks
    against a rank oracle. Reads the last pass that ranked anything."""
    problems = []
    enc, cat, vocab = data.encoder, data.catalog, data.vocab
    for matrix, ranked in [p for p in outputs if p[1]][-1:]:
        rng = np.random.default_rng(len(matrix.ids))
        for i in rng.choice(len(matrix.ids), size=min(16, len(matrix.ids)), replace=False):
            want = enc.sequence_repr(C.item_input(matrix.ids[i], cat, vocab, LIMITS))
            if not np.allclose(matrix.rows[i], want, rtol=0.0, atol=ROW_TOL):
                problems.append(f"matrix row {matrix.ids[i]} differs from its single encode")
        for c, report in ranked[:1] + ranked[1:][-1:]:
            problems += _check_chunk(data, matrix, data.chunks[c], report)
    return problems


def _check_chunk(data: ZeroShotData, matrix, cases, report) -> list[str]:
    """Each metric lies between the values of the oracle's ranks with near-ties broken
    either way: the stable-sort rank counts only strictly better scores."""
    lo_sum = {k: 0.0 for k in evaluator.METRIC_KEYS}
    hi_sum = dict(lo_sum)
    for case in cases:
        h = data.encoder.sequence_repr(C.build_model_input(case.context, data.catalog,
                                                           data.vocab, LIMITS))
        s = cosine64(h, matrix.rows)
        t = s[matrix.index_of(case.target)]
        best = 1 + int((s > t + TIE_TOL).sum())
        worst = int((s > t - TIE_TOL).sum())
        for k, m in (("ndcg@10", evaluator.ndcg_at_k), ("recall@10", evaluator.recall_at_k),
                     ("mrr", evaluator.mrr)):
            lo_sum[k] += m(worst)
            hi_sum[k] += m(best)
    n = len(cases)
    bad = [k for k in evaluator.METRIC_KEYS
           if not lo_sum[k] / n - 1e-9 <= report.metrics[k] <= hi_sum[k] / n + 1e-9]
    if report.n_users != n or bad:
        return [f"evaluate_cases disagrees with the rank oracle on {bad or 'n_users'}"]
    return []


# ---------------------------------------------------------------------------
# recommend: in-process `txrec recommend` requests against a saved model


@dataclass
class RecommendData:
    encoder: Encoder
    vocab: C.Vocabulary
    catalog: C.Catalog
    matrix: trainer.ItemFeatureMatrix
    ckpt: Path
    items_path: Path
    requests: int
    rng: np.random.Generator

    def sizes(self) -> dict:
        return {"items": len(self.catalog), "history_items": [3, 50],
                "requests_per_pass": self.requests,
                "ckpt_bytes": self.ckpt.stat().st_size}

    def next_block(self) -> list[list[str]]:
        return [list(s.items) for s in
                stratified_sequences(self.rng, self.catalog.ids, BLOCK_REQUESTS, 3, 50, "r")]


def make_recommend(seed: int, n_items: int, requests: int, workdir: Path) -> RecommendData:
    """Items JSONL plus a model checkpoint that stores its item matrix, as finetune writes it."""
    vocab, catalog, encoder = unseen_catalog(seed, n_items)
    items_path = workdir / f"items-{n_items}.jsonl"
    ckpt = workdir / f"model-{n_items}.ckpt"
    C.write_items_jsonl(items_path, catalog)
    matrix = trainer.encode_all_items(encoder, catalog, vocab, LIMITS)
    cli._save_model_ckpt(str(ckpt), encoder, vocab, LIMITS, LossConfig(), seed, matrix=matrix)
    data = RecommendData(encoder, vocab, catalog, matrix, ckpt, items_path, requests,
                         stream(seed, "bench-recommend-requests"))
    _request(data, catalog.ids[:3])  # warm-up: first call pays parser and logging set-up
    return data


def _request(data: RecommendData, history: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["recommend", "--ckpt", str(data.ckpt), "--items", str(data.items_path),
                       "--history", ",".join(history), "--topk", str(TOPK)])
    return rc, out.getvalue()


def recommend_pass(data: RecommendData, res: OpResult, span=_no_span):
    """`requests` requests in blocks of BLOCK_REQUESTS, one after another."""
    for _ in range(data.requests // BLOCK_REQUESTS):
        for history in data.next_block():
            with span("bench.request"):
                t0 = clock()
                try:
                    rc, out = _request(data, history)
                except Exception as e:  # a crashed request counts as failed
                    rc, out = -1, repr(e)
                t1 = clock()
                res.add("recommend_ms", (t1 - t0) * 1000.0, t0, t1)
            res.attempted += 1
            res.outputs.append((history, rc, out))
            yield


def check_recommend(data: RecommendData, served) -> list[str]:
    """Every response against a cosine oracle in float64 with (-score, id) order."""
    problems = []
    ids, rows = data.matrix.ids, data.matrix.rows
    for history, rc, out in served:
        if rc != 0:
            problems.append(f"recommend exited {rc}: {out[:200]}")
            continue
        h = data.encoder.sequence_repr(C.build_model_input(history, data.catalog,
                                                           data.vocab, LIMITS))
        s = cosine64(h, rows)
        oracle = heapq.nsmallest(TOPK, range(len(ids)), key=lambda i: (-s[i], ids[i]))
        try:
            resp = json.loads(out)
            got = [data.matrix.index_of(r["item_id"]) for r in resp]
            scores = [float(r["score"]) for r in resp]
        except (ValueError, KeyError, TypeError):
            problems.append(f"unreadable recommend response {out[:200]!r}")
            continue
        ok = len(got) == len(oracle) and len(set(got)) == len(got)
        for j, (i, score) in enumerate(zip(got, scores)):
            ok = ok and abs(score - s[i]) <= SCORE_TOL and abs(score - s[oracle[j]]) <= SCORE_TOL
            ok = ok and (i == oracle[j] or abs(s[i] - s[oracle[j]]) <= TIE_TOL)
        if not ok:
            problems.append(f"recommend top-{TOPK} differs from the oracle for {history[:3]}...")
    return problems


# ---------------------------------------------------------------------------
# train: pretrain, then two-stage finetune, on a 2-domain corpus


@dataclass
class TrainData:
    seed: int
    vocab: C.Vocabulary
    catalog: C.Catalog
    sequences: list[C.InteractionSequence]
    split: evaluator.EvalSplit

    def sizes(self) -> dict:
        lens = [len(C.build_model_input(s.items[:-1], self.catalog, self.vocab, LIMITS))
                for s in self.sequences]
        return {"items": len(self.catalog), "users": len(self.sequences),
                "history_tokens": length_histogram(lens),
                "pretrain_epochs": PRETRAIN_EPOCHS, "finetune_epochs_per_stage": 1}


# A pass is one pretrain call and one finetune call, each a few seconds at full
# size, so the samples of both metrics spread evenly over a run.
PRETRAIN_EPOCHS = 2
LOSS = LossConfig(temperature=0.05, mlm_weight=0.1)


def make_train(seed: int, items_per_domain: int, users_per_domain: int) -> TrainData:
    """Synthetic brand-affine users, cut to lengths spread evenly over 8..14 items."""
    spec = SyntheticSpec(seed=seed, n_domains=2, items_per_domain=items_per_domain,
                         users_per_domain=users_per_domain, min_len=14, max_len=14)
    lengths = np.linspace(8, 14, users_per_domain).round().astype(int)
    items, seqs = [], []
    for dom in range(2):
        its, users = generate_domain(spec, dom)
        items += described_items(seed, dom, its)
        seqs += [C.InteractionSequence(u.user_id, u.items[:n]) for u, n in zip(users, lengths)]
    catalog = C.Catalog(items)
    vocab = C.Vocabulary.build(items)
    enc = Encoder(paper_config(vocab.size, dropout=0.1), stream(seed, "init"))
    enc.sequence_repr(C.item_input(items[0].item_id, catalog, vocab, LIMITS))  # warm-up
    return TrainData(seed, vocab, catalog, seqs, evaluator.leave_one_out(seqs))


def train_pass(data: TrainData, res: OpResult, span=_no_span):
    """A fresh seeded model pretrained for PRETRAIN_EPOCHS epochs, then finetuned
    with a fixed 1+1 epoch `two_stage_finetune`. Each call leaves one sample: its
    wall time over its epoch count. Every pass repeats the same arithmetic."""
    with span("bench.pretrain"):
        cfg = paper_config(data.vocab.size, dropout=0.1)
        init = stream(data.seed, "init")
        enc = Encoder(cfg, init)
        head = MLMHead(cfg.d, data.vocab.size, init)
        t0 = clock()
        history = trainer.pretrain(
            data.sequences, data.catalog, data.vocab, enc, head,
            trainer.TrainConfig(n_epochs=PRETRAIN_EPOCHS, pretrain_batch=16, lr=1e-3, seed=data.seed),
            LOSS, LIMITS)
        t1 = clock()
    res.add("pretrain_epoch_s", (t1 - t0) / len(history), t0, t1)
    res.add("pretrain_loss", float(history[-1]["loss"]), t0, t1)  # same every pass
    res.attempted += len(history)
    res.outputs.append(("pretrain", history))
    yield
    with span("bench.finetune"):
        t0 = clock()
        # patience above n_epochs: both stages always run their one epoch
        result = trainer.two_stage_finetune(
            data.split, data.catalog, data.vocab, enc,
            trainer.TrainConfig(n_epochs=1, finetune_batch=16, lr=1e-3, patience=2, seed=data.seed),
            LOSS, LIMITS)
        t1 = clock()
    res.add("finetune_epoch_s", (t1 - t0) / len(result.history), t0, t1)
    res.attempted += len(result.history)
    res.outputs.append(("finetune", result))
    yield


def check_train(data: TrainData, outputs) -> list[str]:
    """Every epoch's loss (pretrain) and validation score (finetune) is finite, and
    so are the finetuned weights and item matrix."""
    problems = []
    for kind, out in outputs:
        if kind == "pretrain":
            problems += [f"pretrain epoch {r['epoch']} loss {r['loss']}" for r in out
                         if not math.isfinite(r["loss"])]
            continue
        problems += [f"finetune stage {r['stage']} epoch {r['epoch']} valid metric "
                     f"{r['valid_metric']}" for r in out.history
                     if not math.isfinite(r["valid_metric"])]
        if not (np.isfinite(out.item_matrix.rows).all()
                and all(np.isfinite(v).all() for v in out.best_state.values())):
            problems.append("finetune produced non-finite weights or item matrix")
    return problems


# ---------------------------------------------------------------------------


def make(kind: str, size: str, seed: int, workdir: Path):
    sizes = SIZES[kind][size]
    if kind == "zero-shot":
        return make_zero_shot(seed, **sizes)
    if kind == "recommend":
        return make_recommend(seed, workdir=workdir, **sizes)
    return make_train(seed, **sizes)


# ---------------------------------------------------------------------------
# reference: a fixed loop that does not touch txrec, timed to track machine speed

REF_NOMINAL_S = 0.01    # the reference unit's time on the machine metrics are scaled to
_REF = np.random.default_rng(0)
_REF_X = _REF.standard_normal((64, 64)).astype(np.float32)
_REF_W1 = (_REF.standard_normal((64, 256)) / 8).astype(np.float32)
_REF_W2 = (_REF.standard_normal((256, 64)) / 16).astype(np.float32)
_REF_IDX = _REF.integers(0, 64, size=(64, 17))
_REF_JSON = [json.dumps({"item_id": f"i{i}", "attributes": [["Title", f"slate kamu{i} mk2"],
                                                            ["Brand", "acme"]]})
             for i in range(12)]


def reference_pass(data, res: OpResult, span=_no_span):
    """One unit of the mix of work txrec does: small float32 matmuls, GELU-like and
    softmax-like elementwise work, a gather, and Python-level JSON and string work.
    Garbage collection is off inside it, so txrec's garbage is not timed here."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        h = _REF_X
        for _ in range(32):
            a = h @ _REF_W1
            a = 0.5 * a * (1.0 + np.tanh(a))
            h = a @ _REF_W2
            h = (h - h.mean(-1, keepdims=True)) / (h.std(-1, keepdims=True) + 1e-5)
            s = np.einsum("ld,lsd->ls", h, h[_REF_IDX])
            e = np.exp(s - s.max(-1, keepdims=True))
            h = h + 0.01 * (e / e.sum(-1, keepdims=True)) @ h[:17]
            words = [w.strip(".,") for line in _REF_JSON
                     for w in json.loads(line)["attributes"][0][1].lower().split()]
            h = h * (1.0 + 1e-6 * len(words))
        t1 = clock()
        res.add("reference_s", t1 - t0, t0, t1)
    finally:
        if gc_was_enabled:
            gc.enable()
    yield


PASS = {"zero-shot": zero_shot_pass, "recommend": recommend_pass, "train": train_pass,
        "reference": reference_pass}
SAMPLES = {"zero-shot": ("index_items_per_s", "eval_users_per_s"), "recommend": ("recommend_ms",),
           "train": ("pretrain_epoch_s", "finetune_epoch_s", "pretrain_loss"),
           "reference": ("reference_s",)}


def new_result(kind: str) -> OpResult:
    return OpResult({k: [] for k in SAMPLES[kind]}, {k: [] for k in SAMPLES[kind]}, 0, [])
CHECK = {"zero-shot": check_zero_shot, "recommend": check_recommend, "train": check_train}
