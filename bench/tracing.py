"""Outside-in layer trace: spans around calls into each txrec module.

Each wrapped function records one span (name, start, end, parent span,
request id). The benchmark opens a root span around each unit of work it
hands the package, and every span below it carries that unit's request id.
Spans stay in memory and are written out once, at the end.

Wrapping replaces the function object wherever a txrec module (or class)
binds it, so `from .x import y` import sites are patched too. Closures the
package creates internally, such as the attention backward rule, are not
reachable from outside; their time shows as self time of the wrapped caller
(`GradTape.backward`).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

from txrec import catalog, checkpoint, cli, encoder, evaluator, objectives, tensor, trainer

clock = time.perf_counter

# module -> public functions and methods the benchmark traces. Left out:
# `tokenize`, which runs per attribute field and shows as flatten_item self
# time, and `truncated_normal`, which shows as the random init in
# Encoder.__init__ self time.
TRACED = {
    "catalog": ["build_model_input", "item_input", "flatten_item", "load_items_jsonl"],
    "encoder": ["Encoder.__init__", "Encoder.encode", "Encoder.embed", "Encoder.sequence_repr",
                "Encoder.load_state_dict", "build_window_index", "params_fingerprint"],
    "tensor": ["add", "scale", "reshape", "transpose", "gather_rows", "embedding_lookup",
               "take_row", "stack_rows", "concat_rows", "matmul", "matmul_nt", "gelu",
               "layer_norm", "l2_normalize_rows", "dropout",
               "cross_entropy_mean", "windowed_attention",
               "GradTape.backward", "Adam.step", "clip_global_norm"],
    "objectives": ["cosine_scores", "make_masking_plan", "apply_masking_plan", "MLMHead.logits",
                   "pooled_mlm_loss", "iic_inbatch_loss", "pretrain_loss", "finetune_loss"],
    "trainer": ["encode_all_items", "pretrain", "two_stage_finetune", "pretrain_examples",
                "finetune_examples", "save_state", "load_state", "early_stop"],
    "evaluator": ["evaluate_cases", "rank_of_target"],
    "checkpoint": ["load_checkpoint"],
    "cli": ["main"],
}
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
           (catalog, checkpoint, cli, encoder, evaluator, objectives, tensor, trainer)}
# `Encoder.encode` is the encoder module's entry point and reports as `encoder.encode`.
ALIASES = {"encoder.Encoder.encode": "encoder.encode"}

# Which wrapped functions each workload's traced pass must reach.
REQUIRED = {
    "zero-shot": ["trainer.encode_all_items", "evaluator.evaluate_cases", "encoder.encode",
                  "catalog.build_model_input", "catalog.item_input", "catalog.flatten_item",
                  "tensor.windowed_attention", "tensor.gelu", "tensor.matmul", "tensor.layer_norm",
                  "objectives.cosine_scores", "evaluator.rank_of_target"],
    "recommend": ["cli.main", "checkpoint.load_checkpoint", "catalog.load_items_jsonl",
                  "encoder.Encoder.__init__", "encoder.Encoder.load_state_dict", "encoder.encode",
                  "catalog.build_model_input", "objectives.cosine_scores",
                  "tensor.windowed_attention"],
    "train": ["trainer.pretrain", "trainer.two_stage_finetune", "trainer.encode_all_items",
              "evaluator.evaluate_cases", "tensor.GradTape.backward", "tensor.Adam.step",
              "tensor.clip_global_norm", "tensor.dropout", "objectives.finetune_loss",
              "objectives.pooled_mlm_loss", "objectives.iic_inbatch_loss",
              "objectives.make_masking_plan", "catalog.flatten_item", "encoder.encode"],
}

BUCKETS = {"t64": (32, 128), "t256": (128, 512), "t1024": (512, 1025)}  # (lo, hi] tokens


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Install with `with tracer.installed():`; read results with `table()` and `layer_metrics()`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []          # (name_id, start, end, parent, request)
        self._stack: list[int] = []
        self.request = -1
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self._items_flattened: set = set()
        self.wall_s = 0.0

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- hooks that read counts at the layer boundary ------------------------

    def _pre(self, name, args, kwargs):
        if name == "tensor.GradTape.backward":
            self.counts["tape_records"] += len(args[0])
        elif name == "tensor.windowed_attention":
            valid = _arg(args, kwargs, 4, "neighbor_valid")
            self.counts["slots_valid"] += int(valid.sum())
            self.counts["slots_computed"] += valid.size
        elif name == "catalog.flatten_item":
            self._items_flattened.add(args[0].item_id)
        elif name == "evaluator.evaluate_cases":
            self.counts["cases"] += len(_arg(args, kwargs, 3, "cases"))
        elif name == "checkpoint.load_checkpoint":
            self.counts["ckpt_bytes"] += os.path.getsize(args[0])

    def _post(self, name, args, result, dur):
        if name == "catalog.build_model_input":
            self.counts["tokens_built"] += len(result)
        elif name == "objectives.make_masking_plan":
            self.counts["masked_positions"] += len(result)
        elif name == "trainer.pretrain":
            self.counts["epochs"] += len(result)
        elif name == "trainer.two_stage_finetune":
            self.counts["epochs"] += len(result.history)
        elif name == "cli.main" and result != 0:
            self.failed[name] += 1
        elif name == "encoder.encode":
            n = len(args[1].token_ids)
            for b, (lo, hi) in BUCKETS.items():
                if lo < n <= hi:
                    self.counts[f"tokens.{b}"] += n
                    self.counts[f"ns.{b}"] += int(dur * 1e9)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        spans, stack = self.spans, self._stack
        hooked = name in HOOKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hooked:
                self._pre(name, args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.request)
            if hooked:
                self._post(name, args, result, t1 - t0)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Root span around one unit of work; starts a new request id."""
        self.request += 1
        nid = self._nid(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, self.request)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore them on exit."""
        patches = []  # (owner, attr, original, wrapped)
        txrec_modules = [m for k, m in sys.modules.items() if k == "txrec" or k.startswith("txrec.")]
        for mod_name, entries in TRACED.items():
            mod = MODULES[mod_name]
            for entry in entries:
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    full = f"{mod_name}.{entry}"
                    patches.append((cls, meth, original, self._wrap(ALIASES.get(full, full), original)))
                    continue
                original = getattr(mod, entry)
                wrapped = self._wrap(f"{mod_name}.{entry}", original)
                for m in txrec_modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            patches.append((m, attr, original, wrapped))
        start_pairs = tensor.attention_pairs.pairs
        start_cache = encoder.build_window_index.cache_info()
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        t0 = clock()
        try:
            yield self
        finally:
            self.wall_s += clock() - t0
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)
            info = encoder.build_window_index.cache_info()
            self.counts["attention_pairs"] += tensor.attention_pairs.pairs - start_pairs
            self.counts["window_hits"] += info.hits - start_cache.hits
            self.counts["window_misses"] += info.misses - start_cache.misses

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        rec = np.asarray([s for s in self.spans if s is not None], dtype=np.float64).reshape(-1, 5)
        return {"names": np.asarray(self.names), "name": rec[:, 0].astype(np.int64),
                "start": rec[:, 1], "end": rec[:, 2], "parent": rec[:, 3].astype(np.int64),
                "request": rec[:, 4].astype(np.int64)}

    def table(self) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s and failed per span name.

        Calls are synchronous and single-threaded, so children never overlap
        and the part of a span they cover is the sum of their durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        busy = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_s, minlength=n)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i]),
                       "failed": int(self.failed[name])}
                for i, name in enumerate(self.names)}

    def completeness(self, workload: str, table) -> list[str]:
        """A missed import site or an unwrapped gap shows up here, not as a silent zero."""
        problems = [f"traced {workload} never reached {name}"
                    for name in REQUIRED[workload] if table.get(name, {}).get("calls", 0) == 0]
        roots = sum(v["busy_s"] for k, v in table.items() if k.startswith("bench."))
        selfs = sum(v["self_s"] for v in table.values())
        if abs(selfs - roots) > 1e-6 * max(roots, 1.0):
            problems.append(f"self times sum to {selfs:.6f} s, root spans to {roots:.6f} s")
        if roots < 0.95 * self.wall_s:
            problems.append(f"root spans cover {roots:.3f} s of {self.wall_s:.3f} s traced wall time")
        return problems

    def layer_metrics(self, table) -> dict[str, float]:
        def get(name, key):
            return table.get(name, {}).get(key, 0)

        c = self.counts
        out = {
            "encoder.encode.calls": get("encoder.encode", "calls"),
            "tensor.ops.calls": sum(v["calls"] for k, v in table.items()
                                    if k.startswith("tensor.") and "." not in k[7:]),
            "encoder.window_index.hit_ratio":
                c["window_hits"] / max(c["window_hits"] + c["window_misses"], 1),
            "encoder.Encoder.__init__.self_s": get("encoder.Encoder.__init__", "self_s"),
            "tensor.attention_pairs": c["attention_pairs"],
            "tensor.windowed_attention.slot_use": c["slots_valid"] / max(c["slots_computed"], 1),
            "tensor.tape_records": c["tape_records"],
            "catalog.tokens_built": c["tokens_built"],
            "catalog.flatten_item.repeat_ratio":
                get("catalog.flatten_item", "calls") / max(len(self._items_flattened), 1),
            "objectives.masked_positions": c["masked_positions"],
            "trainer.epochs": c["epochs"],
            "evaluator.cases": c["cases"],
            "checkpoint.load_checkpoint.bytes": c["ckpt_bytes"],
            "cli.main.failed": get("cli.main", "failed"),
        }
        for b in BUCKETS:
            out[f"encoder.encode.us_per_token.{b}"] = c[f"ns.{b}"] / 1e3 / max(c[f"tokens.{b}"], 1)
        for name in SELF_S:
            out[f"{name}.self_s"] = get(name, "self_s")
        for name in BUSY_S:
            out[f"{name}.busy_s"] = get(name, "busy_s")
        return out


HOOKED = {"tensor.GradTape.backward", "tensor.windowed_attention", "catalog.flatten_item",
          "evaluator.evaluate_cases", "checkpoint.load_checkpoint", "catalog.build_model_input",
          "objectives.make_masking_plan", "trainer.pretrain", "trainer.two_stage_finetune",
          "cli.main", "encoder.encode"}
SELF_S = ["tensor.windowed_attention", "tensor.gelu", "tensor.matmul", "tensor.layer_norm",
          "tensor.GradTape.backward", "tensor.Adam.step", "tensor.clip_global_norm",
          "catalog.build_model_input", "catalog.load_items_jsonl", "objectives.cosine_scores",
          "objectives.finetune_loss", "objectives.pooled_mlm_loss", "objectives.iic_inbatch_loss",
          "objectives.make_masking_plan", "checkpoint.load_checkpoint", "cli.main"]
BUSY_S = ["trainer.encode_all_items", "evaluator.evaluate_cases"]
