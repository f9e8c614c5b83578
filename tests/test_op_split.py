"""`op_split.py` books each op's forward and backward time, and leaves the ops
as it found them."""

from __future__ import annotations

import op_split
from txrec import tensor as T, trainer


def _bindings():
    return (T.windowed_attention, T.kept_rows_attention, T.matmul, T.Adam.step,
            T.GradTape.record, trainer.clip_global_norm)


def test_one_step_on_a_tiny_corpus_books_both_attention_ops():
    before = _bindings()
    rec, step_s = op_split.split(1, seed=3, size="companion")
    for name in ("windowed_attention", "kept_rows_attention"):
        assert rec.calls[name] > 0 and rec.forward[name] > 0.0 and rec.backward[name] > 0.0
    assert step_s > 0.0 and rec.forward["Adam.step"] > 0.0
    assert _bindings() == before
    table = op_split.table(rec, step_s, 1)
    assert "kept_rows_attention" in table and table.splitlines()[-1].startswith("step")
