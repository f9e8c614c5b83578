"""The benchmark's traced pass reaches every layer it reports on.

`test_bench_names.py` checks that the names the tracer wraps resolve. This
runs one companion-size pass of each workload under the tracer and checks
that the pass calls every function its workload requires, for example
`Encoder.encode` and `rank_of_target`, and that its spans account for the
traced time. A code path that bypasses a traced function fails here, not
only when `python3 bench/run.py --trace 1` is run. So does an encoder call
to `windowed_attention` in another form than the one the tracer reads.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from txrec import tensor
from txrec.catalog import ModelBatch, ModelInput
from txrec.encoder import Encoder, EncoderConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("workload", sorted(tracing.REQUIRED))
def test_traced_companion_pass_is_complete(workload, tmp_path):
    data = workloads.make(workload, "companion", 0, tmp_path)
    result = workloads.new_result(workload)
    tracer = tracing.Tracer()
    with tracer.installed():
        for _ in workloads.PASS[workload](data, result, tracer.span):
            pass
    assert tracer.completeness(workload, tracer.table()) == []
    assert workloads.CHECK[workload](data, result.outputs) == []


def test_encoder_passes_neighbor_valid_where_the_tracer_reads_it(monkeypatch):
    """`Tracer._pre` reads `windowed_attention`'s 5th positional argument as
    neighbor_valid, a boolean (len, 3w + 1) array, to count slot use. A call
    that passes something else there fails here, not in a traced run."""
    cfg = EncoderConfig(d=8, n_layers=2, n_heads=2, window=3, ffn_dim=16, vocab_size=12,
                        max_tokens=30, max_items=4, dropout=0.0)
    enc = Encoder(cfg, np.random.default_rng(0))
    original, calls = tensor.windowed_attention, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(tensor, "windowed_attention", spy)
    inputs = [ModelInput(token_ids=np.full(n, 5), token_types=np.zeros(n, np.int64),
                         item_positions=np.zeros(n, np.int64)) for n in (1, 3, 17, 31)]
    for x in inputs:
        enc.encode(x)
    enc.encode(ModelBatch.pack(inputs[1:]))
    assert len(calls) == cfg.n_layers * (len(inputs) + 1)
    assert list(inspect.signature(original).parameters)[4] == "neighbor_valid"
    for args, kwargs in calls:
        assert len(args) >= 5
        valid = tracing._arg(args, kwargs, 4, "neighbor_valid")
        assert valid.dtype == bool and valid.shape == (args[0].shape[2], 3 * cfg.window + 1)
