"""The benchmark's traced pass reaches every layer it reports on.

`test_bench_names.py` checks that the names the tracer wraps resolve. This
runs one companion-size pass of each workload under the tracer and checks
that the pass calls every function its workload requires, for example
`Encoder.encode` and `rank_of_target`, and that its spans account for the
traced time. A code path that bypasses a traced function fails here, not
only when `python3 bench/run.py --trace 1` is run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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
