"""Every name the benchmark's tracer wraps must exist, or `--trace 1` breaks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,entry", [(m, e) for m, entries in tracing.TRACED.items()
                                          for e in entries])
def test_traced_name_resolves(module, entry):
    owner = tracing.MODULES[module]
    if "." in entry:
        cls_name, entry = entry.split(".")
        owner = getattr(owner, cls_name)
        assert entry in vars(owner), f"{module}.{cls_name} does not define {entry}"
    assert callable(getattr(owner, entry, None)), f"{module}.{entry} does not resolve"
