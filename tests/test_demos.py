"""The demos stay in step with the package API.

Every demo's `from txrec... import` names must resolve, which is cheap.
The other demos train models and take seconds each, so only the
encode-and-rank walk-through runs end to end here.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_01_runs_and_prints_plain_token_ids():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_encode_and_rank.py")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith("token ids"))
    ids = ast.literal_eval(line.split("token ids", 1)[1].strip())
    assert ids and all(type(v) is int for v in ids)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = [node for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "txrec"]
    assert imports, f"{demo.name} imports nothing from txrec"
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert not missing, f"{demo.name} imports names txrec no longer has: {missing}"
