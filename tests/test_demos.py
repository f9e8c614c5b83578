"""Demo 01 runs end to end against the current input API.

The other demos train models and take seconds each, so only the
encode-and-rank walk-through runs here.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_01_runs_and_prints_plain_token_ids():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_encode_and_rank.py")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith("token ids"))
    ids = ast.literal_eval(line.split("token ids", 1)[1].strip())
    assert ids and all(type(v) is int for v in ids)
