"""Smoke test: every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter with ``PYTHONPATH=src`` and an
empty working directory, exactly as its docstring tells a reader to run
it, and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    args = []
    if script.name == "trace_benchmark.py":
        # It writes its artifacts to the given directory.
        args = ["philosophers", str(tmp_path / "trace-out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
