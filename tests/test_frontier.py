"""tools/frontier.py's per-cell runner, run as CI runs it: one cell per process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ramseykit.cli import CELLS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "frontier.py"
W24 = next(c for c in CELLS if (c.kind, c.target, c.keys) == ("vdw", 4, {"m": 2}))  # 0.03 s
FAIL = next(c for c in CELLS if c.verdict == "fail" and c.wall is not None)  # 0.7 s


@pytest.mark.parametrize("cell, code", [
    (W24, 0),
    (W24._replace(verdict="pass"), 0),  # the search's upper certificate as a check
    (W24._replace(verdict="fail", n=W24.n - 1), 0),  # and its lower one
    (FAIL, 0),
    (W24._replace(n=W24.n + 1), 1),
    (W24._replace(verdict="pass", n=W24.n - 1), 1),
    (W24._replace(rss=1), 1),
], ids=["search", "passing check", "failing check", "failing check row", "wrong value",
        "wrong verdict", "over its peak RSS"])
def test_runner_gates_one_cell(cell, code):
    run = subprocess.run([sys.executable, str(SCRIPT), json.dumps(cell)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stdout + run.stderr
    assert f"{cell.kind} {cell.keys} t={cell.target}:" in run.stdout
