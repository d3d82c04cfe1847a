"""Every narrated demo runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseykit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # As in test_c11: the child gets the absolute directory of the package
    # this process imported, so it needs neither an install nor a relative
    # PYTHONPATH entry that resolves only from the repository root.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramseykit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
