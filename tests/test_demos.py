"""Every demo script runs to completion, with no RuntimeWarning, and prints something."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # a demo obeys the warning rule of the in-process tests (pyproject.toml)
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(path)],
                       capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
