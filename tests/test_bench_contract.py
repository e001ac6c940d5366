"""The library names the benchmark calls stay in place: its gate self-test
runs one reduced pass of every workload against the library and must pass."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                       capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
