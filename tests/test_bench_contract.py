"""The library names the benchmark calls stay in place: its gate self-test
runs one reduced pass of every workload against the library and must pass,
and the methods whose calls it counts stay where its tracer looks."""
import pathlib
import subprocess
import sys

import pytest

from spolyreg import series

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                       capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr


# The tracer wraps only the functions in a public class's own __dict__; a
# method inherited from a private base would read 0 calls in series.* metrics.
@pytest.mark.parametrize("cls,methods", [
    (series.SliceSeries, ("star", "eval", "eval_many")),
    (series.PolySliceSeries, ("star", "eval", "eval_left", "eval_many", "conj")),
    (series.RightPolySeries, ("star", "eval", "conj")),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_traced_series_methods_are_own_attributes(cls, methods):
    assert [m for m in methods if m not in vars(cls)] == []
