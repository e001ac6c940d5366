"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

For each workload, runs one pass on a reduced grid, checks that every
gate passes, then perturbs one output value and checks that exactly one
gate fails.  Exits 1 if a gate misses the perturbation or fails on clean
output.  Takes a few seconds.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


def _bump_cell(line: str, index: int, delta: float) -> str:
    cells = line.split(",")
    cells[index] = repr(float(cells[index]) + delta)
    return ",".join(cells)


def _perturb_acceptance(p):
    name, rep = p.outputs[0]
    case = rep.cases[0]
    rep.cases[0] = dataclasses.replace(case, residual=case.residual + 10 * rep.tolerance + 1.0)


def _perturb_kernel_points(p):
    for i, (key, (code, lines)) in enumerate(p.outputs):
        if key[1] == "series":
            lines = [_bump_cell(lines[0], 8, 1e-3)] + lines[1:]
            p.outputs[i] = (key, (code, lines))
            return


def _perturb_transform_grid(p):
    key, (code, lines) = p.outputs[0]
    p.outputs[0] = (key, (code, [_bump_cell(lines[0], 4, 1e-6)] + lines[1:]))


def _perturb_exact_spectral(p):
    for i, (label, a, b) in enumerate(p.outputs):
        if label.startswith("laguerre"):
            p.outputs[i] = (label, a + Fraction(1, 10 ** 12), b)
            return


def _reduced(name: str, seed: int, workdir: str):
    w = workloads.WORKLOADS[name](seed, workdir)
    if name == "acceptance":
        w.suites = ["eigen", "spectrum", "star-identities"]
    elif name == "kernel-points":
        w.ps, w.kinds, w.levels = w.ps[:1], (2,), range(2)
    elif name == "transform-grid":
        w.levels, w.js = range(1), w.js[:1]
    return w


PERTURB = {
    "acceptance": _perturb_acceptance,
    "kernel-points": _perturb_kernel_points,
    "transform-grid": _perturb_transform_grid,
    "exact-spectral": _perturb_exact_spectral,
}


def main() -> int:
    ok = True
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=_workroot())
    try:
        for name, perturb in PERTURB.items():
            w = _reduced(name, 7, workdir)
            w.prepare()
            p = w.run_pass()
            clean = sum(not good for _, good in w.check(p))
            perturb(p)
            results = w.check(p)
            dirty = sum(not good for _, good in results)
            passed = clean == 0 and dirty == 1
            ok = ok and passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: {len(results)} checks, "
                  f"{clean} failed on clean output, {dirty} after one perturbed value")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def _workroot() -> str:
    path = ROOT / ".bench_build" / "perfbench"
    os.makedirs(path, exist_ok=True)
    return str(path)


if __name__ == "__main__":
    sys.exit(main())
