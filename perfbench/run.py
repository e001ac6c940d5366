"""spolyreg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; spolyreg is imported from ./src, so
nothing is built or installed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics from a traced pass.  Earlier lines are for
people: machine facts, every metric of the workload with its unit, the
correctness diagnostics, and a `detail` JSON line that collect.py reads.

The run: build the inputs from the seed; (trace 0) time five fresh
interpreters through `import spolyreg` and the workload's first
operation; warm up in-process; repeat whole passes until --seconds have
elapsed (at least one pass), checking each after it is timed; (trace 1)
run one more pass under the tracer and check it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
CALIBRATION_N = 2_000_000

# One process, one thread: pin the BLAS pool before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _calibrate() -> float:
    """Time of a fixed pure-Python loop; shows host-speed drift only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPOLYREG_CONFIG", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_times(workload: str, seed: int, workdir: str) -> list[float]:
    """Fresh interpreter -> import spolyreg -> end of the first operation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), workdir],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def _layer_metrics(tr, wall_traced: float, wall_untraced: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    m = {}

    def ratio(num, den):
        return num / den if den else 0.0

    qmul = tr.calls_of("qarray.qmul")
    m["qarray.qmul.calls"] = (qmul, "count")
    m["qarray.qmul.quats_per_call"] = (ratio(tr.extra.get("qarray.qmul.quats", 0), qmul), "count")
    m["qarray.qmul.single_share"] = (ratio(tr.extra.get("qarray.qmul.single", 0), qmul), "ratio")
    m["qarray.self_s"] = (tr.layer_self("qarray"), "s")

    ladder = ("kernels.k2_series_batch", "kernels.k1_series_batch")
    sks = tr.calls_of("kernels.star_kernel_series")
    built = tr.child_calls("kernels.star_kernel_series", "series.exp_star")
    m["kernels.ladder.calls"] = (tr.calls_of(*ladder), "count")
    m["kernels.ladder.points"] = (tr.extra.get("kernels.ladder.points", 0), "count")
    m["kernels.ladder.self_s"] = (tr.self_of(*ladder), "s")
    m["kernels.project.calls"] = (tr.calls_of("kernels.project"), "count")
    m["kernels.project.self_s"] = (tr.self_of("kernels.project"), "s")
    m["kernels.star_kernel_series.calls"] = (sks, "count")
    m["kernels.star_cache.hit_ratio"] = (1.0 - built / sks if sks else 0.0, "ratio")
    m["kernels.tail_bound.self_s"] = (
        tr.self_of("kernels.series_tail_bound", "kernels.star_tail_bound"), "s")
    m["kernels.self_s"] = (tr.layer_self("kernels"), "s")

    gh, sq = tr.calls_of("quad.gauss_hermite"), tr.calls_of("quad.SliceQuadrature")
    m["quad.gram_slice.calls"] = (tr.calls_of("quad.gram_slice"), "count")
    m["quad.gram_slice.self_s"] = (tr.self_of("quad.gram_slice"), "s")
    m["quad.values_on.calls"] = (tr.calls_of("quad.values_on"), "count")
    m["quad.gauss_hermite.calls"] = (gh, "count")
    m["quad.gauss_hermite.repeat_share"] = (
        ratio(tr.extra.get("quad.gauss_hermite.repeat", 0), gh), "ratio")
    m["quad.SliceQuadrature.calls"] = (sq, "count")
    m["quad.SliceQuadrature.repeat_share"] = (
        ratio(tr.extra.get("quad.SliceQuadrature.repeat", 0), sq), "ratio")
    m["quad.self_s"] = (tr.layer_self("quad"), "s")

    m["bargmann.b2_kernel.calls"] = (tr.calls_of("bargmann.b2_kernel"), "count")
    m["bargmann.transform.calls"] = (tr.calls_of("bargmann.transform"), "count")
    m["bargmann.transform_batch.calls"] = (tr.calls_of("bargmann.transform_batch"), "count")
    m["bargmann.isometry_grams.self_s"] = (tr.self_of("bargmann.isometry_grams"), "s")
    m["bargmann.self_s"] = (tr.layer_self("bargmann"), "s")

    m["series.star.calls"] = (tr.calls_matching("series", ".star"), "count")
    m["series.star.self_s"] = (tr.self_matching("series", ".star"), "s")
    m["series.exp_star.calls"] = (tr.calls_of("series.exp_star"), "count")
    m["series.laguerre_star.calls"] = (tr.calls_of("series.laguerre_star"), "count")
    m["series.eval_left.calls"] = (tr.calls_matching("series", ".eval_left"), "count")
    m["series.eval_many.calls"] = (tr.calls_matching("series", ".eval_many"), "count")
    m["series.self_s"] = (tr.layer_self("series"), "s")

    qm = tr.calls_of("quat.Quaternion.__mul__")
    m["quat.mul.calls"] = (qm, "count")
    m["quat.mul.fraction_share"] = (ratio(tr.extra.get("quat.mul.fraction", 0), qm), "ratio")
    m["quat.self_s"] = (tr.layer_self("quat"), "s")

    m["poly.kummer_M.calls"] = (tr.calls_of("poly.kummer_M"), "count")
    m["poly.kummer_M.self_s"] = (tr.self_of("poly.kummer_M"), "s")
    m["poly.hermite_H.calls"] = (tr.calls_of("poly.hermite_H"), "count")
    m["poly.hermite_quat.calls"] = (tr.calls_of("poly.hermite_quat"), "count")
    m["poly.self_s"] = (tr.layer_self("poly"), "s")

    for fn in ("spectrum_probe", "psi_batch", "box_symbolic", "box_fd"):
        m[f"spectral.{fn}.calls"] = (tr.calls_of(f"spectral.{fn}"), "count")
    m["spectral.self_s"] = (tr.layer_self("spectral"), "s")

    m["verify.self_s"] = (tr.layer_self("verify"), "s")
    m["cli.main.calls"] = (tr.calls_of("cli.main"), "count")
    m["cli.rows"] = (tr.extra.get("cli.rows", 0), "count")
    m["cli.self_s"] = (tr.layer_self("cli"), "s")
    for layer in ("report", "config"):
        m[f"{layer}.self_s"] = (tr.layer_self(layer), "s")

    for layer in ("qarray", "kernels", "quad", "bargmann", "series", "quat", "poly",
                  "spectral", "verify", "cli", "report", "config"):
        m[f"{layer}.errors"] = (tr.errors.get(layer, 0), "count")

    covered = sum(tr.self_s)
    m["bench.self_s"] = (max(wall_traced - covered, 0.0), "s")
    m["trace.spans"] = (len(tr.span_id), "count")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.untraced_wall_s"] = (wall_untraced, "s")
    m["trace.overhead_ratio"] = (wall_traced / wall_untraced - 1.0, "ratio")
    return m


def _run(args, workdir: str) -> dict:
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    w = cls(args.seed, workdir)
    w.prepare()

    setup = _setup_times(args.workload, args.seed, workdir) if not args.trace else []

    w.warm_up()
    passes, checks, diagnostics = [], [], {}
    t0 = time.perf_counter()
    while True:
        p = w.run_pass()
        # check each pass after its timed region, then drop its outputs, so
        # memory does not grow with the number of passes
        checks.extend(w.check(p))
        if not passes:
            diagnostics = w.diagnostics(p)
        p.outputs = None
        passes.append(p)
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = median(p.wall_s for p in passes)

    traced = None
    if args.trace:
        tr = Tracer()
        with tr:
            # count the CLI rows the pass prints
            original_run_cli = workloads.run_cli

            def counted(argv):
                code, lines = original_run_cli(argv)
                tr.add("cli.rows", len(lines))
                return code, lines

            workloads.run_cli = counted
            try:
                traced = w.run_pass()
            finally:
                workloads.run_cli = original_run_cli

    if traced:
        checks.extend(w.check(traced))
    failed = [label for label, ok in checks if not ok]

    e2e = {
        "setup_s": (median(setup), "s") if setup else None,
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (len(failed) / len(checks), "ratio"),
    }
    e2e.update(w.metrics(passes))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": setup,
        "metrics": {k: v for k, v in e2e.items() if v is not None},
        "per_layer": _layer_metrics(tr, traced.wall_s, wall) if traced else {},
        "trace_table": tr.table()[:40] if traced else [],
        "diagnostics": diagnostics,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed[:20],
    }


def _print_report(res: dict, machine: dict) -> None:
    name = res["workload"]
    print(f"# spolyreg benchmark: workload={name} seed={res['seed']} "
          f"passes={res['passes']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for key, (value, unit) in res["metrics"].items():
        print(f"metric {name} {key} {value:.6g} {unit}")
    for key, (value, unit) in res["per_layer"].items():
        print(f"layer {name} {key} {value:.6g} {unit}")
    for key, value in res["diagnostics"].items():
        print(f"diagnostic {name} {key} {value:.3e}")
    print(f"check {name} attempted={res['attempted']} failed={res['failed']}")
    for label in res["failed_checks"]:
        print(f"FAILED {name} {label}")
    print("detail " + json.dumps(dict(res, machine=machine)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spolyreg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a spolyreg checkout; {SRC / 'spolyreg'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    os.environ.pop("SPOLYREG_CONFIG", None)
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spolyreg

    if Path(spolyreg.__file__).resolve().parent != SRC / "spolyreg":
        print(f"error: imported spolyreg from {spolyreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = _machine_facts()
    machine["calibration_start_s"] = round(_calibrate(), 5)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        res = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["calibration_end_s"] = round(_calibrate(), 5)

    _print_report(res, machine)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["per_layer"] if args.trace else res["metrics"]
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
