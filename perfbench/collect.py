"""Run the benchmark over many seeds and summarise it.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--seconds 10]
                                 [--traced-seed 1] [--out perfbench/baseline.json]

For every workload, runs `run.py` once per seed (untraced) and reports,
for every end-to-end metric and every workload-specific metric, the
median, the quartiles (statistics.quantiles, n=4), the sample count and
the spread (q3 - q1) / median.  With --traced-seed it also makes two
traced runs on that seed, checks that every `*.calls` count repeats
exactly, and keeps the per-layer table.  Every gate must pass on every
seed; a failing seed is reported, never replaced.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result, "elapsed_s": elapsed}


def summarise(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"schema": 1, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in _seeds(args.seeds)]
        metrics: dict[str, list[float]] = {}
        units = {}
        for r in runs:
            for key, (value, unit) in r["detail"]["metrics"].items():
                metrics.setdefault(key, []).append(value)
                units[key] = unit
        entry = {
            "seeds": _seeds(args.seeds),
            "all_gates_passed": all(r["result"]["correct"] for r in runs),
            "failed_seeds": [r["detail"]["seed"] for r in runs if not r["result"]["correct"]],
            "attempted": [r["result"]["attempted"] for r in runs],
            "run_elapsed_s": summarise([r["elapsed_s"] for r in runs]),
            "machine": [r["detail"]["machine"] for r in runs],
            "metrics": {k: dict(summarise(v), unit=units[k], values=v)
                        for k, v in metrics.items()},
        }
        print(f"== {workload}: gates {'pass' if entry['all_gates_passed'] else 'FAIL'} "
              f"on seeds {args.seeds}; run takes {entry['run_elapsed_s']['median']:.1f} s")
        for key, s in entry["metrics"].items():
            flag = ""
            if key in bounds:
                flag = f"bound {bounds[key]}" + (" OK" if s["spread"] * 3 < bounds[key] else
                                                 " WITHIN" if s["spread"] <= bounds[key]
                                                 else " EXCEEDED")
            print(f"  {key:28s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']} "
                  f"spread {s['spread']:.3f} {flag}")
        if args.traced_seed is not None:
            traced = [run_once(workload, args.traced_seed, args.seconds, 1) for _ in range(2)]
            layers = [t["detail"]["per_layer"] for t in traced]
            calls_equal = all(layers[0][k][0] == layers[1][k][0]
                              for k in layers[0] if k.endswith(".calls"))
            entry["traced"] = {
                "seed": args.traced_seed,
                "calls_identical": calls_equal,
                "per_layer": {k: {"values": [lay[k][0] for lay in layers], "unit": v[1]}
                              for k, v in layers[0].items()},
                "top_self_time": traced[0]["detail"]["trace_table"][:15],
            }
            print(f"  traced twice on seed {args.traced_seed}: *.calls identical = "
                  f"{calls_equal}; overhead "
                  f"{[round(lay['trace.overhead_ratio'][0], 3) for lay in layers]}")
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
