#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline medians.

    python3 perfbench/spread.py [--workload collapse ...] [--baseline]

Runs perfbench/run.py ten times per workload, with seeds 0 to 9, and prints for each end-to-end metric the median and the distance between
the first and third quartile as a share of the median, next to a third of
the metric's bound from BENCHMARK.json.  With --baseline the medians are
written to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUNS = 10  # runs per workload, seeds 0 .. RUNS - 1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()

    baseline = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(RUNS):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        baseline[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            baseline[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                             "runs": len(vals), "unit": m["unit"]}
            print(f"  {workload} {m['name']}: median {med:.4f} {m['unit']}, "
                  f"IQR/median {spread:.4f} (a third of the bound: {m['bound'] / 3:.4f})")
    if args.baseline:
        (run.BENCH / "baseline.json").write_text(json.dumps(
            {"environment": run.environment(run.child_env()), "runs_per_workload": RUNS,
             "run_seconds": spec["run_seconds"], "workloads": baseline},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
