#!/usr/bin/env python3
"""Record perfbench/reference.json: the expected output of every experiment.

    python3 perfbench/make_reference.py

Runs each of the ten experiments once per reference seed, as a user runs
them, and stores the exit code, the outcome of each verdict, the report
metrics and the sha256 of report.json and series.csv.  A verdict that
fails at some seed is recorded as it is: the benchmark checks that the
code still gives the same answer, not that every answer passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(prefix="reference-", dir=run.WORK) as tmp:
        for seed in run.REFERENCE_SEEDS:
            per_exp = reference[str(seed)] = {}
            for exps in run.WORKLOADS.values():
                for exp in exps:
                    out = Path(tmp) / f"{exp}-{seed}"
                    res = run.spawn([sys.executable, "-m", "nhsq.cli", "run", exp,
                                     "--seed", str(seed), "--out", str(out)],
                                    env, Path(tmp) / "log")
                    if res["exit"] not in (0, 1):
                        print(res["log"], file=sys.stderr)
                        raise SystemExit(f"{exp} at seed {seed} exited {res['exit']}")
                    per_exp[exp] = {"exit": res["exit"], **run.read_outputs(out / exp)}
                    shutil.rmtree(out)
                    failed = [c for c, ok in per_exp[exp]["verdicts"] if not ok]
                    print(f"seed {seed} {exp}: exit {res['exit']} {res['wall_s']:.2f} s"
                          + (f"; failing verdicts recorded: {failed}" if failed else ""))
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
