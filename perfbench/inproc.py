"""Run one nhsq experiment in-process through `nhsq.cli.main`.

    python3 perfbench/inproc.py --experiment aperture --seed 1 --out DIR \
        --result RESULT.json [--spans SPANS.json]

The result file holds the exit code and the wall time of `main()` alone
(imports excluded).  With --spans the layer tracer is installed first; the
result then also holds the per-layer counters, and the spans go to the
given file.  The result file is written only when `main()` returns, so a
missing file means the experiment crashed.
"""

from __future__ import annotations

import argparse
import json
import time

import nhsq.cli

import tracer as layer_tracer


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experiment", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.spans:
        tracer = layer_tracer.Tracer(args.experiment)
        layer_tracer.install(tracer)
    argv = ["run", args.experiment, "--seed", str(args.seed), "--out", args.out]
    t0 = time.perf_counter()
    code = nhsq.cli.main(argv)
    wall = time.perf_counter() - t0

    result = {"exit": code, "wall_s": wall}
    if tracer is not None:
        result["counters"] = tracer.counters()
        result["missing"] = tracer.missing
        with open(args.spans, "w") as fh:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent", "experiment"],
                       "spans": tracer.span_rows()}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
