#!/usr/bin/env python3
"""Benchmark for `nhsq run`: three workloads of the ten experiments.

    python3 perfbench/run.py --workload collapse --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing, the
package is imported from ./src.  With --trace 0 every experiment of the
workload runs as a user runs it, `python3 -m nhsq.cli run <exp> --seed S
--out DIR`, one fresh interpreter per experiment, one process at a time.
Passes over the workload repeat while the next one should end within
--seconds (there is always at least one).
The end-to-end metrics are the median pass wall time, the median time to
`import nhsq.cli` in a fresh interpreter, and the largest peak RSS of any
experiment process.  The two times are scaled to a fixed host speed: the
speed probe of perfbench/speed.py runs beside the experiments, and each
time is multiplied by PROBE_REF_S over the probe's mean cycle time meanwhile
(see speed_scale).  The unscaled times are printed and kept in the record.

With --trace 1 each experiment runs twice in-process through
`nhsq.cli.main` (perfbench/inproc.py): once plain and once with the layer
tracer of perfbench/tracer.py installed.  The per-layer metrics come from
the traced pass; trace.overhead_frac compares the two.

Every run is checked against perfbench/reference.json.  The benchmark seed
selects one of the reference seeds (seed modulo their number), so the same
seed always gives the same inputs and every input has a stored answer.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record with the environment goes
to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
REFERENCE = BENCH / "reference.json"

WORKLOADS = {
    "collapse": ("aperture", "vertical", "l2-bound", "growth"),
    "exact-sweep": ("logproduct", "tb-testing"),
    "pointwise": ("kernel-conditions", "weak11", "stopping", "goodness"),
}
REFERENCE_SEEDS = (20250808, 1, 2, 3)
SETUP_STARTS = 15  # timed interpreter starts per run, after one untimed warm-up
PROBE_REF_S = 0.008  # speed-probe cycle time that end-to-end times are scaled to
PROBE_MIN_CYCLES = 20  # fewest probe cycles a scale factor rests on
SWAP_S = 1.0  # a timed child and the speed probe swap cores this often
EXPERIMENT_TIMEOUT_S = 150.0
REL_TOL = 1e-6  # report metrics may drift this much before a run fails
ABS_TOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REPORT_FILES = ("report.json", "series.csv")


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def experiment_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """Environment for every child: ./src first, one BLAS/OpenMP thread.

    One thread is below the nproc cap on any machine.  An experiment then
    holds one core and leaves the other to the speed probe; with two
    threads on two cores, numpy's spinning pool threads took the probe's
    core and doubled the CPU time of `collapse` for a 5 % shorter wall time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(env: dict) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def spawn(argv: list[str], env: dict, log: Path, timeout: float = EXPERIMENT_TIMEOUT_S,
          probe: "SpeedProbe | None" = None) -> dict:
    """Run one child to completion; wall time (and its time.monotonic() ends
    t0, t1), exit code and peak RSS.

    os.wait4 gives the child's own resource usage, which the subprocess
    module does not expose; a pidfd lets this process sleep until the child
    exits or the timeout passes, at which point the child is killed.  On any
    other way out (an exception, SIGTERM) the child is killed and reaped too.
    With a speed probe, the child and the probe swap cores every SWAP_S.
    """
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        reaped = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    if probe:
                        probe.place(proc.pid)
                    left = t0 + timeout - time.monotonic()
                    wait = min(left, SWAP_S) if probe else left
                    exited, _, _ = select.select([pidfd], [], [], max(wait, 0.0))
                    if exited or left <= wait:
                        break
            finally:
                os.close(pidfd)
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            t1 = time.monotonic()
        finally:
            if not reaped:
                proc.kill()
                os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode if exited else None,
        "wall_s": t1 - t0,
        "t0": t0,
        "t1": t1,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "log": log.read_text(errors="replace"),
    }


class SpeedProbe:
    """perfbench/speed.py running beside the experiments, stopped on exit.

    The probe and the timed child each hold one core.  They swap cores every
    SWAP_S, so over a run both spend about as long on each core and the
    probe sees what the child saw, even when one core's host neighbour is
    busier than the other's.
    """

    def __init__(self, scratch: Path):
        self.cores = sorted(os.sched_getaffinity(0))[:2]
        if len(self.cores) < 2:
            raise BenchError("the speed probe needs two cores, one beside each timed child")
        self.turn = 0
        self.file = scratch / "speed.txt"
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "speed.py"), str(self.file)],
                                     cwd=ROOT, stdout=subprocess.DEVNULL)

    def place(self, child_pid: int) -> None:
        """Put the child and the probe on different cores, the other way round
        from the last call."""
        self.turn ^= 1
        try:
            os.sched_setaffinity(child_pid, {self.cores[self.turn]})
            os.sched_setaffinity(self.proc.pid, {self.cores[1 - self.turn]})
        except ProcessLookupError:
            pass  # the child has just exited

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()

    def cycles(self) -> list[tuple[float, float]]:
        """(end time, cycle seconds) of every cycle so far."""
        if self.proc.poll() is not None:
            raise BenchError(f"speed probe exited with code {self.proc.returncode}")
        rows = (line.split() for line in self.file.read_text().splitlines())
        return [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]


def speed_scale(cycles: list[tuple[float, float]], t0: float, t1: float) -> float:
    """PROBE_REF_S over the mean probe cycle time in [t0, t1].

    A time measured within [t0, t1], multiplied by this, reads what it would
    on a host where a probe cycle takes PROBE_REF_S.
    """
    inside = [dt for end, dt in cycles if t0 <= end <= t1]
    if len(inside) < PROBE_MIN_CYCLES:
        raise BenchError(f"speed probe made {len(inside)} cycles, fewer than {PROBE_MIN_CYCLES}")
    return PROBE_REF_S / statistics.fmean(inside)


class SetupClock:
    """Seconds from spawning a fresh interpreter until `import nhsq.cli` returns.

    The SETUP_STARTS timed starts are spread over the run instead of bunched
    at its start, so that their median does not rest on one few-second phase
    of the machine's speed.
    """

    ARGV = [sys.executable, "-c", "import time; import nhsq.cli; print(repr(time.time()))"]

    def __init__(self, env: dict, scratch: Path, probe: SpeedProbe):
        self.env = env
        self.probe = probe
        self.log = scratch / "setup.log"
        self.times: list[float] = []
        self.spent_s = 0.0
        self._start()  # warm-up: bytecode compiled once per checkout

    def _start(self) -> float:
        start = time.time()
        res = spawn(self.ARGV, self.env, self.log, probe=self.probe)
        if res["exit"] != 0:
            raise BenchError(f"import nhsq.cli failed:\n{res['log']}")
        self.spent_s += res["wall_s"]
        return float(res["log"].strip().splitlines()[-1]) - start

    def catch_up(self, share: float) -> None:
        """Make the timed starts so far about `share` of SETUP_STARTS (at least one)."""
        due = min(SETUP_STARTS, max(1, math.ceil(SETUP_STARTS * share)))
        while len(self.times) < due:
            self.times.append(self._start())


# -- correctness -------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(out_dir: Path) -> dict:
    """The parts of a report the reference keeps: verdicts, metrics, file digests."""
    payload = json.loads((out_dir / "report.json").read_text())
    return {
        "verdicts": [[v["criterion"], v["passed"]] for v in payload["verdicts"]],
        "metrics": payload["metrics"],
        "sha256": {name: sha256(out_dir / name) for name in REPORT_FILES},
    }


def metrics_close(got, want) -> bool:
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(metrics_close(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(metrics_close(got[k], w) for k, w in want.items()))
    return got == want


def check(exit_code, out_dir: Path, log: str, ref: dict) -> tuple[str | None, int]:
    """(failure reason or None, number of report files whose bytes changed)."""
    if exit_code is None:
        return "timed out", 0
    if "Traceback (most recent call last)" in log:
        return f"crashed (exit {exit_code})", 0
    if exit_code == 2:
        return "refused with exit 2", 0
    if exit_code != ref["exit"]:
        return f"exit {exit_code}, reference {ref['exit']}", 0
    try:
        got = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable report: {e}", 0
    changed = sum(got["sha256"].get(n) != ref["sha256"][n] for n in REPORT_FILES)
    if got["verdicts"] != ref["verdicts"]:
        return f"verdicts {got['verdicts']}, reference {ref['verdicts']}", changed
    if not metrics_close(got["metrics"], ref["metrics"]):
        bad = sorted(k for k in ref["metrics"].keys() | got["metrics"].keys()
                     if not metrics_close(got["metrics"].get(k), ref["metrics"].get(k)))
        return f"metrics beyond tolerance: {', '.join(bad)}", changed
    return None, changed


# -- passes ------------------------------------------------------------------------


class Run:
    """Counts attempted and failed experiment runs and keeps their records."""

    def __init__(self, reference: dict, seed: int, scratch: Path, env: dict):
        self.reference = reference
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.records: list[dict] = []
        self.probe: SpeedProbe | None = None  # set while a speed probe runs

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r["failure"] is not None for r in self.records)

    def experiment(self, exp: str, mode: str) -> dict:
        """Run one experiment as `cli` (a user's process), `plain` or `traced`."""
        out_dir = Path(tempfile.mkdtemp(prefix=f"{exp}-", dir=self.scratch))
        log = out_dir.with_suffix(".log")
        result_file = out_dir.with_suffix(".result.json")
        base = ["--seed", str(self.seed), "--out", str(out_dir)]
        if mode == "cli":
            argv = [sys.executable, "-m", "nhsq.cli", "run", exp, *base]
        else:
            argv = [sys.executable, str(BENCH / "inproc.py"), "--experiment", exp, *base,
                    "--result", str(result_file)]
            if mode == "traced":
                argv += ["--spans", str(WORK / f"spans-{exp}.json")]
        res = spawn(argv, self.env, log, probe=self.probe)
        record = {"experiment": exp, "mode": mode, "exit": res["exit"],
                  "wall_s": res["wall_s"], "t0": res["t0"], "t1": res["t1"],
                  "maxrss_mb": res["maxrss_mb"],
                  "failure": None, "bytes_changed": 0}
        if mode != "cli":
            try:
                inner = json.loads(result_file.read_text())
                record["exit"] = inner["exit"]
                record["main_wall_s"] = inner["wall_s"]
                record["counters"] = inner.get("counters", {})
                record["missing"] = inner.get("missing", [])
            except (OSError, ValueError, KeyError):
                record["failure"] = f"in-process run did not return (exit {res['exit']})"
        if record["failure"] is None:
            record["failure"], record["bytes_changed"] = check(
                record["exit"], out_dir / exp, res["log"], self.reference[str(self.seed)][exp])
        if record["failure"]:
            print(f"FAIL {exp} ({mode}): {record['failure']}\n{res['log'][-2000:]}",
                  file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        log.unlink(missing_ok=True)
        result_file.unlink(missing_ok=True)
        self.records.append(record)
        return record

    def workload_pass(self, exps, mode: str) -> list[dict]:
        return [self.experiment(exp, mode) for exp in exps]


def timing_summary(values: list[float]) -> dict:
    """Median, maximum, and the highest percentile with at least ten samples
    above it when that percentile lies above the median (twenty samples or more).
    """
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "max": max(values)}
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    if pct > 50:
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Per-layer metric values summed over the traced pass, and the missing layers."""
    values: dict[str, float] = {}
    missing = sorted({name for rec in traced for name in rec.get("missing", [])})
    for rec in traced:
        for key, value in rec.get("counters", {}).items():
            values[key] = values.get(key, 0) + value

    def ratio(num: str, den: str) -> float:
        return values.get(num, 0) / values[den] if values.get(den) else 0.0

    values["measures.split_geometry.distinct_frac"] = ratio(
        "measures.split_geometry.distinct", "measures.split_geometry.calls")
    values["sqfn.band_weight.cache_ratio"] = ratio(
        "sqfn.band_tail_weight.calls", "sqfn.band_weight.calls")
    values["reports.bytes_changed"] = sum(r["bytes_changed"] for r in traced)
    runs = plain + traced
    values["failed_frac"] = sum(r["failure"] is not None for r in runs) / len(runs)
    plain_s = sum(r.get("main_wall_s", r["wall_s"]) for r in plain)
    traced_s = sum(r.get("main_wall_s", r["wall_s"]) for r in traced)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["trace.missing_targets"] = len(missing)
    return values, missing


def load_json(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {what} {path}: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nhsq" / "cli.py").is_file():
        raise BenchError(f"no nhsq sources under {SRC}; run from a source checkout")
    spec = load_json(ROOT / "BENCHMARK.json", "benchmark spec")
    reference = load_json(REFERENCE, "reference outputs")
    exps = WORKLOADS[args.workload]
    seed = experiment_seed(args.seed)
    env = child_env()
    env_info = environment(env)
    WORK.mkdir(exist_ok=True)
    print(f"workload {args.workload}: {', '.join(exps)}; benchmark seed {args.seed} -> "
          f"experiment seed {seed}; trace {args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))

    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as tmp:
        run = Run(reference, seed, Path(tmp), env)
        if args.trace:
            plain = run.workload_pass(exps, "plain")
            traced = run.workload_pass(exps, "traced")
            values, missing = layer_metrics(plain, traced)
            for rec in traced:
                print(f"  traced {rec['experiment']}: main {rec.get('main_wall_s', 0):.3f} s")
            for name in missing:
                print(f"  missing: {name} (no target resolves; reported as 0 calls)")
            for key, count in values.items():
                if key.endswith(".work_errors") and count:
                    print(f"  {key} = {count} (work count unreadable; signature changed?)")
            wanted = spec["per_layer"]
            summary = {}
        else:
            with SpeedProbe(Path(tmp)) as probe:
                run.probe = probe
                t_start = time.monotonic()
                clock = SetupClock(env, Path(tmp), probe)
                passes, rss = [], []

                def elapsed() -> float:  # time spent on passes, without the setup starts
                    return time.monotonic() - t_start - clock.spent_s

                while True:
                    records = []
                    for exp in exps:
                        clock.catch_up(elapsed() / args.seconds)
                        records.append(run.experiment(exp, "cli"))
                    passes.append(records)
                    rss.append(max(r["maxrss_mb"] for r in records))
                    print("  pass %d: %.3f s (%s)" % (len(passes), sum(r["wall_s"] for r in records),
                          ", ".join(f"{r['experiment']} {r['wall_s']:.3f}" for r in records)))
                    # Start another pass only if one of mean length still ends in time.
                    if elapsed() + elapsed() / len(passes) > args.seconds:
                        break
                clock.catch_up(1.0)
                cycles = probe.cycles()
                t_end = time.monotonic()
            # One scale for the whole run: the probe's own jitter averages out
            # over it, and the host's slow swings between runs are what it removes.
            scale = speed_scale(cycles, t_start, t_end)
            raw_walls = [sum(r["wall_s"] for r in recs) for recs in passes]
            walls = [w * scale for w in raw_walls]
            setup = [t * scale for t in clock.times]
            print("  unscaled: wall_s median %.4g s, setup_s median %.4g s; speed scale %.4f "
                  "(mean probe cycle %.3f ms)" % (statistics.median(raw_walls),
                                                  statistics.median(clock.times), scale,
                                                  1000 * PROBE_REF_S / scale))
            summary = {"wall_s": timing_summary(walls), "setup_s": timing_summary(setup),
                       "peak_rss_mb": {"n": len(rss), "median": statistics.median(rss),
                                       "max": max(rss)},
                       "unscaled": {"wall_s": timing_summary(raw_walls),
                                    "setup_s": timing_summary(clock.times)},
                       "speed_scale": scale}
            values = {"wall_s": summary["wall_s"]["median"],
                      "setup_s": summary["setup_s"]["median"],
                      "peak_rss_mb": statistics.median(rss)}
            wanted = spec["end_to_end"]
            missing = []

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            raise BenchError(f"benchmark produced no value for {name}")
        value = values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
        extra = summary.get(name, {})
        detail = ", ".join(f"{k}={v:.4g}" for k, v in extra.items() if k != "n")
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name} = {shown} {m['unit']}"
              + (f"  ({detail}; n={extra['n']})" if extra else ""))
    failed, attempted = run.failed, run.attempted
    print(f"  failed_frac = {failed / attempted:.4g} ({failed} failed of {attempted} attempted)")

    record = {"workload": args.workload, "seed": args.seed, "experiment_seed": seed,
              "trace": args.trace, "seconds": args.seconds, "environment": env_info,
              "summary": summary, "metrics": metrics, "missing": missing,
              "runs": run.records}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so every child is killed and reaped


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
