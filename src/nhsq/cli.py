"""Command-line entry point.

    nhsq run <experiment> [--config PATH] [--seed N] [--depth N]
                          [--alpha LIST] [--out DIR] [--svg]
    nhsq list
    nhsq validate-config PATH

Exit codes: 0 every criterion ran and passed, 1 any verdict fails or any
criterion was skipped, 2 usage, config, output or out-of-memory error (the
output directory is created before the experiment runs).
NHSQ_OUT overrides the output directory; explicit --out wins over
both the environment and the config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, NhsqError
from .experiments import EXPERIMENTS, FLAG_READERS, ExperimentConfig, list_experiments, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhsq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--config", default=None, help="JSON config file (flat keys)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--depth", type=int, default=None, help="truncation generation N")
    p_run.add_argument("--alpha", default=None, help="comma-separated apertures (aperture only)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--svg", action="store_true")

    sub.add_parser("list", help="list available experiments")

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("path")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    # A flag the experiment ignores is refused, not echoed into its report.
    for flag, readers in FLAG_READERS.items():
        if getattr(args, flag) is not None and args.experiment in EXPERIMENTS.keys() - readers:
            raise ConfigError(f"--{flag} is read only by {', '.join(readers)}, "
                              f"not by {args.experiment}")
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    cfg.experiment = args.experiment
    # Precedence: CLI flag > NHSQ_OUT > config file value.
    if args.seed is not None:
        cfg.seed = args.seed
    if args.depth is not None:
        cfg.N = args.depth
    if args.alpha is not None:
        try:
            cfg.alphas = tuple(float(a) for a in args.alpha.split(","))
        except ValueError:
            raise ConfigError(
                f"--alpha must be comma-separated numbers, got {args.alpha!r}"
            ) from None
    env_out = os.environ.get("NHSQ_OUT")
    if env_out:
        cfg.out_dir = env_out
    if args.out is not None:
        cfg.out_dir = args.out
    if args.svg:
        cfg.svg = True
    return cfg


def _runtime_line(seconds: float) -> str:
    """The closing stdout line: run time and, where the resource module
    exists, the process's peak RSS (neither goes into the report files)."""
    try:
        import resource
    except ImportError:
        return f"runtime: {seconds:.2f}s"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    mb = peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
    return f"runtime: {seconds:.2f}s, peak RSS {mb:.1f} MB"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "list":
            for name in list_experiments():
                print(name)
            return 0
        if args.command == "validate-config":
            ExperimentConfig.from_file(args.path)
            print(f"{args.path}: ok")
            return 0
        cfg = _config_from_args(args)
        out_dir = Path(cfg.out_dir) / cfg.experiment
        # Before the run, so an unusable path costs no experiment time.
        out_dir.mkdir(parents=True, exist_ok=True)
        report = run(cfg)
        paths = report.write(out_dir, svg=cfg.svg)
        for v in report.verdicts:
            status = "PASS" if v.passed else "FAIL"
            print(f"[{status}] criterion {v.criterion}: {v.detail}")
        for criterion, reason in report.skipped:
            print(f"[SKIP] criterion {criterion}: {reason}")
        for key, val in sorted(report.metrics.items()):
            print(f"  {key} = {val}")
        for p in paths:
            print(f"wrote {p}")
        for key, val in sorted(report.counters.items()):
            print(f"counter: {key} = {val}")
        print(_runtime_line(report.runtime_seconds))
        return 0 if report.all_passed else 1
    except NhsqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a config too large to allocate is a config error
        print(f"error: out of memory: {str(e) or 'lower the config sizes'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
