import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nhsq.cli import main as cli_main
from nhsq.errors import ConfigError, InvalidParams, UnknownExperiment
from nhsq.experiments import ExperimentConfig, list_experiments, run
from nhsq.reports import ExperimentReport, emit_csv, emit_svg


def small_cfg(name, **kw):
    base = dict(experiment=name, N=10, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def test_registry():
    names = list_experiments()
    assert names == sorted(names)
    for required in ("aperture", "vertical", "l2-bound", "growth", "kernel-conditions",
                     "logproduct", "tb-testing", "weak11", "goodness", "stopping"):
        assert required in names


def test_unknown_experiment():
    with pytest.raises(UnknownExperiment):
        run(ExperimentConfig(experiment="nope"))


def test_aperture_row_count(tmp_path):
    # N = 10 with three apertures: generations 0..10 give 33 data rows.
    rep = run(small_cfg("aperture"))
    assert len(rep.series_rows) == 33
    rep.write(tmp_path)
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "n,alpha,g_n,partial_sum,err_est"
    assert len(lines) == 34


def test_report_bytes_deterministic(tmp_path):
    reps = [run(small_cfg("growth")) for _ in range(2)]
    assert reps[0].to_json_bytes() == reps[1].to_json_bytes()
    for i, rep in enumerate(reps):
        rep.write(tmp_path / str(i))
    a = (tmp_path / "0" / "report.json").read_bytes()
    b = (tmp_path / "1" / "report.json").read_bytes()
    assert a == b
    assert (tmp_path / "0" / "series.csv").read_bytes() == (
        tmp_path / "1" / "series.csv"
    ).read_bytes()


def test_empty_series_csv(tmp_path):
    rep = ExperimentReport(name="x", config={})
    emit_csv(rep, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "n,alpha,g_n,partial_sum,err_est\n"


def test_svg_structure(tmp_path):
    rep = run(small_cfg("aperture"))
    path = tmp_path / "series.svg"
    emit_svg(rep, path)
    text = path.read_text()
    assert text.count("<polyline") == 3  # one per aperture
    for alpha in ("1.0", "1.5", "2.0"):
        assert f"alpha={alpha}" in text
    # Single-point series produce a marker, not a polyline.
    one = ExperimentReport(name="one", config={}, series_rows=[(0, 1.0, 0.5, 0.5, 0.0)])
    emit_svg(one, tmp_path / "one.svg")
    assert "<circle" in (tmp_path / "one.svg").read_text()
    # No series at all is an error.
    with pytest.raises(InvalidParams):
        emit_svg(ExperimentReport(name="zero", config={}), tmp_path / "zero.svg")


def test_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, "N": 12, "alphas": [1.0, 2.0]}))
    cfg = ExperimentConfig.from_file(cfg_path)
    assert cfg.seed == 7 and cfg.N == 12 and cfg.alphas == (1.0, 2.0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    for bad in ({"N": "40"}, {"N": 4.0}, {"seed": True}, {"m": "0.4"}, {"svg": 1},
                {"out_dir": 3}, {"alphas": 1.0}, {"alphas": [1.0, "2"]}, [1]):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)
    cfg = ExperimentConfig.from_dict({"m": 1, "alphas": [1, 2.5], "svg": True})
    assert cfg.m == 1.0 and isinstance(cfg.m, float) and cfg.alphas == (1.0, 2.5)


def _run_cli(args, env_extra=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nhsq.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_cli_list():
    proc = _run_cli(["list"])
    assert proc.returncode == 0
    assert "aperture" in proc.stdout.splitlines()


def test_cli_run_growth_exit_zero(tmp_path):
    proc = _run_cli(["run", "growth", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "growth" / "report.json").exists()
    assert (tmp_path / "growth" / "series.csv").exists()
    assert "[PASS]" in proc.stdout


def test_cli_env_out(tmp_path):
    proc = _run_cli(
        ["run", "growth"], env_extra={"NHSQ_OUT": str(tmp_path / "envdir")}
    )
    assert proc.returncode == 0
    assert (tmp_path / "envdir" / "growth" / "report.json").exists()


def test_cli_usage_errors(tmp_path, monkeypatch, capsys):
    # Every case runs in-process; the module entry point is checked once.
    monkeypatch.chdir(tmp_path)
    proc = _run_cli(["run", "nope"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown experiment 'nope'; known: aperture, ")

    def usage(args, env=None):
        monkeypatch.delenv("NHSQ_OUT", raising=False)
        for key, val in (env or {}).items():
            monkeypatch.setenv(key, val)
        code = cli_main(args)
        return code, *capsys.readouterr()

    assert usage(["run", "nope"])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert usage(["validate-config", str(bad)])[0] == 2
    good = tmp_path / "good.json"
    good.write_text('{"seed": 3}')
    assert usage(["validate-config", str(good)])[0] == 0
    # A mistyped value is refused with one message line, never a traceback.
    typed = tmp_path / "typed.json"
    typed.write_text('{"N": "40"}')
    for args in (["validate-config", str(typed)],
                 ["run", "vertical", "--config", str(typed), "--out", str(tmp_path)]):
        code, _, err = usage(args)
        assert code == 2
        assert err == "error: config key 'N' must be an integer, got \"40\"\n"
    code, _, err = usage(["run", "aperture", "--alpha", "x", "--out", str(tmp_path)])
    assert code == 2
    assert err == "error: --alpha must be comma-separated numbers, got 'x'\n"
    # --alpha is read by the aperture experiment only; elsewhere it is
    # refused rather than silently replaced by the experiment's own apertures.
    for name, alpha in (("vertical", "1.5"), ("l2-bound", "2.5"), ("growth", "1.0")):
        code, _, err = usage(["run", name, "--alpha", alpha, "--out", str(tmp_path)])
        assert code == 2
        assert err == f"error: --alpha is read only by aperture, not by {name}\n"
    # A measure shallower than the experiments' depth-5 leaf functions.
    shallow = tmp_path / "shallow.json"
    shallow.write_text('{"depth": 4}')
    for name in ("weak11", "l2-bound"):
        code, _, err = usage(["run", name, "--config", str(shallow), "--out", str(tmp_path)])
        assert code == 2
        assert err == "error: leaf depth 5 must lie in 0..4, the measure's depth\n"
    # Non-finite parameters are refused, not run: NaN fails every comparison,
    # and an infinite C leaves the middle children without mass.
    code, _, err = usage(["run", "aperture", "--alpha", "nan", "--out", str(tmp_path)])
    assert code == 2
    assert err == "error: aperture must be finite and >= 1, got nan\n"
    for name, raw, shown in (("vertical", "NaN", "nan"), ("growth", "Infinity", "inf")):
        cfg = tmp_path / f"C_{shown}.json"
        cfg.write_text('{"C": %s}' % raw)
        code, _, err = usage(["run", name, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == f"error: C must be finite and >= 4, got {shown}\n"
    # An output directory under a regular file is refused before the run,
    # from --out and from NHSQ_OUT alike.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for args, env in ((["--out", str(blocker / "sub")], None), ([], {"NHSQ_OUT": str(blocker)})):
        code, out, err = usage(["run", "growth", *args], env)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output: ")
        assert len(err.splitlines()) == 1


def test_cli_prints_skipped_criteria(tmp_path, capsys):
    # Below N = 40 (1a) and N = 32 (1b) the aperture criteria cannot run:
    # each is named on stdout, the report does not change, and the run exits
    # 1, since a run that checks less than its criteria is not a pass.
    assert cli_main(["run", "aperture", "--depth", "12", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("[SKIP]")] == [
        "[SKIP] criterion 1a: needs N >= 40, got N = 12",
        "[SKIP] criterion 1b: needs N >= 32, got N = 12",
    ]
    assert b"SKIP" not in (tmp_path / "aperture" / "report.json").read_bytes()
    assert b"needs" not in (tmp_path / "aperture" / "report.json").read_bytes()
    assert cli_main(["run", "aperture", "--alpha", "1.5", "--depth", "12",
                     "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("[SKIP]")] == [
        "[SKIP] criterion 1a: needs alpha = 1 in the aperture grid",
        "[SKIP] criterion 1b: needs alpha = 2 in the aperture grid",
    ]
    assert cli_main(["run", "aperture", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[SKIP]" not in out and "[PASS] criterion 1a" in out and "[PASS] criterion 1b" in out


def test_cli_refuses_depth_where_ignored(tmp_path, capsys):
    # --depth sets N, which only four experiments read; elsewhere it is
    # refused instead of echoed unused into the report.
    readers = "aperture, vertical, l2-bound, weak11"
    for name in ("growth", "goodness", "tb-testing", "kernel-conditions", "logproduct",
                 "stopping"):
        assert cli_main(["run", name, "--depth", "3", "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --depth is read only by {readers}, not by {name}\n"
        assert not (tmp_path / name).exists()


def test_vertical_refuses_depth_below_two(tmp_path, capsys):
    # The harmonic fit of criterion 3 runs over n = 2..N; N = 0 and 1 leave
    # it empty, so they are refused with one line instead of a traceback.
    for depth in (0, 1):
        assert cli_main(["run", "vertical", "--depth", str(depth), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: vertical needs N >= 2 for its fit over n = 2..N, got {depth}\n")
        assert not (tmp_path / "vertical" / "report.json").exists()


def test_negative_n_or_depth_refused(tmp_path, capsys):
    # One check in ExperimentConfig covers the constructor, config files and --depth.
    for key, val in (("N", -2), ("depth", -5)):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got {val}$"):
            ExperimentConfig(**{key: val})
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: val}))
        for args in (["validate-config", str(cfg)],
                     ["run", "weak11", "--config", str(cfg), "--out", str(tmp_path)]):
            assert cli_main(args) == 2
            assert capsys.readouterr() == ("", f"error: {key} must be >= 0, got {val}\n")
    assert cli_main(["run", "aperture", "--depth", "-3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "error: N must be >= 0, got -3\n")
    assert not (tmp_path / "weak11").exists() and not (tmp_path / "aperture").exists()


def test_weak11_refuses_invalid_quadrature(tmp_path, capsys):
    # conical_value validates its quadrature as CantorSquareContext does, so a
    # bad value is refused, not run and echoed into report.json.
    for key, val in (("y_resolution_depth", -3), ("t_steps_per_band", -1)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: val}))
        assert cli_main(["run", "weak11", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", "error: quadrature parameters must be positive\n")
        assert not (tmp_path / "weak11" / "report.json").exists()


@pytest.mark.parametrize("raw, message", [
    ({"y_resolution_depth": -3}, "quadrature parameters must be positive"),
    ({"t_steps_per_band": 0}, "quadrature parameters must be positive"),
    ({"rel_tol": 5.0, "t_steps_per_band": 0}, "rel_tol must be in (0, 0.1], got 5.0"),
    ({"rel_tol": 0.0}, "rel_tol must be in (0, 0.1], got 0.0"),
    ({"y_resolution_depth": 9}, "y_resolution_depth must be at most 8, got 9"),
])
def test_config_refuses_invalid_quadrature(raw, message, tmp_path, capsys):
    # ExperimentConfig applies QuadratureConfig.validate's rules to the keys,
    # so validate-config and every experiment refuse them before the output
    # directory exists, also where the experiment builds no quadrature.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "quad.json"
    cfg.write_text(json.dumps(raw))
    assert cli_main(["validate-config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    for name in list_experiments():
        assert cli_main(["run", name, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()
    for edge in ({"t_steps_per_band": 1, "y_resolution_depth": 1, "rel_tol": 0.1},
                 {"y_resolution_depth": 8}):
        assert ExperimentConfig.from_dict(edge).quad().validate() is None


def _assert_reference_bytes(experiment, seed, tmp_path):
    """report.json and series.csv equal the benchmark's recorded reference
    bytes, and the run passes exactly when the reference run did."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(reference.read_text())[str(seed)][experiment]
    report = run(ExperimentConfig(experiment=experiment, seed=seed))
    for path in report.write(tmp_path):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"][path.name]
    assert report.all_passed == (ref["exit"] == 0)


@pytest.mark.parametrize("seed", [20250808, 1, 2, 3])
def test_stopping_report_matches_benchmark_reference(seed, tmp_path):
    # The batched martingale decomposition keeps every digit, including the
    # failing energy verdict at seeds 1 and 3.
    _assert_reference_bytes("stopping", seed, tmp_path)


@pytest.mark.parametrize("experiment, seed", [
    ("aperture", 20250808),  # aperture and vertical ignore the seed
    ("vertical", 20250808),
    *(("l2-bound", seed) for seed in (20250808, 1, 2, 3)),
])
def test_collapse_reports_match_benchmark_reference(experiment, seed, tmp_path):
    # The aperture-batched collapse series and oracle keep every digit.
    _assert_reference_bytes(experiment, seed, tmp_path)


def test_cli_refuses_wide_aperture(tmp_path):
    # The collapsed series holds for alpha <= 2 only; 3.0 is refused, not answered.
    proc = _run_cli(["run", "aperture", "--alpha", "1.0,3.0", "--depth", "12",
                     "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the collapsed norm series needs aperture <= 2")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "aperture" / "report.json").exists()


def test_cli_refuses_repeated_aperture(tmp_path, capsys):
    # A repeated aperture would write its series rows twice and overwrite its
    # total; the flag, a config file and validate-config all refuse it.
    cfg = tmp_path / "twice.json"
    cfg.write_text(json.dumps({"alphas": [1.0, 1.5, 1]}))
    out = tmp_path / "out"
    for args, shown in ((["run", "aperture", "--alpha", "1,1", "--out", str(out)], "1.0, 1.0"),
                        (["run", "aperture", "--config", str(cfg), "--out", str(out)],
                         "1.0, 1.5, 1.0"),
                        (["validate-config", str(cfg)], "1.0, 1.5, 1.0")):
        assert cli_main(args) == 2
        assert capsys.readouterr() == ("", f"error: alphas must not repeat an aperture, got {shown}\n")
    assert not out.exists()
    proc = _run_cli(["run", "aperture", "--alpha", "2,1.5,2", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: alphas must not repeat an aperture, got 2.0, 1.5, 2.0\n"
    assert not out.exists()


def test_cli_budget_error_names_aperture(tmp_path):
    # A spent quadrature budget is a one-line error naming the aperture.
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({"rel_tol": 1e-9}))
    proc = _run_cli(["run", "aperture", "--config", str(cfg), "--alpha", "1.5,2.0",
                     "--depth", "12", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: series error estimate")
    assert "at alpha=1.5; raise y_resolution_depth" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "aperture" / "report.json").exists()


def test_cli_failure_exit_code(tmp_path, monkeypatch):
    # Force a verdict failure by shrinking a pinned constant.
    import nhsq.pinned as pinned

    monkeypatch.setattr(pinned, "GROWTH_MAX", 1e-9)
    code = cli_main(["run", "growth", "--out", str(tmp_path)])
    assert code == 1


def test_cli_prints_counters_not_serialized(tmp_path, monkeypatch, capsys):
    import nhsq.cli as cli

    def fake_run(cfg):
        report = ExperimentReport(name=cfg.experiment, config={})
        report.counters["things"] = 3
        return report

    monkeypatch.setattr(cli, "run", fake_run)
    assert cli_main(["run", "growth", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["counter: things = 3", lines[-1]]
    assert lines[-1].startswith("runtime: ")
    assert b"things" not in (tmp_path / "growth" / "report.json").read_bytes()


@pytest.mark.parametrize("message", ["Unable to allocate 748. GiB for an array", ""])
def test_cli_out_of_memory_exits_two(message, tmp_path, monkeypatch, capsys):
    # A config too large to allocate ends in one error line and exit 2, not
    # a traceback and the failed-verdict exit 1.  Nothing is allocated here.
    import nhsq.cli as cli

    def fake_run(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run", fake_run)
    assert cli_main(["run", "tb-testing", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1
    assert message in err
    assert not (tmp_path / "tb-testing" / "report.json").exists()


def test_cli_runtime_line_reports_peak_rss(tmp_path, monkeypatch, capsys):
    # The peak RSS goes to stdout only; without the resource module the line
    # keeps just the run time.
    assert cli_main(["run", "growth", "--out", str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"runtime: \d+\.\d\ds, peak RSS \d+\.\d MB", last)
    assert float(last.split()[-2]) > 1.0
    for name in ("report.json", "series.csv"):
        assert b"RSS" not in (tmp_path / "growth" / name).read_bytes()
    monkeypatch.setitem(sys.modules, "resource", None)
    assert cli_main(["run", "growth", "--out", str(tmp_path)]) == 0
    assert re.fullmatch(r"runtime: \d+\.\d\ds", capsys.readouterr().out.splitlines()[-1])


def test_cli_svg_flag(tmp_path):
    proc = _run_cli(
        ["run", "aperture", "--depth", "6", "--alpha", "1.0,2.0", "--svg",
         "--out", str(tmp_path)]
    )
    # At depth 6 criteria 1a and 1b cannot run: a skip is not a pass.
    assert proc.returncode == 1
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("[SKIP]")] == [
        "[SKIP] criterion 1a: needs N >= 40, got N = 6",
        "[SKIP] criterion 1b: needs N >= 32, got N = 6",
    ]
    assert (tmp_path / "aperture" / "series.svg").exists()


def test_cli_seed_changes_report(tmp_path):
    _run_cli(["run", "growth", "--seed", "1", "--out", str(tmp_path / "a")])
    _run_cli(["run", "growth", "--seed", "2", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "growth" / "report.json").read_bytes()
    b = (tmp_path / "b" / "growth" / "report.json").read_bytes()
    assert a != b


@pytest.mark.parametrize("args, line", [
    (["weak11"], "counter: conical_value_atom_depth = 6"),
    (["aperture", "--depth", "6", "--alpha", "1.0,2.0"], "counter: oracle_atom_depth = 5"),
])
def test_cli_names_the_clamped_atom_depth(args, line, tmp_path, capsys):
    # conical_value reads node atoms at most 6 levels deep and direct_norm_series
    # at most min(depth - N, 5) (5 on aperture's depth-9 oracle measure), whatever
    # y_resolution_depth asks; the depth used goes to stdout, not to the report.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"y_resolution_depth": 8}))
    cli_main(["run", *args, "--config", str(cfg), "--out", str(tmp_path)])
    assert line in capsys.readouterr().out.splitlines()
    assert b"atom_depth" not in (tmp_path / args[0] / "report.json").read_bytes()
