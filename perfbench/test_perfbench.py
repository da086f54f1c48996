"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The tracer tests run in-process on a stand-in module; the speed-probe tests
run the probe for a second.  The gate tests run
`nhsq run growth` once and feed its report to run.check against altered
copies of its reference entry.  The traced-pass
tests run perfbench/run.py --trace 1 twice on `collapse` and on
`exact-sweep` (about three minutes on two cores) and check that the work
counts repeat exactly and that each workload leaves the layers it should
not touch at zero calls.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def probe(monkeypatch):
    """A stand-in nhsq module with a function imported by name elsewhere."""
    mod = types.ModuleType("nhsq.perfbench_probe")

    def leaf(n):
        time.sleep(0.01)
        return [0] * n

    def outer(n):
        time.sleep(0.02)
        return mod.leaf(n)

    def rec(k):
        return 0 if k == 0 else 1 + mod.rec(k - 1)

    class Box:
        def size(self, n):
            return mod.leaf(n)

    mod.leaf, mod.outer, mod.rec, mod.Box = leaf, outer, rec, Box
    importer = types.ModuleType("nhsq.perfbench_importer")
    importer.leaf = leaf
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)
    return mod, importer


def _install(layers):
    t = tracer.Tracer("probe", layers)
    tracer.install(t)
    return t


def test_missing_target_is_reported_not_raised(probe):
    mod, _ = probe
    t = _install((
        tracer.Layer("gone", ("nhsq.perfbench_probe:renamed_away",)),
        tracer.Layer("gone_module", ("nhsq.no_such_module:leaf",)),
        tracer.Layer("gone_class", ("nhsq.perfbench_probe:NoClass.size",)),
        tracer.Layer("half", ("nhsq.perfbench_probe:old_name", "nhsq.perfbench_probe:Box.size")),
    ))
    assert t.missing == ["gone", "gone_module", "gone_class"]
    mod.Box().size(3)
    counters = t.counters()
    assert counters["gone.calls"] == 0 and counters["half.calls"] == 1


def test_every_import_site_is_wrapped_and_work_counted(probe):
    mod, importer = probe
    t = _install((tracer.Layer("leaf", ("nhsq.perfbench_probe:leaf",), spans=False,
                               work_metric="leaf.items", work=tracer._result_len),))
    mod.leaf(2)
    importer.leaf(5)
    c = t.counters()
    assert c["leaf.calls"] == 2 and c["leaf.items"] == 7
    assert t.spans == []  # hot targets keep counts only


def test_recursion_counts_the_outermost_call(probe):
    mod, _ = probe
    t = _install((tracer.Layer("rec", ("nhsq.perfbench_probe:rec",)),))
    assert mod.rec(5) == 5
    assert t.counters()["rec.calls"] == 1


def test_self_time_excludes_traced_children(probe):
    mod, _ = probe
    t = _install((tracer.Layer("outer", ("nhsq.perfbench_probe:outer",)),
                  tracer.Layer("leaf", ("nhsq.perfbench_probe:leaf",))))
    mod.outer(1)
    c = t.counters()
    assert c["outer.total_s"] >= c["leaf.total_s"] + 0.015
    assert c["outer.self_s"] == pytest.approx(c["outer.total_s"] - c["leaf.total_s"])
    (leaf_id, leaf_name, *_, leaf_parent), (outer_id, *_, outer_parent) = t.spans
    assert leaf_name == "leaf" and leaf_parent == outer_id and outer_parent is None


def test_layer_errors_in_work_counters_do_not_stop_the_run(probe):
    mod, _ = probe
    t = _install((tracer.Layer("leaf", ("nhsq.perfbench_probe:leaf",),
                               work_metric="leaf.items", work=lambda a, k, r: r["no such key"]),))
    assert mod.leaf(1) == [0]
    assert t.counters()["leaf.work_errors"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "collapse",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scale_divides_by_the_mean_probe_cycle():
    fast = [(float(t), run.PROBE_REF_S / 2) for t in range(100)]
    assert run.speed_scale(fast, 10.0, 60.0) == pytest.approx(2.0)
    mixed = fast[:50] + [(float(t), run.PROBE_REF_S * 2) for t in range(50, 100)]
    assert run.speed_scale(mixed, 50.0, 99.0) == pytest.approx(0.5)
    assert run.speed_scale(mixed, 0.0, 99.0) == pytest.approx(0.8)
    with pytest.raises(run.BenchError):
        run.speed_scale(fast, 10.0, 10.0 + run.PROBE_MIN_CYCLES - 2)


def test_speed_probe_records_cycles_and_stops(tmp_path):
    with run.SpeedProbe(tmp_path) as probe:
        time.sleep(1.0)
        cycles = probe.cycles()
    assert probe.proc.returncode is not None
    assert len(cycles) >= run.PROBE_MIN_CYCLES
    assert all(dt > 0 for _, dt in cycles)
    assert run.speed_scale(cycles, cycles[0][0], cycles[-1][0]) > 0


@pytest.fixture(scope="module")
def growth_report(tmp_path_factory):
    """A fresh `nhsq run growth` report at the default seed and its reference entry."""
    out = tmp_path_factory.mktemp("growth")
    seed = run.REFERENCE_SEEDS[0]
    proc = subprocess.run([sys.executable, "-m", "nhsq.cli", "run", "growth", "--seed", str(seed),
                           "--out", str(out)], cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    ref = json.loads(run.REFERENCE.read_text())[str(seed)]["growth"]
    return proc.returncode, out / "growth", proc.stdout + proc.stderr, ref


def test_gate_accepts_the_reference_answer(growth_report):
    code, out, log, ref = growth_report
    assert run.check(code, out, log, ref) == (None, 0)
    near = copy.deepcopy(ref)
    near["metrics"]["growth_max_ratio"] *= 1 + 1e-9  # inside rel_tol
    assert run.check(code, out, log, near) == (None, 0)


def test_gate_counts_a_byte_change_without_failing(growth_report):
    code, out, log, ref = growth_report
    moved = copy.deepcopy(ref)
    moved["sha256"]["series.csv"] = "0" * 64
    assert run.check(code, out, log, moved) == (None, 1)


def _altered(ref: dict, change) -> dict:
    ref = copy.deepcopy(ref)
    change(ref)
    return ref


@pytest.mark.parametrize("change", [
    lambda r: r.update(exit=1),
    lambda r: r["verdicts"][0].__setitem__(1, not r["verdicts"][0][1]),
    lambda r: r["metrics"].__setitem__("growth_max_ratio", r["metrics"]["growth_max_ratio"] * (1 + 1e-5)),
    lambda r: r["metrics"]["growth_witness"].__setitem__(0, r["metrics"]["growth_witness"][0] + 1e-3),
    lambda r: r["metrics"].pop("growth_lebesgue"),
    lambda r: r["metrics"].__setitem__("growth_extra", 1.0),
], ids=["exit", "verdict", "metric", "list-metric", "dropped-key", "extra-key"])
def test_gate_fails_a_wrong_answer(growth_report, change):
    code, out, log, ref = growth_report
    failure, _ = run.check(code, out, log, _altered(ref, change))
    assert failure is not None


def test_gate_fails_crash_refusal_and_timeout(growth_report):
    code, out, log, ref = growth_report
    assert run.check(code, out, log + "\nTraceback (most recent call last):\n", ref)[0]
    assert run.check(2, out, log, _altered(ref, lambda r: r.update(exit=2)))[0]
    assert run.check(None, out, log, ref)[0] == "timed out"


def _traced(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


WORK_COUNTS = (
    "sqfn.band_tail_weight.pairs",
    "logproduct.breakpoints.points",
    "sqfn.ci_segment_table.segments",
    "kernels.node_atoms.atoms",
    "logproduct.exponent.calls",
    "measures.split_geometry.calls",
)


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced(w), _traced(w)) for w in ("collapse", "exact-sweep")}


def test_two_traced_passes_count_the_same_work(traced_twice):
    for first, second in traced_twice.values():
        assert {k: first[k] for k in WORK_COUNTS} == {k: second[k] for k in WORK_COUNTS}
        assert first["trace.missing_targets"] == 0
    collapse, sweep = traced_twice["collapse"][0], traced_twice["exact-sweep"][0]
    assert collapse["sqfn.band_tail_weight.pairs"] > 0 and collapse["kernels.node_atoms.atoms"] > 0
    assert sweep["logproduct.breakpoints.points"] > 0 and sweep["sqfn.ci_segment_table.segments"] > 0


def test_workloads_leave_other_layers_idle(traced_twice):
    collapse, sweep = traced_twice["collapse"][0], traced_twice["exact-sweep"][0]
    busy = [k for k, v in collapse.items()
            if k.startswith(("logproduct.", "dyadic.")) and k.endswith(".calls") and v]
    assert busy == []
    assert sweep["sqfn.band_tail_weight.calls"] == 0
