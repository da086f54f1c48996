"""Named experiments reproducing the boundedness and divergence phenomena.

Each experiment builds its objects from one config and derives all
randomness from the root seed by name.  It is a generator: it fills the
report's metrics, series and counters, and yields one (criterion, passed,
detail) per acceptance criterion, numbered as in "1a" or "11.stopping".
A criterion that cannot run at this config yields passed=None with the
reason as detail.  run() alone turns the outcomes into report.verdicts and
report.skipped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import starmap
from pathlib import Path

import numpy as np

from . import pinned
from .dyadic import (
    Cube,
    GoodnessParams,
    ShiftedGrid,
    build_stopping,
    carleson_packing,
    classify_good,
    estimate_pi_good,
    martingale_decompose,
)
from .errors import ConfigError, InvalidParams, UnknownExperiment
from .kernels import (
    CantorKernel,
    LogProductKernel,
    StepKernel,
    check_holder_condition,
    check_size_condition,
)
from .logproduct import (
    build_logproduct,
    carleson_log_bound,
    log_moments,
    lp_divergence_witness,
)
from .measures import CantorMeasure, CantorParams, LebesgueInterval, growth_constant
from .reports import ExperimentReport, Verdict
from .rng import derive_rng, derive_seed
from .sqfn import (
    LeafFunction,
    QuadratureConfig,
    ci_profile,
    conical_norm_series,
    l2_operator_ratio,
    testing_functional,
    validate_collapse,
    vertical_norm_series,
    weak11_functional,
)

__all__ = ["ExperimentConfig", "run", "EXPERIMENTS", "FLAG_READERS", "list_experiments"]


@dataclass
class ExperimentConfig:
    experiment: str = ""
    m: float = 0.4
    C: float = 16.0
    depth: int = 0  # 0 = derived from N
    alphas: tuple = (1.0, 1.5, 2.0)
    N: int = 40
    t_steps_per_band: int = 32
    y_resolution_depth: int = 6
    rel_tol: float = 1e-3
    seed: int = 20250808
    out_dir: str = "out"
    svg: bool = False

    def __setattr__(self, name, val):
        # Every route that sets a field (constructor, config file, CLI) passes here.
        if name in ("N", "depth") and val < 0:
            raise ConfigError(f"{name} must be >= 0, got {val}")
        if name == "alphas" and len(set(val)) < len(val):  # one series and total per aperture
            raise ConfigError(f"alphas must not repeat an aperture, got {', '.join(map(str, val))}")
        if name in ("t_steps_per_band", "y_resolution_depth", "rel_tol"):
            # QuadratureConfig's rules, one key at a time (its other fields are valid defaults).
            try:
                QuadratureConfig(**{name: val})
            except InvalidParams as e:
                raise ConfigError(str(e)) from None
        super().__setattr__(name, val)

    def quad(self, trunc: int | None = None) -> QuadratureConfig:
        return QuadratureConfig(
            t_steps_per_band=self.t_steps_per_band,
            y_resolution_depth=self.y_resolution_depth,
            rel_tol=self.rel_tol,
            trunc_generation=self.N if trunc is None else trunc,
        )

    def measure(self, min_depth: int = 0):
        depth = self.depth if self.depth > 0 else max(self.N + 2, min_depth)
        return CantorMeasure(CantorParams(m=self.m, C=self.C, depth=depth))

    def echo(self) -> dict:
        # Output routing (out_dir, svg) stays out of the payload so reports
        # written to different places remain byte-identical.
        d = asdict(self)
        d["alphas"] = list(self.alphas)
        d.pop("out_dir")
        d.pop("svg")
        return d

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        cfg = ExperimentConfig()
        types = {f.name: f.type for f in fields(cfg)}
        for key, val in raw.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            want, ok, convert = _FIELD_TYPES[types[key]]
            if not ok(val):
                raise ConfigError(f"config key {key!r} must be {want}, got {json.dumps(val)}")
            setattr(cfg, key, convert(val))
        return cfg


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


# Field type name -> (description, check, conversion) for config values.
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "float": ("a number", _is_number, float),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "tuple": ("a list of numbers",
              lambda v: isinstance(v, list) and all(map(_is_number, v)),
              lambda v: tuple(map(float, v))),
}


# -- individual experiments ---------------------------------------------------------


def _skip_reason(series: dict, alpha: float, N: int, n_min: int) -> str:
    """Why a criterion on the aperture alpha series up to n_min did not run."""
    if alpha not in series:
        return f"needs alpha = {alpha:g} in the aperture grid"
    return f"needs N >= {n_min}, got N = {N}"


def _exp_aperture(cfg: ExperimentConfig, report: ExperimentReport):
    measure = cfg.measure()
    quad = cfg.quad()
    series = {}
    for s in conical_norm_series(measure, cfg.alphas, cfg.N, quad):
        series[s.alpha] = s
        report.add_series(s)
        report.metrics[f"total_alpha_{s.alpha}"] = s.total
        # How much of the rel_tol budget the error estimate used (stdout only).
        report.counters[f"rel_tol_share_alpha_{s.alpha}"] = float(
            s.err_est.sum() / (cfg.rel_tol * s.total))

    if 1.0 in series and cfg.N >= 40:
        s1 = series[1.0]
        ps = s1.partial_sums
        tail = float(ps[40] - ps[20])
        envelope = sum((n + 1) ** -2.0 for n in range(21, 41))
        k_tail = max(s1.terms[n] * (n + 1) ** 2 for n in range(cfg.N + 1))
        report.metrics["tail_p40_minus_p20"] = tail
        report.metrics["tail_envelope_constant"] = float(k_tail)
        limit = 1.10 * pinned.APERTURE1_TAIL_K * envelope
        yield "1a", tail <= limit, f"P40-P20={tail:.3e} vs 1.1*K*sum={limit:.3e}"
    else:
        yield "1a", None, _skip_reason(series, 1.0, cfg.N, 40)
    if 2.0 in series and cfg.N >= 32:
        ps2 = series[2.0].partial_sums
        cs = {}
        for n0 in (8, 16):
            cs[n0] = float(ps2[2 * n0] - ps2[n0]) * cfg.C / math.log(2.0)
        stable = abs(cs[8] - cs[16]) <= 0.25 * min(cs.values())
        ok = all(c > 0 for c in cs.values()) and stable
        report.metrics["alpha2_fitted_c_n8"] = cs[8]
        report.metrics["alpha2_fitted_c_n16"] = cs[16]
        yield "1b", ok, f"fitted c: {cs[8]:.4f} (N=8), {cs[16]:.4f} (N=16)"
    else:
        yield "1b", None, _skip_reason(series, 2.0, cfg.N, 32)

    oracle_measure = CantorMeasure(CantorParams(m=cfg.m, C=cfg.C, depth=9))
    worst = validate_collapse(oracle_measure, cfg.alphas, 3, cfg.quad(trunc=3))
    report.counters["oracle_atom_depth"] = cfg.quad(trunc=3).oracle_atom_depth(oracle_measure.depth, 3)
    report.metrics["collapse_worst_rel_err"] = worst
    yield "2", worst <= 0.01, f"collapse vs enumeration: {worst:.2e}"


def _exp_vertical(cfg: ExperimentConfig, report: ExperimentReport):
    if cfg.N < (n0 := 2):
        raise ConfigError(f"vertical needs N >= 2 for its fit over n = 2..N, got {cfg.N}")
    measure = cfg.measure()
    quad = cfg.quad()
    sv = vertical_norm_series(measure, cfg.N, quad)
    [s2] = conical_norm_series(measure, [2.0], cfg.N, quad)
    report.add_series(sv)
    report.metrics["vertical_total"] = sv.total

    c_fit = min(float(sv.terms[n] * cfg.C * (n + 1)) for n in range(n0, cfg.N + 1))
    report.metrics["vertical_harmonic_c"] = c_fit
    dom = max(float(s2.terms[n] / sv.terms[n]) for n in range(cfg.N + 1))
    report.metrics["alpha2_over_vertical"] = dom
    ok = c_fit > 0 and dom <= pinned.ALPHA2_OVER_VERTICAL
    yield "3", ok, f"harmonic c={c_fit:.4f} > 0; S2/V termwise max {dom:.4f}"


def _exp_l2_bound(cfg: ExperimentConfig, report: ExperimentReport):
    depth = 5
    measure = cfg.measure(min_depth=depth + 4)
    quad = cfg.quad(trunc=min(cfg.N, 12))
    rng = derive_rng(cfg.seed, "l2-bound-vectors")
    fs = [LeafFunction.constant(measure, depth, 1.0)]
    for _ in range(20):
        fs.append(LeafFunction(measure, depth, rng.choice([-1.0, 1.0], size=4**depth)))
    best, _, ratios = l2_operator_ratio(measure, fs, 1.0, quad)
    report.metrics["l2_ratio_max"] = best
    report.metrics["l2_ratio_f1"] = ratios[0]
    yield "4", best <= pinned.L2_RATIO_MAX, f"max ratio {best:.4e} <= {pinned.L2_RATIO_MAX}"


def _exp_growth(cfg: ExperimentConfig, report: ExperimentReport):
    measure = CantorMeasure(CantorParams(m=cfg.m, C=cfg.C, depth=7))
    est = growth_constant(measure, cfg.m, 100_000, derive_seed(cfg.seed, "growth"))
    report.metrics["growth_max_ratio"] = est.max_ratio
    report.metrics["growth_witness"] = list(est.witness)
    leb = growth_constant(LebesgueInterval(0, 1), 1.0, 10_000, derive_seed(cfg.seed, "growth-leb"))
    report.metrics["growth_lebesgue"] = leb.max_ratio
    ok = est.max_ratio <= 4.0 and est.max_ratio <= pinned.GROWTH_MAX
    yield "5", ok, f"sup ratio {est.max_ratio:.4f} <= min(4, pinned {pinned.GROWTH_MAX})"


def _exp_kernel_conditions(cfg: ExperimentConfig, report: ExperimentReport):
    measure = CantorMeasure(CantorParams(m=cfg.m, C=cfg.C, depth=10))
    kc = CantorKernel(measure)
    kv = LogProductKernel(build_logproduct("demo", 3))
    n = 10_000
    seed = derive_seed(cfg.seed, "kernel-conditions")
    ok = True
    for name, kernel, s_max, h_max in (
        ("cantor", kc, pinned.SIZE_RATIO_CANTOR, pinned.HOLDER_RATIO_CANTOR),
        ("logproduct", kv, pinned.SIZE_RATIO_LOGPRODUCT, pinned.HOLDER_RATIO_LOGPRODUCT),
    ):
        size = check_size_condition(kernel, n, seed)
        hold = check_holder_condition(kernel, n, seed)
        report.metrics[f"size_ratio_{name}"] = size.worst_ratio
        report.metrics[f"holder_ratio_{name}"] = hold.worst_ratio
        report.metrics[f"holder_growth_{name}"] = hold.scale_growth
        ok = (ok and size.worst_ratio <= s_max and hold.worst_ratio <= h_max
              and not hold.looks_unbounded)
    step = check_holder_condition(StepKernel(m=cfg.m), n, seed)
    report.metrics["holder_growth_step"] = step.scale_growth
    ok = ok and step.scale_growth >= 10.0 * (1.0 - 1e-9) and step.looks_unbounded
    yield "6", ok, f"worst ratios finite and pinned; step growth {step.scale_growth:.3f}x/decade"


def _exp_logproduct(cfg: ExperimentConfig, report: ExperimentReport):
    fp = build_logproduct("paper", 4)
    rng = derive_rng(cfg.seed, "logproduct-intervals")

    mass_ok = all(F.total_measure * F.a_n == Fraction(1, 2**F.n) for F in fp.factors)
    witnesses = [lp_divergence_witness(fp, n) for n in range(1, 5)]
    witness_ok = all(w >= n for n, w in zip(range(1, 5), witnesses))
    report.metrics["divergence_witnesses"] = [float(w) for w in witnesses]

    overlap_ok = True
    carleson_ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 40))
        k = int(rng.integers(0, 2**d))
        E = 1 << d  # I = [k/E, (k+1)/E]; the tests below are exact, cleared of denominators
        for F in fp.factors:
            if F.k_exp >= d + 1:  # len(I) >= 2/k_n: spacing regime of the bound
                num, den = F.overlap_parts(k, k + 1, E)
                tn, td = F.total_measure.as_integer_ratio()
                if num * td * E > 2 * tn * den:  # |E_n ∩ I| > 2 |E_n| len(I)
                    overlap_ok = False
        bound = carleson_log_bound(fp, Fraction(k, E), Fraction(k + 1, E)).bound
        if bound.numerator * E > 2 * bound.denominator:  # U(I) > 2 len(I)
            carleson_ok = False
    ok7 = mass_ok and witness_ok and overlap_ok and carleson_ok
    yield "7", ok7, (f"mass rule {mass_ok}, witnesses {witness_ok}, "
                     f"overlap {overlap_ok}, carleson {carleson_ok} (exact)")

    ratios = {}
    for N in (2, 3, 4):
        fd = build_logproduct("demo", N)
        mom = log_moments(fd, (1, 4))
        ratios[N] = mom[4] / mom[1]
        report.metrics[f"moment_ratio_N{N}"] = float(ratios[N])
    ok9 = ratios[2] < ratios[3] < ratios[4]
    yield "9", ok9, ("p=4 to p=1 moment ratio increases with N: "
                     + ", ".join(f"{float(ratios[N]):.4f}" for N in (2, 3, 4)))


def _exp_tb_testing(cfg: ExperimentConfig, report: ExperimentReport):
    quad = cfg.quad(trunc=12)
    sups = {}
    report.counters.update(tb_ci_elements=0, tb_ci_blocks=0)
    for N in (2, 3, 4):
        kv = LogProductKernel(build_logproduct("demo", N))
        prof = ci_profile(kv, 12, quad)
        sups[N] = prof["sup"]
        report.metrics[f"ci_sup_N{N}"] = prof["sup"]
        report.counters["tb_ci_elements"] += prof["elements"]
        report.counters["tb_ci_blocks"] += prof["blocks"]
    growth = max(sups[3] / sups[2], sups[4] / sups[3]) - 1.0
    report.metrics["ci_sup_growth"] = growth
    ok8 = max(sups.values()) <= pinned.CI_SUP_MAX and growth <= 0.05
    yield "8", ok8, (f"sup C_I/len {max(sups.values()):.4f} <= {pinned.CI_SUP_MAX}, "
                     f"growth across N {growth:.2%} <= 5%")

    measure = CantorMeasure(CantorParams(m=cfg.m, C=cfg.C, depth=14))
    nodes = [(g, i) for g in range(7) for i in range(4**g)]
    res = testing_functional(measure, nodes, quad)
    report.metrics["tb_cantor_sup"] = res.sup_ratio
    report.counters["tb_degenerate_cubes"] = int(res.degenerate.sum())
    yield ("8.cantor-pin", res.sup_ratio <= pinned.TB_CANTOR_SUP,
           f"Cantor-kernel testing sup {res.sup_ratio:.4e} (recorded; grows ~log N)")


def _exp_weak11(cfg: ExperimentConfig, report: ExperimentReport):
    depth = 5
    measure = cfg.measure(min_depth=12)
    quad = cfg.quad(trunc=10)
    report.counters["conical_value_atom_depth"] = quad.point_atom_depth()
    kernel = CantorKernel(measure)
    rng = derive_rng(cfg.seed, "weak11-spikes")
    leaves = rng.integers(0, 4**depth, size=10)
    lam_grid = np.geomspace(1e-3, 1e5, 81)
    sup = 0.0
    for leaf in leaves:
        f = LeafFunction.spike(measure, depth, int(leaf))
        res = weak11_functional(kernel, measure, f, lam_grid, quad)
        sup = max(sup, res.sup_value)
    report.metrics["weak11_sup"] = sup
    yield "10", sup <= pinned.WEAK11_MAX, f"sup lambda*mu(level)/||f||_1 = {sup:.4f}"


def _exp_goodness(cfg: ExperimentConfig, report: ExperimentReport):
    params = GoodnessParams.from_exponents(cfg.m, 1.0, ensure_positive=True)
    cutoff = params.r + 4
    est = estimate_pi_good(cfg.m, 1.0, 500, derive_seed(cfg.seed, "pi-good"), cutoff)
    est2 = estimate_pi_good(cfg.m, 1.0, 500, derive_seed(cfg.seed, "pi-good"), cutoff)
    report.metrics["pi_good_estimates"] = est.estimates
    report.metrics["pi_good_se"] = est.pooled_se
    indep_ok = est.spread_in_se <= 3.0
    det_ok = est.estimates == est2.estimates

    # Fine-scale shift bits must not affect the classification.
    rng = derive_rng(cfg.seed, "goodness-invariance")
    violations = 0
    i_q, extra = cutoff, 4
    for _ in range(100):
        coarse = tuple(int(b) for b in rng.integers(0, 2, size=i_q))
        fine_a = tuple(int(b) for b in rng.integers(0, 2, size=extra))
        fine_b = tuple(int(b) for b in rng.integers(0, 2, size=extra))
        cube = Cube(i_q, int(rng.integers(0, 50)))
        ga = ShiftedGrid(0, i_q + extra, coarse + fine_a)
        gb = ShiftedGrid(0, i_q + extra, coarse + fine_b)
        ra = classify_good(ga, cube, params, cutoff)
        rb = classify_good(gb, cube, params, cutoff)
        if ra.status != rb.status:
            violations += 1
    report.metrics["goodness_shift_violations"] = violations
    ok = indep_ok and det_ok and violations == 0
    yield "11.goodness", ok, (f"estimates {est.estimates} spread {est.spread_in_se:.2f} SE; "
                              f"{violations} fine-shift violations")


def _flip_b_family(grid: ShiftedGrid, n_leaves: int):
    """Accretive system: +1 left of the cube's 5/16 point, -1 right of it,
    so every cube average is -3/8; cubes too small to carry the split get
    the constant function instead."""

    def b_of(cube: Cube) -> np.ndarray:
        s, ln = grid.cube_units(cube)
        v = np.zeros(n_leaves)
        if ln < 16:
            v[s:s + ln] = 1.0
            return v
        flip = s + (5 * ln) // 16
        v[s:flip] = 1.0
        v[flip:s + ln] = -1.0
        return v

    return b_of


def _exp_stopping(cfg: ExperimentConfig, report: ExperimentReport):
    lb = LebesgueInterval(0, 1)
    i_max = 8
    grid = ShiftedGrid(0, i_max, (0,) * i_max)
    root = Cube(0, 0)
    n_leaves = 2**i_max

    flip = _flip_b_family(grid, n_leaves)
    forest = build_stopping(lb, flip, root, 0.25, 8, grid)
    tau = forest.max_packing_fraction()
    packing = carleson_packing(forest, lb, root)
    bound = 1.0 / (1.0 - tau) + 1.0
    report.metrics["tau_hat"] = tau
    report.metrics["packing_root"] = packing
    report.metrics["stopping_layers"] = [len(l) for l in forest.layers]

    ones = lambda cube: np.ones(n_leaves)
    forest1 = build_stopping(lb, ones, root, 0.5, 8, grid)
    rng = derive_rng(cfg.seed, "stopping-f")
    fs = rng.normal(size=(20, n_leaves))
    recon_err = 0.0
    mean_err = 0.0
    energy_ratio = 0.0
    for fr in (forest1, forest):
        mc = martingale_decompose(lb, fr, fs, depth=i_max)
        recon_err = max(recon_err, float(np.max(np.abs(mc.reconstruction() - fs))))
        mean_err = max(
            mean_err,
            max(float(np.max(np.abs(mc.integral(q)))) for q in mc.cubes if q != root),
        )
        fsq = np.sum(fs**2 * mc.leaf_masses, axis=1)
        energy_ratio = max(energy_ratio, float(np.max(mc.energy() / fsq)))
    report.metrics["reconstruction_err"] = recon_err
    report.metrics["zero_mean_err"] = mean_err
    report.metrics["energy_ratio"] = energy_ratio
    ok = (
        tau < 1.0
        and packing <= bound
        and recon_err <= 1e-10
        and mean_err <= 1e-12
        and energy_ratio <= pinned.ENERGY_RATIO_MAX
    )
    yield "11.stopping", ok, (f"tau={tau:.3f}, packing {packing:.3f} <= {bound:.3f}, "
                              f"recon {recon_err:.1e}, zero-mean {mean_err:.1e}, "
                              f"energy {energy_ratio:.4f}")


EXPERIMENTS = {
    "aperture": _exp_aperture,
    "vertical": _exp_vertical,
    "l2-bound": _exp_l2_bound,
    "growth": _exp_growth,
    "kernel-conditions": _exp_kernel_conditions,
    "logproduct": _exp_logproduct,
    "tb-testing": _exp_tb_testing,
    "weak11": _exp_weak11,
    "goodness": _exp_goodness,
    "stopping": _exp_stopping,
}
# CLI flag -> the experiments that read it (--alpha sets alphas, --depth sets N).
FLAG_READERS = {"alpha": ("aperture",), "depth": ("aperture", "vertical", "l2-bound", "weak11")}


def list_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.experiment not in EXPERIMENTS:
        raise UnknownExperiment(
            f"unknown experiment {cfg.experiment!r}; known: {', '.join(list_experiments())}"
        )
    report = ExperimentReport(name=cfg.experiment, config=cfg.echo())
    t0 = time.perf_counter()
    outcomes = list(EXPERIMENTS[cfg.experiment](cfg, report))
    report.verdicts = list(starmap(Verdict, [o for o in outcomes if o[1] is not None]))
    report.skipped = [(criterion, why) for criterion, passed, why in outcomes if passed is None]
    report.runtime_seconds = time.perf_counter() - t0
    return report
