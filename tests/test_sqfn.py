import gc
import math
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from nhsq import sqfn
from nhsq.errors import (
    EmptyCubeList,
    InvalidParams,
    OracleMismatch,
    QuadratureBudgetExceeded,
)
from nhsq.kernels import (
    CantorKernel,
    LogProductKernel,
    bump,
    node_atoms,
    phi_v_antiderivative,
    strip_atoms,
    theta_unit,
)
from nhsq.experiments import ExperimentConfig, run
from nhsq.logproduct import _segments, build_logproduct
from nhsq.measures import CantorMeasure, CantorParams, _split_geometry
from nhsq.rng import derive_rng
from nhsq.sqfn import (
    CantorSquareContext,
    LeafFunction,
    QuadratureConfig,
    ci_profile,
    conical_norm_series,
    conical_value,
    direct_norm_series,
    l2_operator_ratio,
    validate_collapse,
    vertical_norm_series,
    vertical_value,
    weak11_functional,
    _band_tail_weight,
    _distances,
    _ln_sat,
    _node_coefficient,
    _tail_chunks,
    _vertical_sq,
)
from nhsq.sqfn import testing_functional as sq_testing_functional
from test_measures import _mass_rec

M, C = 0.4, 16.0
LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def measure():
    return CantorMeasure(CantorParams(m=M, C=C, depth=12))


@pytest.fixture(scope="module")
def kernel(measure):
    return CantorKernel(measure)


@pytest.fixture(scope="module")
def quad():
    return QuadratureConfig(t_steps_per_band=32, y_resolution_depth=6,
                            rel_tol=1e-3, trunc_generation=10)


@pytest.fixture(scope="module")
def ctx(measure, quad):
    return CantorSquareContext(measure, quad)


def test_quadrature_config_validation():
    # A config checks itself on construction: no route can run on a bad one.
    with pytest.raises(InvalidParams):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(InvalidParams):
        QuadratureConfig(t_steps_per_band=0)
    with pytest.raises(InvalidParams):
        ci_profile(LogProductKernel(build_logproduct("demo", 2)), 2,
                   QuadratureConfig(t_steps_per_band=0, rel_tol=5.0))
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidParams, match="aperture must be finite and >= 1"):
            sqfn._check_collapse_aperture(bad)


def test_series_shapes_and_monotone(measure, quad):
    [s1] = conical_norm_series(measure, [1.0], 10, quad)
    assert len(s1.terms) == 11
    assert np.all(s1.terms >= 0)
    assert np.all(np.diff(s1.partial_sums) >= 0)
    rows = s1.rows()
    assert rows[0][0] == 0 and rows[-1][0] == 10
    assert all(r[1] == 1.0 for r in rows)


def test_aperture_dichotomy_shape(measure, quad):
    s1, s2 = conical_norm_series(measure, [1.0, 2.0], 10, quad)
    # alpha = 1 terms decay quadratically; alpha = 2 terms only harmonically.
    k1 = [s1.terms[n] * (n + 1) ** 2 for n in range(11)]
    k2 = [s2.terms[n] * C * (n + 1) for n in range(11)]
    assert max(k1) / min(k1) < 1.5  # stable quadratic-decay constant
    assert max(k2) / min(k2) < 1.5  # stable harmonic constant
    assert min(k2) > 0


def test_aperture_threshold_is_harmonic_just_above_one(measure, quad):
    # Paper result 3 at the threshold: for alpha barely above 1 the excess
    # e_n = C (n + 1) (g(n, alpha) - g(n, 1)) is already a positive constant
    # in n (a harmonic, divergent tail), while C (n + 1) g(n, 1) halves per
    # doubling of n (quadratic decay).  The thin alpha = 1.001 annulus runs
    # the tail windows at their narrowest.
    ctx = CantorSquareContext(measure, quad)
    alphas = (1.0, 1.001, 1.01, 1.1)
    excess, base = {}, {}
    for n in (160, 320):
        (g1, err1), *rest = ctx.g_term(n, alphas)
        base[n] = C * (n + 1) * g1
        for alpha, (g, err) in zip(alphas[1:], rest):
            excess[n, alpha] = C * (n + 1) * (g - g1)
            assert 1000 * C * (n + 1) * (err + err1) <= excess[n, alpha]
    for alpha in alphas[1:]:
        assert excess[160, alpha] > 0 and excess[320, alpha] > 0
        assert abs(excess[160, alpha] / excess[320, alpha] - 1) < 0.01
    assert abs(base[160] / base[320] / 2 - 1) < 0.01


def test_aperture_monotone_in_alpha(measure, quad):
    series = conical_norm_series(measure, (1.0, 1.5, 2.0), 8, quad)
    series = {s.alpha: s.terms for s in series}
    assert np.all(series[1.0] <= series[1.5] + 1e-18)
    assert np.all(series[1.5] <= series[2.0] + 1e-18)


def test_collapse_against_enumeration(measure, quad):
    for alpha in (1.0, 1.5, 2.0):
        worst = validate_collapse(measure, [alpha], 3, quad, tol=0.01)
        assert worst <= 0.01


def test_collapse_refuses_wide_aperture(measure, quad):
    # Beyond alpha = 2 the balls leave the node; the collapse would miss
    # that mass, so every collapsed route refuses instead of answering.
    wide = 2.5
    with pytest.raises(InvalidParams):
        conical_norm_series(measure, [wide], 4, quad)
    with pytest.raises(InvalidParams):
        direct_norm_series(measure, [wide], 2, quad)
    with pytest.raises(InvalidParams):
        validate_collapse(measure, [wide], 2, quad)
    with pytest.raises(InvalidParams):
        l2_operator_ratio(measure, [LeafFunction.constant(measure, 2)], wide, quad)
    # The pointwise value sums over the nodes containing x, which misses the
    # strips of neighbouring nodes beyond alpha = 2, so it refuses too.
    with pytest.raises(InvalidParams):
        conical_value(CantorKernel(measure), measure, None, 0.3, wide, quad)


def test_collapse_mismatch_raises(measure, quad):
    with pytest.raises(OracleMismatch):
        validate_collapse(measure, [1.0], 3, quad, tol=1e-12)


def _where_tail_weight(d, t_lo, t_hi, alpha, m):
    """The band tail weight as first written, one temporary per operation."""
    d = np.asarray(d, dtype=float)
    lo = np.maximum(t_lo, d / alpha)
    return np.where(lo < t_hi, (lo ** -m - t_hi ** -m) / m, 0.0)


def _same_bits(a, b):
    return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def test_band_tail_weight_matches_where_formula(measure, quad):
    cases = []
    for n in (0, 3, 7):
        tpl = measure.template(n, depth=min(quad.y_resolution_depth + 2, 9))
        Lhat = tpl.geometry[1].L
        u_mids, _ = strip_atoms(tpl, 0.0, 1.0, 1.0, 0, 3)
        starts, lens, _ = tpl.leaf_table(6)
        d = np.abs(u_mids[:, None] - (starts + lens / 2.0)[None, :])
        cases += [(d, Lhat / 2.0, Lhat), (d.T, Lhat / 2.0, Lhat)]
    rng = np.random.default_rng(5)
    cases.append((rng.random((40, 70)) * 0.8, 0.1, 0.2))
    for alpha in (1.0, 1.5, 2.0):
        t_lo, t_hi = 0.1, 0.2
        edges = np.array([alpha * t_lo, alpha * t_hi])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        points = (near, near.reshape(2, 3), 0.0, -0.0, float(near[1]), np.zeros(3),
                  np.array([np.nan, 1.0]))
        for d, lo, hi in cases + [(d, t_lo, t_hi) for d in points]:
            for m in (M, 0.25):
                before = np.array(d, copy=True)
                got = _band_tail_weight(d, lo, hi, alpha, m)
                assert _same_bits(got, _where_tail_weight(d, lo, hi, alpha, m))
                assert _same_bits(np.asarray(d), before)  # d is never written to
                if np.ndim(d):  # in place: out=d holds the formula of d as it was
                    buf = np.array(d, dtype=float)
                    assert _band_tail_weight(buf, lo, hi, alpha, m, out=buf) is buf
                    assert _same_bits(buf, got)


def _one_aperture_direct(measure, alpha, N, quad):
    """The enumeration oracle for one cone as first written: node atoms,
    theta, strip atoms and the dense |u - y| matrix rebuilt per aperture,
    through the first-written tail weight."""
    m = measure.m
    y_extra = min(quad.y_resolution_depth, measure.depth - N, 5)
    ref = np.zeros(N + 1)
    for n in range(N + 1):
        geo = measure.geometry[n + 1]
        for off, length, mass in zip(*measure.leaf_table(n)):
            L_abs = geo.L * length
            a_m, _, a_w = node_atoms(measure, off, length, mass, n, y_extra + 1)
            center = off + length / 2.0
            theta = float(np.sum(a_w * bump((a_m - center) / length))) / length**m
            s_mids, s_w = strip_atoms(measure, off, length, mass, n, max(y_extra - 2, 1))
            ref_tails = _where_tail_weight(np.abs(s_mids[:, None] - a_m[None, :]),
                                           L_abs / 2.0, L_abs, alpha, m)
            ref[n] += theta**2 * float(s_w @ ref_tails @ a_w)
    return ref


def _one_aperture_band_weight(measure, quad, n, alpha, y_depth):
    """A template band weight for one aperture, from a fresh template and
    the dense |u - y| matrix through the first-written tail weight."""
    tpl = measure.template(n, depth=min(quad.y_resolution_depth + 2, 9))
    Lhat = tpl.geometry[1].L
    u_mids, u_w = strip_atoms(tpl, 0.0, 1.0, 1.0, 0, min(max(y_depth - 3, 1), tpl.depth - 1))
    starts, lens, y_w = tpl.leaf_table(min(y_depth, tpl.depth))
    y_mids = starts + lens / 2.0
    ref_tails = _where_tail_weight(np.abs(u_mids[:, None] - y_mids[None, :]),
                                   Lhat / 2.0, Lhat, alpha, measure.m)
    return float(u_w @ ref_tails @ y_w)


def test_band_weights_match_dense_reference(measure, quad, monkeypatch):
    # band_weights and the direct enumeration equal the dense |u - y| matrix
    # through the first-written tail weight, bit for bit, for every aperture
    # of a batch.  Every tail weight call is pure: without out it leaves d
    # as it was, and with out=d it returns the formula of d as it was.
    alphas = (1.0, 1.5, 2.0)
    intact = []

    pairs = {"dense": 0, "formula": 0}

    def checked_tail_weight(d, *args, out=None):
        before = np.array(d, copy=True)
        got = _band_tail_weight(d, *args, out=out)
        if out is None:
            intact.append(_same_bits(d, before))
        else:
            intact.append(got is out and _same_bits(got, _where_tail_weight(before, *args)))
        pairs["formula"] += np.size(d)
        return got

    band_forms = sqfn._band_forms

    def counted_forms(u, u_w, y, y_w, t_lo, t_hi, alphas, m):
        pairs["dense"] += len(u) * len(y) * len(alphas)
        return band_forms(u, u_w, y, y_w, t_lo, t_hi, alphas, m)

    monkeypatch.setattr(sqfn, "_band_tail_weight", checked_tail_weight)
    monkeypatch.setattr(sqfn, "_band_forms", counted_forms)
    fresh = CantorSquareContext(measure, quad)
    for n, y_depth in ((0, 6), (2, 5), (5, 6), (9, 4)):
        refs = [_one_aperture_band_weight(measure, quad, n, a, y_depth) for a in alphas]
        assert fresh.band_weights(n, alphas, y_depth) == refs
        for alpha, ref in zip(alphas, refs):
            assert fresh.band_weight(n, alpha, y_depth) == ref
    N = 3
    direct = direct_norm_series(measure, list((1.0, 2.0)), N, quad)
    for alpha, series in zip((1.0, 2.0), direct):
        ref = _one_aperture_direct(measure, alpha, N, quad)
        assert series.terms.tobytes() == ref.tobytes()
    # The windowed tails hand the formula fewer pairs than the dense matrix.
    assert intact and all(intact)
    assert 0 < pairs["formula"] < pairs["dense"]


_ALPHAS = (1.0, 1.5, 2.0, 6.0, 10.0)


def _collapse_cases():
    """(u, y, t_lo, t_hi, alphas) inputs of _band_forms: template and
    oracle-node atoms as the collapse builds them."""
    alphas = _ALPHAS
    cases = []
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=42))
    for n in (0, 3, 7, 40):
        tpl = deep.template(n, depth=8)
        Lhat = tpl.geometry[1].L
        for y_depth in (5, 6):
            u, _ = strip_atoms(tpl, 0.0, 1.0, 1.0, 0, y_depth - 3)
            starts, lens, _ = tpl.leaf_table(y_depth)
            cases.append((u, starts + lens / 2.0, Lhat / 2.0, Lhat, alphas))
    shallow = CantorMeasure(CantorParams(m=M, C=C, depth=9))
    for off, length, mass in list(zip(*shallow.leaf_table(3)))[::9]:
        L_abs = shallow.geometry[4].L * length
        u, _ = strip_atoms(shallow, off, length, mass, 3, 1)
        y = node_atoms(shallow, off, length, mass, 3, 4)[0]
        cases.append((u, y, L_abs / 2.0, L_abs, alphas))
    return cases


def _tails_cases():
    """The collapse cases, y at the window radii and their float neighbours,
    repeated y, an empty window, empty bands and duplicate-heavy y."""
    alphas = _ALPHAS
    cases = _collapse_cases()
    # y at u +- alpha t and up to three floats either side.  The radii are
    # picked so that the tail weight at d = alpha * t (as rounded) is not 0
    # at t_hi and not the inner constant at t_lo: a window without margins
    # then misplaces some of these columns.
    u = np.random.default_rng(9).uniform(0.0, 1.0, 100)
    grid = np.linspace(0.005, 0.09, 1001)
    for alpha in alphas:
        def at(d, t_lo, t_hi):
            return _band_tail_weight(np.array([d]), t_lo, t_hi, alpha, M)[0]

        t_hi = next((t for t in grid[500:] if at(alpha * t, t / 4, t) != 0.0), 0.025)
        t_lo = next((t for t in grid[:100] if at(alpha * t, t, t_hi) != at(0.0, t, t_hi)), 0.0125)
        edges = (u[:, None] + alpha * np.array([-t_hi, -t_lo, t_lo, t_hi])).ravel()
        ys, below, above = [edges], edges, edges
        for _ in range(3):
            below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
            ys += [below, above]
        cases.append((u, np.sort(np.concatenate(ys)), t_lo, t_hi, (alpha,)))
    u, y, t_lo, t_hi = u[:40], np.repeat(np.linspace(0.0, 1.0, 50), 3), 0.0125, 0.025
    cases += [(u, y, t_lo, t_hi, alphas), (u[:1], y, t_lo, t_hi, alphas),
              (u, y, t_hi, t_lo, alphas), (u, y, t_hi, t_hi, alphas)]
    # Duplicate-heavy y for the distinct columns of _band_forms: all equal,
    # on and off the grain; a run of five straddling the end of the whole
    # grains (index 32 of 45); runs of 40 with len(y) on the grain; no y.
    runs = np.repeat(np.linspace(0.3, 0.7, 9), 5)
    cases += [(u, y, 0.05, 0.1, alphas) for y in (
        np.full(40, 0.5), np.full(32, 0.5), runs, runs[:33],
        np.repeat(np.linspace(0.0, 1.0, 4), 40), np.zeros(0))]
    cases.append((u[:5] * 0.1, np.linspace(0.9, 1.0, 20), t_lo, t_hi, alphas))
    return cases


def _extent(u):
    """The per-block (min, max) of u that _band_forms hands _tail_chunks."""
    blocks = np.arange(0, len(u), sqfn.TAIL_BLOCK_ROWS)
    return np.minimum.reduceat(u, blocks), np.maximum.reduceat(u, blocks)


def _on_grain(i, h, rows):
    """Whether rows i .. i + h start on the grain and end on it or at rows."""
    grain = sqfn.TAIL_GRAIN
    return h > 0 and i % grain == 0 and (i + h == rows or (i + h) % grain == 0)


def _pasted_chunks(u, y, *band):
    """The chunks of _tail_chunks pasted into a zero (len(u), len(y)) matrix
    at their row offsets; each chunk is C-contiguous, its row span starts on
    the grain and ends on it or at the last row, and it starts after the
    last chunk's columns."""
    out, end = np.zeros((len(u), len(y))), 0
    for i, j, tails in _tail_chunks(u, y, _extent(u), *band):
        h = tails.shape[0]
        assert tails.flags.c_contiguous and _on_grain(i, h, len(u)) and j >= end
        end = j + tails.shape[1]
        out[i:i + h, j:end] = tails
    return out


@pytest.mark.parametrize("rows", [32, 5, 1])
def test_band_tails_match_dense_tail_weight(rows, monkeypatch):
    # The windowed tail chunks, pasted into zeros at their row offsets, equal
    # the dense |u - y| matrix through the tail weight bit for bit, for
    # apertures inside and outside the collapse's alpha <= 2, whatever the
    # block size (one row gives the tightest windows): the entries no chunk
    # covers, in its columns or outside them, are exactly 0.
    monkeypatch.setattr(sqfn, "TAIL_BLOCK_ROWS", rows)
    for u, y, t_lo, t_hi, alphas in _tails_cases():
        for alpha in alphas:
            ref = _band_tail_weight(_distances(u, y), t_lo, t_hi, alpha, M)
            got = _pasted_chunks(u, y, t_lo, t_hi, alpha, M)
            assert got.flags.c_contiguous and got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_tail_weight_of_a_slice_is_the_slice_of_the_tail_weight():
    # The premise of the windows: each element's tail weight does not depend
    # on the length of the array or on its position in it.
    u, y, t_lo, t_hi, _ = _tails_cases()[1]
    d = _distances(u[:24], y)
    for alpha in (1.0, 2.0, 10.0):
        full = _band_tail_weight(d, t_lo, t_hi, alpha, M)
        for j, k in ((0, 1), (3, 4), (1, 18), (7, 40), (13, 1000), (1001, len(y))):
            part = _band_tail_weight(d[:, j:k], t_lo, t_hi, alpha, M)
            assert np.array_equal(part.view(np.int64), full[:, j:k].view(np.int64))
            flat = _band_tail_weight(d[5, j:k].copy(), t_lo, t_hi, alpha, M)
            assert np.array_equal(flat.view(np.int64), full[5, j:k].view(np.int64))


def test_band_form_finds_windows_once(monkeypatch):
    # Each aperture's form computes the d = 0 constant once and hands the
    # formula the same pairs at any chunk width: each row block's windows
    # are found once on the whole y and only clipped to the chunks.
    shapes = []

    def recorded(d, *args, **kwargs):
        shapes.append(np.shape(d))
        return _band_tail_weight(d, *args, **kwargs)

    monkeypatch.setattr(sqfn, "_band_tail_weight", recorded)
    rng = np.random.default_rng(25)
    total = 0
    for u, y, t_lo, t_hi, alphas in _collapse_cases():
        u_w, y_w = _mass_weights(len(u), rng), _mass_weights(len(y), rng)
        pairs = []
        for width in (16, 4096):
            monkeypatch.setattr(sqfn, "TAIL_BLOCK_COLS", width)
            shapes.clear()
            sqfn._band_forms(u, u_w, y, y_w, t_lo, t_hi, alphas, M)
            starts = [k for k, s in enumerate(shapes) if s == (1,)]
            assert starts[0] == 0 and len(starts) == len(alphas)
            assert all(len(s) == 2 for s in shapes if s != (1,))
            per_form = np.split(np.array([math.prod(s) for s in shapes]), starts[1:])
            pairs.append([int(p[1:].sum()) for p in per_form])
        assert pairs[0] == pairs[1]
        total += sum(pairs[0])
    assert total > 0


def test_band_form_sends_each_y_value_once_per_row_block(monkeypatch):
    # Per aperture, the tail formula gets each y value at most once per row
    # block: _band_forms hands _tail_chunks the distinct values of y's whole
    # grains, so the only repeats left are the copies of the last one that
    # pad them to a grain (at most TAIL_GRAIN - 1) and the partial last
    # grain.  On the collapse's atoms, where many leaf midpoints are the
    # same double, handing the formula every column fails this.
    forms = []

    def chunks(u, y, *args):
        forms.append(({}, sqfn.TAIL_GRAIN - 1 + len(y) % sqfn.TAIL_GRAIN))
        yield from _tail_chunks(u, y, *args)

    def distances(a, b):
        forms[-1][0].setdefault(a.ctypes.data, []).append(b.copy())
        return _distances(a, b)

    monkeypatch.setattr(sqfn, "_tail_chunks", chunks)
    monkeypatch.setattr(sqfn, "_distances", distances)
    rng = np.random.default_rng(26)
    for u, y, t_lo, t_hi, alphas in _collapse_cases():
        sqfn._band_forms(u, _mass_weights(len(u), rng), y, _mass_weights(len(y), rng),
                         t_lo, t_hi, alphas, M)
    assert len(forms) == len(_collapse_cases()) * len(_ALPHAS)
    for blocks, repeats in forms:
        for ys in blocks.values():
            ys = np.concatenate(ys)
            assert len(ys) - len(np.unique(ys)) <= repeats


def test_band_tails_refuse_unsorted_or_nonfinite_y():
    u, w = np.array([0.5]), np.array([1.0])
    for y in ([0.2, 0.1], [0.1, np.nan], [0.1, np.inf]):
        with pytest.raises(InvalidParams, match="non-decreasing"):
            sqfn._band_forms(u, w, np.array(y), np.ones(2), 0.1, 0.2, (1.0,), M)
    with pytest.raises(InvalidParams, match="finite u"):
        sqfn._band_forms(np.array([np.nan]), w, np.array([0.1, 0.2]), np.ones(2), 0.1, 0.2, (1.0,), M)


def _mass_weights(n, rng):
    """n positive weights that sum to 1, like the atom masses of the collapse."""
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


@pytest.mark.parametrize("cols, rows", [(1, 32), (7, 32), (1, 1), (7, 1), (1024, 32), (1024, 1),
                                        (None, 32), (None, 1)])
def test_band_form_matches_dense_product(cols, rows, monkeypatch):
    # One _band_forms call per case equals the dense u_w @ tails @ y_w of
    # each of its apertures bit for bit (None: one chunk wider than y), with
    # the checks and the row blocks' extents made once for all of them.
    # Chunks are whole grains of TAIL_GRAIN columns, at most TAIL_BLOCK_COLS
    # of them when that holds one grain, and one more column when a lone
    # last column joins the grain before it; their rows start on the grain
    # and end on it or at the last row; a window that reaches no y builds
    # no chunk.
    monkeypatch.setattr(sqfn, "TAIL_BLOCK_ROWS", rows)
    grain = sqfn.TAIL_GRAIN
    spans, extents = {}, []

    def recorded(u, y, extent, t_lo, t_hi, alpha, m):
        extents.append(extent)
        spans[alpha] = []
        for i, j, tails in _tail_chunks(u, y, extent, t_lo, t_hi, alpha, m):
            assert _on_grain(i, tails.shape[0], len(u))
            spans[alpha].append(tails.shape[1])
            yield i, j, tails

    monkeypatch.setattr(sqfn, "_tail_chunks", recorded)
    rng = np.random.default_rng(24)
    cases = _tails_cases()
    u, y, t_lo, t_hi, alphas = cases[-1]
    cases += [(u[:0], y, t_lo, t_hi, alphas), (u, y[:0], t_lo, t_hi, alphas)]
    # y of 1, 17 and 1,025 points: a last column alone after whole grains.
    for n in (1, 17, 1025):
        cases.append((u[:7], np.linspace(0.0, 1.0, n), t_lo, t_hi, alphas))
        cases.append((np.array([1.0]), np.linspace(0.0, 1.0, n), t_lo, t_hi, alphas))
    for u, y, t_lo, t_hi, alphas in cases:
        u_w, y_w = _mass_weights(len(u), rng), _mass_weights(len(y), rng)
        width = cols or len(y) + 1
        monkeypatch.setattr(sqfn, "TAIL_BLOCK_COLS", width)
        spans.clear()
        extents.clear()
        forms = sqfn._band_forms(u, u_w, y, y_w, t_lo, t_hi, alphas, M)
        assert len(forms) == len(alphas) and len(extents) == len(alphas)
        assert all(extent is extents[0] for extent in extents)
        for alpha, got in zip(alphas, forms):
            ref = _dense_band_form(u, u_w, y, y_w, t_lo, t_hi, alpha, M)
            assert got == ref and repr(got) == repr(ref)
            assert all(w <= max(width // grain * grain, grain + 1) for w in spans[alpha])
            if len(u) == 0 or len(y) == 0 or y[0] > u.max() + alpha * t_hi:
                assert spans[alpha] == [] and repr(got) == "0.0"


def test_gemv_column_slice_is_the_slice_of_gemv():
    # The premise of _band_forms: output j of w @ M is column j of M dotted
    # with w in an order that depends neither on j nor on the width of M
    # outside the BLAS's vector tail.  The spans _tail_chunks builds start on
    # the grain: whole grains that end no later than M's last whole grain,
    # and a span from a grain start to the end of M of two columns or more
    # (a lone last column with the grain before it).  Each equals that span
    # of the full product bit for bit, as a strided view and as a contiguous
    # copy.  A span of another shape may not: on OpenBLAS 0.3.31 (Haswell
    # dgemv_n) the last width mod 4 outputs take a scalar loop, and numpy
    # runs one column through dot.
    grain = sqfn.TAIL_GRAIN
    rng = np.random.default_rng(16)
    mats = _collapse_tails() + [(_mass_weights(r, rng), rng.random((r, c)))
                                for r, c in ((128, 4096), (32, 1024), (8, 150), (128, 17), (3, 1025))]
    for w, mat in mats:
        full, cols = w @ mat, mat.shape[1]
        whole = cols - cols % grain
        spans = [(j, j + q * grain) for j in range(0, whole, grain) for q in (1, 3, 64)]
        spans += [(j, cols) for j in range(0, cols - 1, grain)]
        if cols % grain == 1:
            spans.append((max(cols - grain - 1, 0), cols))
        for j, k in spans:
            if k > whole and k != cols:
                continue
            for part in (mat[:, j:k], np.ascontiguousarray(mat[:, j:k])):
                assert np.array_equal((w @ part).view(np.int64), full[j:k].view(np.int64))


def _distinct_columns(mat):
    """(take, back) for mat's columns as _band_forms reads y: the first
    column of each run of equal columns in the whole grains, the last of
    them repeated to fill a grain, then the partial last grain as it is;
    column j of mat is column back[j] of mat[:, take]."""
    grain = sqfn.TAIL_GRAIN
    cols = mat.shape[1]
    whole = cols - cols % grain
    head, new = mat[:, :whole], np.ones(whole, dtype=bool)
    new[1:] = (head[:, 1:] != head[:, :-1]).any(axis=0)
    take = np.flatnonzero(new)
    take = np.concatenate([take, np.repeat(take[-1:], -len(take) % grain), np.arange(whole, cols)])
    back = np.concatenate([np.cumsum(new) - 1, np.arange(len(take) - cols + whole, len(take))])
    return take, back


def test_gemv_of_distinct_columns_reads_back_the_gemv():
    # The premise of the distinct columns of _band_forms: w @ M over the
    # distinct columns of M's whole grains, padded to a grain with copies of
    # the last one, and then M's partial grain, read back through the
    # inverse index, equals w @ M bit for bit, at widths on and off the
    # grain, with both matrices C-contiguous as the chunks are (a fancy
    # index along the columns returns a Fortran-ordered copy, which numpy
    # multiplies in another order).  Outside the BLAS's vector tail each
    # output is its column dotted with w in one order, so an equal column
    # gives an equal output wherever it sits; the padded run is whole
    # grains, so none of it falls in the vector tail.  The partial grain is
    # kept as it is so that the columns in the full product's vector tail
    # stay in it, at the same distance from the end: deduplicating it too
    # (and padding) changed 129 of 5,611 random duplicate-heavy forms with
    # len(y) % 16 != 0.
    rng = np.random.default_rng(28)
    mats = _collapse_tails()
    for r, c in ((128, 4096), (32, 1024), (8, 150), (128, 17), (3, 1025), (100, 37), (5, 16)):
        for pool in (1, 3, c // 3 + 1, c):
            idx = np.sort(rng.integers(0, pool, c))
            mats.append((_mass_weights(r, rng), np.ascontiguousarray(rng.random((r, pool))[:, idx])))
    merged = 0
    for w, mat in mats:
        take, back = _distinct_columns(mat)
        merged += mat.shape[1] - len(set(take.tolist()))
        got = (w @ np.ascontiguousarray(mat[:, take]))[back]
        assert np.array_equal(got.view(np.int64), (w @ mat).view(np.int64))
    assert merged > 0


def _collapse_tails():
    """(weights, tails) pairs of the template shapes (128 x 4,096 and
    32 x 1,024) and of oracle nodes."""
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=12))
    tpl = deep.template(3, depth=8)
    Lhat = tpl.geometry[1].L
    mats = []
    for y_depth in (6, 5):
        u, u_w = strip_atoms(tpl, 0.0, 1.0, 1.0, 0, y_depth - 3)
        starts, lens, _ = tpl.leaf_table(y_depth)
        y = starts + lens / 2.0
        mats.append((u_w, _band_tail_weight(_distances(u, y), Lhat / 2.0, Lhat, 1.5, M)))
    for n in (0, 2):  # oracle nodes at the collapse check's y_extra = 5 and at 3
        off, length, mass = (float(a[-1]) for a in deep.leaf_table(n))
        L_abs = deep.geometry[n + 1].L * length
        for extra in (5, 3):
            s, s_w = strip_atoms(deep, off, length, mass, n, max(extra - 2, 1))
            a_m = node_atoms(deep, off, length, mass, n, extra + 1)[0]
            mats.append((s_w, _band_tail_weight(_distances(s, a_m), L_abs / 2.0, L_abs, 2.0, M)))
    return mats


def test_gemv_row_span_is_the_row_slice_of_gemv():
    # The premise of the live-row chunks: when the rows of M outside
    # [r0, r1) are zero, w @ M equals w[r0:r1] @ M[r0:r1] bit for bit for r0
    # on the grain (so every multiple of TAIL_BLOCK_ROWS = 32) and r1 on it or
    # at the last row, as strided views and as contiguous copies, over all
    # columns and over a column span of whole grains.  Zero rows add exactly
    # +-0 to each output, and the BLAS's row groups keep their alignment.
    grain = sqfn.TAIL_GRAIN
    assert sqfn.TAIL_BLOCK_ROWS % grain == 0
    rng = np.random.default_rng(32)
    mats = _collapse_tails()
    for r, c in ((128, 4096), (32, 1024), (8, 150), (128, 17), (3, 1025), (100, 37)):
        w = _mass_weights(r, rng)
        mats += [(w, rng.random((r, c))), (w * rng.choice([-1.0, 1.0], r), rng.random((r, c)))]
    for w, mat in mats:
        rows, cols = mat.shape
        ends = [*range(grain, rows, grain), rows]
        spans = [(r0, r1) for r0 in range(0, rows, grain) for r1 in ends if r1 > r0]
        k = min(cols - cols % grain or cols, 5 * grain)
        for r0, r1 in spans:
            live = np.zeros_like(mat)
            live[r0:r1] = mat[r0:r1]
            for part, whole in ((live[r0:r1], w @ live), (live[r0:r1, :k], w @ live[:, :k])):
                for chunk in (part, np.ascontiguousarray(part)):
                    assert np.array_equal((w[r0:r1] @ chunk).view(np.int64), whole.view(np.int64))


def _dense_band_form(u, u_w, y, y_w, *band):
    """The band form through the dense |u - y| and tails matrices."""
    return float(u_w @ _band_tail_weight(_distances(u, y), *band) @ y_w)


def _dense_band_forms(u, u_w, y, y_w, t_lo, t_hi, alphas, m):
    """_band_forms through the dense matrices, one aperture at a time."""
    return [_dense_band_form(u, u_w, y, y_w, t_lo, t_hi, alpha, m) for alpha in alphas]


def test_band_form_bounds_the_working_set(measure, quad, monkeypatch, traced_peak):
    # The chunked forms trace at most 18 % of the peak of the dense route,
    # which holds the 4 MB |u - y| and tails matrices at once: for one
    # template's three band weights (0.86 against 8.64 MB: one 128-row
    # 0.5 MB chunk where both middle children reach its columns, one
    # distance buffer per window that the tail weight overwrites, and the
    # template tables) and for one 128 x 4,096 oracle node (0.73 against
    # 8.60 MB: one of its chunks of distinct columns holds all 128 rows), and
    # a full aperture run never builds tails wider than TAIL_BLOCK_COLS.  At
    # 1,024 columns the distinct columns put 1 MB chunks of 128 rows in both
    # (1.64 and 1.23 MB, past the bound on the template).
    def both():
        return (lambda: CantorSquareContext(measure, quad).band_weights(4, (1.0, 1.5, 2.0), 6),
                lambda: direct_norm_series(measure, (1.0,), 0, quad))

    chunked = [traced_peak(fn) for fn in both()]
    monkeypatch.setattr(sqfn, "_band_forms", _dense_band_forms)
    dense = [traced_peak(fn) for fn in both()]
    monkeypatch.undo()
    for c, d in zip(chunked, dense):
        assert c <= 0.18 * d
    widths = []

    def recorded(*args):
        for i, j, tails in _tail_chunks(*args):
            widths.append(tails.shape[1])
            yield i, j, tails

    monkeypatch.setattr(sqfn, "_tail_chunks", recorded)
    run(ExperimentConfig(experiment="aperture"))
    assert widths and max(widths) <= sqfn.TAIL_BLOCK_COLS


def test_collapse_builds_non_decreasing_y():
    # _tail_chunks needs a sorted y: the leaf-table mids of the templates and
    # the node-atom mids of the oracle nodes are non-decreasing.
    def sorted_(a):
        return bool(np.all(a[:-1] <= a[1:]))

    for depth in (9, 12, 42):
        measure = CantorMeasure(CantorParams(m=M, C=C, depth=depth))
        for n in range(depth - 1):
            tpl = measure.template(n, depth=8)
            for y_depth in (5, 6):
                starts, lens, _ = tpl.leaf_table(y_depth)
                assert sorted_(starts + lens / 2.0)
        for n in range(4):
            for off, length, mass in zip(*measure.leaf_table(n)):
                assert sorted_(node_atoms(measure, off, length, mass, n, min(6, depth - n))[0])


def _one_aperture_series(measure, alpha, N, quad):
    """The collapsed series for one cone as first written: aperture outer,
    and a fresh template, strip atoms, leaf table and distances for every
    band weight."""
    terms, errs = np.zeros(N + 1), np.zeros(N + 1)
    for n in range(N + 1):
        tpl = measure.template(n, depth=min(quad.y_resolution_depth + 2, 9))
        starts, lens, masses = tpl.leaf_table(min(quad.y_resolution_depth + 1, tpl.depth))
        b2 = float(np.sum(masses * np.sin(np.pi * (starts + lens / 2.0)) ** 2)) ** 2
        w, w_coarse = (_one_aperture_band_weight(measure, quad, n, alpha, y)
                       for y in (quad.y_resolution_depth, quad.y_resolution_depth - 1))
        terms[n], errs[n] = b2 * w, b2 * abs(w - w_coarse)
    return terms, errs


@pytest.mark.parametrize("alphas", [(1.0, 1.5, 2.0), (1.5,), (2.0, 1.0, 2.0, 1.5)])
def test_batched_series_match_one_aperture_loop(alphas, monkeypatch):
    # Each series of a batch, duplicates included, is the one its cone gets
    # alone, digit for digit and in input order, while the alpha-free
    # geometry is built once: strip atoms once per (n, y resolution) and
    # node atoms once per oracle node.
    measure = CantorMeasure(CantorParams(m=M, C=C, depth=9))
    quad = QuadratureConfig(32, 6, 1e-3, 6)
    builds = {"strip_atoms": 0, "node_atoms": 0}

    def counting(name):
        fn = getattr(sqfn, name)

        def counted(*args):
            builds[name] += 1
            return fn(*args)
        return counted

    for name in builds:
        monkeypatch.setattr(sqfn, name, counting(name))
    N, N_direct = 6, 2
    collapsed = conical_norm_series(measure, alphas, N, quad)
    assert builds == {"strip_atoms": 2 * (N + 1), "node_atoms": 0}
    direct = direct_norm_series(measure, alphas, N_direct, quad)
    nodes = sum(4**n for n in range(N_direct + 1))
    assert builds == {"strip_atoms": 2 * (N + 1) + nodes, "node_atoms": nodes}
    monkeypatch.undo()
    assert [s.alpha for s in collapsed] == [s.alpha for s in direct] == list(alphas)
    for alpha, series, oracle in zip(alphas, collapsed, direct):
        terms, errs = _one_aperture_series(measure, alpha, N, quad)
        assert list(map(repr, series.terms.tolist())) == list(map(repr, terms.tolist()))
        assert list(map(repr, series.err_est.tolist())) == list(map(repr, errs.tolist()))
        ref = _one_aperture_direct(measure, alpha, N_direct, quad)
        assert list(map(repr, oracle.terms.tolist())) == list(map(repr, ref.tolist()))


def test_batched_series_refuse_bad_cone_before_work(measure, quad, monkeypatch):
    # A wide or a NaN aperture anywhere in the batch is refused before any
    # geometry or tail weight is computed for the apertures before it.
    def no_work(*args, **kwargs):
        raise AssertionError("computed before the batch was checked")

    for name in ("_band_tail_weight", "strip_atoms", "node_atoms", "bump"):
        monkeypatch.setattr(sqfn, name, no_work)
    quad3 = QuadratureConfig(32, 6, 1e-3, 3)
    good = [1.0, 2.0]
    for bad in (2.5, math.nan):
        for pos in range(len(good) + 1):
            alphas = good[:pos] + [bad] + good[pos:]
            with pytest.raises(InvalidParams):
                conical_norm_series(measure, alphas, 4, quad)
            with pytest.raises(InvalidParams):
                direct_norm_series(measure, alphas, 2, quad3)
            with pytest.raises(InvalidParams):
                validate_collapse(measure, alphas, 2, quad3)
    for route in (conical_norm_series, direct_norm_series, validate_collapse):
        with pytest.raises(InvalidParams, match="at least one cone"):
            route(measure, [], 2, quad3)


def test_budget_error_names_the_failing_aperture(measure):
    # rel_tol between the largest share of the budget and the next one fails
    # exactly one aperture of the batch, and the message names it.
    alphas = [1.0, 1.5, 2.0]
    loose = QuadratureConfig(32, 6, 0.1, 8)
    share = [float(s.err_est.sum()) / s.total for s in conical_norm_series(measure, alphas, 8, loose)]
    first, second = sorted(share, reverse=True)[:2]
    assert first > second
    tight = QuadratureConfig(32, 6, (first + second) / 2.0, 8)
    alpha = alphas[share.index(first)]
    with pytest.raises(QuadratureBudgetExceeded, match=re.escape(f"at alpha={alpha};")):
        conical_norm_series(measure, alphas, 8, tight)
    others = [a for a in alphas if a != alpha]
    assert len(conical_norm_series(measure, others, 8, tight)) == 2


def test_oracle_mismatch_names_the_failing_aperture():
    measure = CantorMeasure(CantorParams(m=M, C=C, depth=9))
    quad3 = QuadratureConfig(32, 6, 1e-3, 3)
    alphas = [1.0, 1.5, 2.0]
    errs = [validate_collapse(measure, [a], 2, quad3) for a in alphas]
    assert validate_collapse(measure, alphas, 2, quad3) == max(errs)
    first, second = sorted(errs, reverse=True)[:2]
    assert first > second
    alpha = alphas[errs.index(first)]
    with pytest.raises(OracleMismatch, match=re.escape(f"at alpha={alpha}")):
        validate_collapse(measure, alphas, 2, quad3, tol=(first + second) / 2.0)


def test_collapse_against_ball_mass_oracle():
    # Independent of the tail weight, node atoms and strip_atoms: node
    # coefficients from the finest global leaves, strip atoms picked from a
    # global leaf table by child digit, and global ball masses from the CDF
    # (interval_mass_batch) on a midpoint log-s grid over [L/2, L].
    measure = CantorMeasure(CantorParams(m=M, C=C, depth=9))
    quad3 = QuadratureConfig(32, 6, 1e-3, 3)
    N, K, levels = 3, 400, 4
    starts, lens, fine_w = measure.leaf_table(measure.depth)
    fine_mids = starts + lens / 2.0
    for alpha in (1.0, 1.5, 2.0):
        oracle = np.zeros(N + 1)
        for n in range(N + 1):
            D = n + 1 + levels
            s_starts, s_lens, s_w = measure.leaf_table(D)
            digit = (np.arange(len(s_w)) // 4 ** (D - n - 1)) % 4
            in_strip = (digit == 1) | (digit == 2)
            per, sub = 4 ** (measure.depth - n), 4 ** (D - n)
            for i, (off, length, _) in enumerate(zip(*measure.leaf_table(n))):
                fine = slice(i * per, (i + 1) * per)
                phi = bump((fine_mids[fine] - off - length / 2.0) / length)
                theta = float(np.sum(fine_w[fine] * phi)) / length**M
                strip = np.flatnonzero(in_strip[i * sub:(i + 1) * sub]) + i * sub
                u = s_starts[strip] + s_lens[strip] / 2.0
                L_abs = measure.geometry[n + 1].L * length
                s = np.exp(np.log(L_abs / 2.0) + (np.arange(K) + 0.5) * LN2 / K)
                r = alpha * s[None, :]
                balls = measure.interval_mass_batch(u[:, None] - r, u[:, None] + r)
                oracle[n] += theta**2 * float(s_w[strip] @ (balls @ s**-M)) * LN2 / K
        [collapsed] = conical_norm_series(measure, [alpha], N, quad3)
        collapsed = collapsed.terms
        assert collapsed == pytest.approx(oracle, rel=quad3.rel_tol)


def test_vertical_series(measure, quad, ctx):
    sv = vertical_norm_series(measure, 10, quad)
    # Harmonic terms: g_V(n) = beta^2 * 2/(C(n+1)) * ln 2 exactly.
    for n in range(11):
        expected = ctx.beta(n) ** 2 * _split_geometry(n + 1, M, C).strip_mass * LN2
        assert sv.terms[n] == pytest.approx(expected, rel=1e-14)
    [s2] = conical_norm_series(measure, [2.0], 10, quad)
    assert np.all(s2.terms <= 0.72 * sv.terms)


def test_contexts_on_one_measure_share_beta(quad, monkeypatch):
    # vertical_norm_series and conical_norm_series build their own contexts;
    # on one measure they compute each beta(n) once (one template leaf table
    # at depth y_resolution_depth + 1 per generation), with the bits of a
    # context on an equal measure of its own.
    N, beta_depth = 10, quad.y_resolution_depth + 1
    calls = []
    leaf_table = CantorMeasure.leaf_table

    def counted(self, max_depth=None):
        calls.append(max_depth)
        return leaf_table(self, max_depth)

    shared = CantorMeasure(CantorParams(m=M, C=C, depth=12))
    monkeypatch.setattr(CantorMeasure, "leaf_table", counted)
    vertical_norm_series(shared, N, quad)
    conical_norm_series(shared, [2.0], N, quad)
    assert calls.count(beta_depth) == N + 1
    monkeypatch.undo()
    own = CantorSquareContext(CantorMeasure(CantorParams(m=M, C=C, depth=12)), quad)
    ctx = CantorSquareContext(shared, quad)
    assert [ctx.beta(n) for n in range(N + 1)] == [own.beta(n) for n in range(N + 1)]


def test_quadrature_refinement_invariant(measure):
    # Doubling the t steps or the y resolution moves no reported norm by
    # more than rel_tol.
    base = QuadratureConfig(32, 6, 1e-3, 8)
    fine_t = QuadratureConfig(64, 6, 1e-3, 8)
    fine_y = QuadratureConfig(32, 7, 1e-3, 8)
    runs = (conical_norm_series(measure, [1.0, 2.0], 8, q) for q in (base, fine_t, fine_y))
    for s0, s1, s2 in zip(*runs):
        t0, t1, t2 = s0.total, s1.total, s2.total
        assert abs(t1 - t0) < 1e-3 * t0
        assert abs(t2 - t0) < 1e-3 * t0


def test_conical_value_zero_cases(measure, kernel, quad):
    # f == 0 and far-gap points give zero.
    f0 = LeafFunction.constant(measure, 3, 0.0)
    assert conical_value(kernel, measure, f0, 0.3, 1.0, quad) == 0.0
    assert conical_value(kernel, measure, None, 0.5, 1.0, quad) == 0.0


def test_pointwise_values_refuse_invalid_quadrature(measure, kernel):
    for bad in ((32, -3, 1e-3, 4), (-1, 6, 1e-3, 4)):
        with pytest.raises(InvalidParams, match="quadrature parameters must be positive"):
            conical_value(kernel, measure, None, 0.3, 1.0, QuadratureConfig(*bad))
        with pytest.raises(InvalidParams, match="quadrature parameters must be positive"):
            vertical_value(kernel, measure, None, 0.3, QuadratureConfig(*bad))


def test_conical_value_against_grid_oracle(measure, kernel):
    # Independent oracle: midpoint t grid plus exact interval masses, the
    # integration-order dual of the band tail weight.
    quad3 = QuadratureConfig(32, 6, 1e-3, 3)
    rng = np.random.default_rng(3)
    geo1 = measure.geometry[1]
    xs = [
        geo1.child_offsets[1] + geo1.child_lengths[1] / 2,  # strip interior
        0.26,  # gap point near the strip
    ]
    for x in xs:
        for alpha in (1.0, 2.0):
            val = conical_value(kernel, measure, None, x, alpha, quad3)
            # oracle
            total = 0.0
            off, length, mass = 0.0, 1.0, 1.0
            for g in range(0, 4):
                geo = measure.geometry[g + 1]
                L_abs = geo.L * length
                from nhsq.kernels import node_atoms, bump

                mids_, _, w_ = node_atoms(measure, off, length, mass, g, 6)
                c = float(np.sum(w_ * bump((mids_ - (off + length / 2)) / length))) / length**M
                steps = 1200
                dv = LN2 / steps
                acc = 0.0
                for i in range(steps):
                    t = math.exp(math.log(L_abs / 2) + (i + 0.5) * dv)
                    lo, hi = x - alpha * t, x + alpha * t
                    strip_mass = 0.0
                    for j in (1, 2):
                        sa = off + geo.child_offsets[j] * length
                        sb = sa + geo.child_lengths[j] * length
                        a_, b_ = max(sa, lo), min(sb, hi)
                        if b_ > a_:
                            strip_mass += measure.interval_mass(a_, b_)
                    acc += strip_mass / t**M * dv
                total += c * c * acc
                nxt = None
                for j in range(4):
                    coff = off + geo.child_offsets[j] * length
                    clen = geo.child_lengths[j] * length
                    if coff <= x <= coff + clen:
                        nxt = (coff, clen, mass * geo.child_masses[j])
                        break
                if nxt is None:
                    break
                off, length, mass = nxt
            assert val == pytest.approx(math.sqrt(total), rel=2e-3, abs=1e-12)


def test_vertical_value(measure, kernel, quad):
    geo = measure.geometry[1]
    x_strip = geo.child_offsets[1] + geo.child_lengths[1] / 2
    v = vertical_value(kernel, measure, None, x_strip, quad)
    assert v > 0
    assert vertical_value(kernel, measure, None, 0.5, quad) == 0.0
    f0 = LeafFunction.constant(measure, 3, 0.0)
    assert vertical_value(kernel, measure, f0, x_strip, quad) == 0.0


def _pruned_coefficient(measure, f, nonzero, gen, node_idx, off, length, mass, depth) -> float:
    """c_J(f) for f None (f = 1) or a LeafFunction with nonzero =
    flatnonzero(f.values): exactly 0 on a node where f vanishes (the bump is
    supported inside the node), and f's leaf value times c_J(1) on a node
    below leaf resolution, where f is constant."""
    if f is not None:
        if gen > f.depth:
            fl = float(f.values[node_idx // 4 ** (gen - f.depth)])
            if fl == 0.0:
                return 0.0
            return fl * _node_coefficient(measure, None, off, length, mass, gen, depth)
        span = 4 ** (f.depth - gen)
        i = int(np.searchsorted(nonzero, node_idx * span))
        if i >= len(nonzero) or nonzero[i] >= (node_idx + 1) * span:
            return 0.0
    return _node_coefficient(measure, f, off, length, mass, gen, depth)


def _chain_walk(measure, f, x, alphas, quad, memo):
    """([S_alpha f(x) for alpha in alphas], V f(x)) by one-point walks down
    x's node chain; memo holds the node coefficients across points."""
    depth = min(quad.y_resolution_depth, 6)
    nonzero = None if f is None else np.flatnonzero(f.values)
    s2, v2 = [0.0] * len(alphas), 0.0
    off, length, mass, idx = 0.0, 1.0, 1.0, 0
    for g in range(min(quad.trunc_generation, measure.depth - 1) + 1):
        geo = measure.geometry[g + 1]
        if ("S", g, idx) not in memo:
            memo["S", g, idx] = _pruned_coefficient(
                measure, f, nonzero, g, idx, off, length, mass, depth
            )
        c = memo["S", g, idx]
        if c != 0.0:
            L_abs = geo.L * length
            mids, w = strip_atoms(measure, off, length, mass, g, min(3, measure.depth - g - 1))
            for k, alpha in enumerate(alphas):
                tails = _band_tail_weight(np.abs(x - mids), L_abs / 2.0, L_abs, alpha, M)
                s2[k] += c * c * float(np.sum(w * tails))
        for j in range(4):
            coff = off + geo.child_offsets[j] * length
            clen = geo.child_lengths[j] * length
            if coff <= x <= coff + clen:
                break
        else:
            break
        if j in (1, 2):  # x lies in the node's strip
            if ("V", g, idx) not in memo:
                memo["V", g, idx] = _node_coefficient(measure, f, off, length, mass, g, depth)
            cv = memo["V", g, idx]
            v2 += cv * cv * LN2
        off, length, mass, idx = coff, clen, mass * geo.child_masses[j], idx * 4 + j
    return [math.sqrt(v) for v in s2], math.sqrt(v2)


def test_values_on_arrays_match_chain_walk(measure, kernel, quad):
    # The array walks give every point exactly the value of its own
    # one-point chain walk, for f = 1, a spike and random signs.
    rng = np.random.default_rng(17)
    starts, lens, _ = measure.leaf_table(4)
    edges = np.concatenate([starts[::7], (starts + lens)[::7]])
    xs = np.concatenate([
        starts + lens / 2.0, edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
        (starts[1::5] + starts[:-1:5] + lens[:-1:5]) / 2.0,  # gap midpoints
        rng.uniform(-0.05, 1.05, 40), [-1.0, -0.001, 0.0, 1.0, 1.001, 2.0],
    ])
    alphas = (1.0, 1.5, 2.0)
    fs = [None, LeafFunction.spike(measure, 4, 7),
          LeafFunction(measure, 3, rng.choice([-1.0, 1.0], size=64))]
    for f in fs:
        memo = {}
        want = [_chain_walk(measure, f, x, alphas, quad, memo) for x in xs.tolist()]
        v = vertical_value(kernel, measure, f, xs, quad)
        assert np.array_equal(v, [w[1] for w in want]) and (v > 0).any()
        for k, alpha in enumerate(alphas):
            s = conical_value(kernel, measure, f, xs, alpha, quad)
            assert np.array_equal(s, [w[0][k] for w in want])
            assert (s > 0).sum() > len(xs) // 4
        one = conical_value(kernel, measure, f, xs[3], 1.0, quad)
        assert type(one) is float and one == want[3][0][0]
        grid = xs[:12].reshape(3, 4)
        assert np.array_equal(vertical_value(kernel, measure, f, grid, quad), v[:12].reshape(3, 4))


def test_conical_value_row_blocks_match_one_shot(measure, kernel, quad, monkeypatch, traced_peak):
    # The weak11 spikes of the default seed, S f at every depth-5 leaf
    # midpoint: row blocks of 1 row, of 3 rows (12 and 48 on the smaller
    # strips of generations 9 and 10) and of the default POINT_BLOCK give the
    # values of one block per node, the whole |x - atom| matrix, bit for bit.
    starts, lens, _ = measure.leaf_table(5)
    xs = starts + lens / 2.0
    default = sqfn.POINT_BLOCK
    for leaf in derive_rng(20250808, "weak11-spikes").integers(0, 4**5, size=10).tolist():
        f = LeafFunction.spike(measure, 5, leaf)
        monkeypatch.setattr(sqfn, "POINT_BLOCK", 10**9)
        one_shot = conical_value(kernel, measure, f, xs, 1.0, quad)
        assert (one_shot > 0).sum() >= len(xs) // 4
        for block in (1, 3 * 128 + 5, default):
            monkeypatch.setattr(sqfn, "POINT_BLOCK", block)
            assert np.array_equal(conical_value(kernel, measure, f, xs, 1.0, quad), one_shot)
    # At the root, 1,024 rows by 128 strip atoms: 2.41 MB traced in one block,
    # 0.32 MB in row blocks.  With f = 1 the coefficient reads no leaf values,
    # whose lookup over the node's 4,096 atoms (1.2 MB) would set both floors.
    root = QuadratureConfig(32, 6, 1e-3, 0)
    peaks = []
    for block in (10**9, default):
        monkeypatch.setattr(sqfn, "POINT_BLOCK", block)
        peaks.append(traced_peak(lambda: conical_value(kernel, measure, None, xs, 1.0, root)))
    assert peaks[1] <= peaks[0] / 4


def test_values_past_generation_31_match_chain_walk():
    # Base-4 node indices outgrow int64 past generation 31: the root's last
    # child's leftmost chain shares its low 64 index bits with the root's
    # leftmost chain from generation 33 on, and it comes first here so that
    # a wrapped index would hand its node to the strip points behind it.
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=36))
    kernel = CantorKernel(deep)
    quad = QuadratureConfig(32, 6, 1e-3, 34)
    xs, length = [deep.geometry[1].child_offsets[3], 1.0, 0.0], 1.0
    for g in range(35):
        geo = deep.geometry[g + 1]
        if g in (20, 31, 32, 33, 34):  # strip midpoint of the leftmost node
            xs.append((geo.child_offsets[1] + geo.child_lengths[1] / 2.0) * length)
        length *= geo.child_lengths[0]
    xs = np.array(xs)
    for f in (None, LeafFunction.spike(deep, 3, 0)):
        memo = {}
        want = [_chain_walk(deep, f, x, (1.0, 2.0), quad, memo) for x in xs.tolist()]
        for k, alpha in enumerate((1.0, 2.0)):
            s = conical_value(kernel, deep, f, xs, alpha, quad)
            assert np.array_equal(s, [w[0][k] for w in want])
            assert (s[3:] > 0).all()
        v = vertical_value(kernel, deep, f, xs, quad)
        assert np.array_equal(v, [w[1] for w in want])


def test_leaf_function_refuses_depth_and_leaf_out_of_range():
    shallow = CantorMeasure(CantorParams(m=M, C=C, depth=2))
    with pytest.raises(InvalidParams):
        LeafFunction(shallow, 3, np.ones(64))
    with pytest.raises(InvalidParams):
        LeafFunction.constant(shallow, 3)
    with pytest.raises(InvalidParams):
        LeafFunction.spike(shallow, 3, 0)
    for leaf in (-1, 16):
        with pytest.raises(InvalidParams):
            LeafFunction.spike(shallow, 2, leaf)
    f = LeafFunction.spike(shallow, 2, 15)
    assert f.l1_norm() == pytest.approx(1.0, rel=1e-12)
    assert np.flatnonzero(f.values).tolist() == [15]


def test_vertical_value_logproduct_lower_bound(quad):
    # V1(x)^2 >= A(x): the t window [e^-A, 1] contributes at least dt/t.
    f = build_logproduct("demo", 3)
    kv = LogProductKernel(f)
    x = 0.01  # in E_1 only: A = 1
    A = f.exponent(Fraction(x))
    assert A == 1
    v = vertical_value(kv, None, None, x, quad)
    assert v**2 >= A
    assert vertical_value(kv, None, None, 1.5, quad) == 0.0


def test_vertical_value_logproduct_takes_arrays(quad):
    # One shape contract for both kernels: an array gives the per-point
    # scalar values bit for bit, in x's shape, and points outside (0, 1) read 0.
    kv = LogProductKernel(build_logproduct("demo", 3))
    xs = np.concatenate([np.random.default_rng(7).random(10), [0.0, 1.0, -0.5, 1.5]])
    v = vertical_value(kv, None, None, xs, quad)
    scalars = [vertical_value(kv, None, None, x, quad) for x in xs.tolist()]
    assert all(type(s) is float for s in scalars) and v.tolist() == scalars
    # V 1(x) integrates over [e^-A(x), 1], empty where no E_n holds x.
    assert ((v[:10] > 0.0) == (kv.f.exponent_batch(xs[:10]) > 0)).all() and v.max() > 0.0
    assert v[10:].tolist() == [0.0] * 4
    grid = vertical_value(kv, None, None, xs[:12].reshape(3, 4), quad)
    assert grid.shape == (3, 4) and grid.tobytes() == v[:12].tobytes()


# -- S vs tilde-V dual routes -----------------------------------------------------


def snorm_by_x_integration(measure: CantorMeasure, f, quad: QuadratureConfig,
                           x_depth: int = 4) -> float:
    """||S f||^2 at aperture 1 by integrating S f(x)^2 over x at leaf resolution.

    x resolution must exceed the truncation generation, otherwise leaf
    midpoints sit in the middle gaps of the finest nodes and miss their
    strip contributions entirely.
    """
    kernel = CantorKernel(measure)
    x_depth = max(x_depth, quad.trunc_generation + 1)
    starts, lens, masses = measure.leaf_table(x_depth)
    mids = starts + lens / 2.0
    vals = conical_value(kernel, measure, f, mids, 1.0, quad)
    return float(np.sum(vals**2 * masses))


def snorm_by_tilde_route(measure: CantorMeasure, f, quad: QuadratureConfig,
                         x_depth: int = 4) -> float:
    """||tilde-V f||^2: vertical square integral of the tilde-transformed kernel.

    theta~_t f(x) = sqrt(mu(B(x,t))/t^m) theta_t f(x); on a strip/band region
    the theta factor is the node coefficient, and the ball factor is
    integrated pointwise in x, here at leaf-atom resolution.
    """
    N = quad.trunc_generation
    if N > 6:
        raise InvalidParams("the tilde route enumerates all nodes; keep N <= 6")
    total = 0.0
    m = measure.m
    depth = min(quad.y_resolution_depth, 6)
    for g in range(min(N, measure.depth - 1) + 1):
        L = measure.geometry[g + 1].L
        extra = min(x_depth, measure.depth - g - 1)
        for off, length, mass in zip(*measure.leaf_table(g)):
            c = _node_coefficient(measure, f, off, length, mass, g, depth)
            if c == 0.0:
                continue
            amids, aw = strip_atoms(measure, off, length, mass, g, extra)
            # Full ball mass around each strip atom: balls stay inside the
            # node, so the node's own atoms carry all the mass.
            ymids, _, yw = node_atoms(measure, off, length, mass, g, extra + 1)
            tails = _band_tail_weight(
                _distances(amids, ymids), L * length / 2.0, L * length, 1.0, m
            )
            total += c * c * float(aw @ tails @ yw)
    return total


def test_s_equals_tilde_v(measure):
    # ||S f||^2 by integrating conical_value's pointwise walk over x equals
    # ||tilde-V f||^2 by enumerating the nodes, for f = 1 and 5 random
    # vectors.  Both routes read c_J from _node_coefficient and add up the
    # same band tail sums in two orders, so they agree to rounding (at most
    # 1.9e-15 relative measured): this checks the walk, not a quadrature.
    quad4 = QuadratureConfig(32, 6, 1e-3, 4)
    a = snorm_by_x_integration(measure, None, quad4, x_depth=5)
    b = snorm_by_tilde_route(measure, None, quad4, x_depth=3)
    assert abs(a - b) <= 1e-12 * max(a, b)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = LeafFunction(measure, 3, rng.choice([-1.0, 1.0], size=64))
        fa = snorm_by_x_integration(measure, f, quad4, x_depth=5)
        fb = snorm_by_tilde_route(measure, f, quad4, x_depth=3)
        assert abs(fa - fb) <= 1e-12 * max(fa, fb)


def test_bump_mass_constant_pinned(measure, quad):
    # theta_t 1 on a strip is integral of phi_I dmu / mu(I): inside [c0, 1]
    # with the pinned lower constant, across every computed generation.
    from nhsq import pinned

    deep = CantorSquareContext(CantorMeasure(CantorParams(m=M, C=C, depth=42)), quad)
    betas = [deep.beta(n) for n in range(41)]
    assert min(betas) >= pinned.BUMP_MASS_LOWER
    assert max(betas) <= 1.0


def test_pointwise_aperture_monotone(measure, kernel, quad):
    rng = np.random.default_rng(23)
    geo = measure.geometry[1]
    xs = [geo.child_offsets[1] + geo.child_lengths[1] / 2, 0.26, 0.01, 0.99]
    xs += list(rng.uniform(0, 1, size=6))
    for x in xs:
        vals = [
            conical_value(kernel, measure, None, x, a, quad)
            for a in (1.0, 1.5, 2.0)
        ]
        assert vals[0] <= vals[1] + 1e-15
        assert vals[1] <= vals[2] + 1e-15


def test_l2_ratio_consistency(measure, quad):
    fone = LeafFunction.constant(measure, 5, 1.0)
    best, witness, ratios = l2_operator_ratio(measure, [fone], 1.0, quad)
    [s1] = conical_norm_series(measure, [1.0], 10, quad)
    assert best == pytest.approx(s1.total, rel=2e-3)
    assert witness is fone
    # Zero function contributes nothing.
    _, _, zr = l2_operator_ratio(measure, [LeafFunction.constant(measure, 3, 0.0)], 1.0, quad)
    assert zr == [0.0]


def _one_vector_coefficients(measure, f, max_gen):
    """c_J(f) per generation 0..max_gen as first written: one vector at a
    time, its own centers, widths and bump table at every generation."""
    D = f.depth
    A = min(D + 2, 10)
    starts, lens, masses = measure.leaf_table(A)
    mids = starts + lens / 2.0
    fv = np.repeat(f.values, 4 ** (A - D))
    out = {}
    for n in range(0, max_gen + 1):
        sn, ln_, _ = measure.leaf_table(n)
        blocks = 4 ** (A - n)
        centers = np.repeat(sn + ln_ / 2.0, blocks)
        widths = np.repeat(ln_, blocks)
        phis = bump((mids - centers) / widths)
        integ = (masses * fv * phis).reshape(4**n, blocks).sum(axis=1)
        out[n] = integ / ln_**measure.m
    return out


def test_l2_ratio_builds_one_bump_table_per_generation(measure, monkeypatch):
    # The operator ratio builds each generation's bump table once per atom
    # depth for all samples, and every ratio keeps the digits of the
    # one-vector loop, zero samples and samples of two leaf depths included.
    quad = QuadratureConfig(32, 6, 1e-3, 4)
    rng = np.random.default_rng(21)
    fs = [LeafFunction(measure, 3, rng.choice([-1.0, 1.0], size=4**3)) for _ in range(3)]
    fs += [LeafFunction.constant(measure, 3, 0.0), LeafFunction.constant(measure, 2, 1.0),
           LeafFunction(measure, 2, rng.standard_normal(4**2))]
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return bump(u)

    monkeypatch.setattr(sqfn, "bump", counted)
    best, witness, ratios = l2_operator_ratio(measure, fs, 1.0, quad)
    monkeypatch.undo()
    # Generations 0-1 read atoms at depths 5 and 4, generation 2 at depth 5.
    assert calls == [(4**5,), (4**4,), (4**5,), (4**4,), (4**5,)]
    ctx = CantorSquareContext(measure, quad)
    ref = []
    for f in fs:
        fsq = f.l2_norm_sq()
        if fsq == 0.0:
            ref.append(0.0)
            continue
        D = min(f.depth, quad.trunc_generation + 1)
        coeffs, total = _one_vector_coefficients(measure, f, D - 1), 0.0
        for n in range(D):
            total += ctx.band_weight(n, 1.0) * float(np.sum(measure.leaf_table(n)[2] * coeffs[n] ** 2))
        for n in range(D, quad.trunc_generation + 1):
            total += ctx.g_term(n, (1.0,))[0][0] * fsq
        ref.append(total / fsq)
    assert list(map(repr, ratios)) == list(map(repr, ref))
    assert best == max(ref) and witness is fs[ref.index(best)]


def _degenerate_nodes(measure):
    """The first node of generations 5 and 6 with a + len == a in floats."""
    nodes = []
    for g in (5, 6):
        s, l, _ = measure.leaf_table(g)
        nodes.append((g, int(np.flatnonzero(s + l == s)[0])))
    return nodes


def _tails(measure, quad):
    """sum_{n >= g} g_V(n) of the vertical series, one Python float per g
    in 0..depth (0 past the truncation)."""
    terms = vertical_norm_series(measure, min(quad.trunc_generation, measure.depth - 1), quad).terms
    return [float(terms[g:].sum()) for g in range(measure.depth + 1)]


def test_testing_functional_cantor(measure, quad):
    with pytest.raises(EmptyCubeList):
        sq_testing_functional(measure, [], quad)
    nodes = [(g, i) for g in range(3) for i in range(4**g)]
    res = sq_testing_functional(measure, nodes, quad)
    # Root box integral equals the vertical norm total at the truncation.
    sv = vertical_norm_series(measure, 10, quad)
    assert res.box_integral[0] == pytest.approx(sv.total, rel=1e-9)
    assert res.sup_ratio > 0


@pytest.mark.parametrize("cubes", [
    [(0.0, 1.0)], [(0, 0.0)], [(0, 0), (1,)], [(0, 0, 0)], [0, 0], [("0", "0")], [[(0, 0)]],
], ids=["float-pair", "float-index", "ragged", "triple", "flat", "strings", "nested"])
def test_testing_functional_refuses_non_node_cubes(measure, quad, cubes):
    # Cantor cubes are (generation, index) integer pairs; anything else is
    # refused with InvalidParams, not read as floats.
    with pytest.raises(InvalidParams, match="construction nodes|pairs"):
        sq_testing_functional(measure, cubes, quad)


def test_testing_functional_refuses_negative_generation(measure, quad):
    with pytest.raises(InvalidParams, match="construction nodes"):
        sq_testing_functional(measure, [(0, 0), (-1, 0)], quad)


def test_testing_functional_refuses_generation_past_depth(quad):
    shallow = CantorMeasure(CantorParams(m=M, C=C, depth=3))
    assert sq_testing_functional(shallow, [(3, 63)], quad).box_integral.tolist() == [0.0]
    with pytest.raises(InvalidParams, match="0 <= g <= 3"):
        sq_testing_functional(shallow, [(4, 0)], quad)
    # An index of generation 31 fills int64 (4**31 = 2**62), so a deeper
    # measure stops there.
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=33))
    with pytest.raises(InvalidParams, match="0 <= g <= 31"):
        sq_testing_functional(deep, [(32, 0)], quad)


def test_deep_nodes_build_no_leaf_table(quad):
    # Each node descends its own base-4 digits: a generation-10 or -31 node
    # costs its path, not a 4**g leaf table, and lands where leaf_table's
    # splits put it.
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=33))
    last = 4**31 - 1
    res = sq_testing_functional(deep, [(10, 4**10 - 1), (31, last)], quad)
    assert deep._leaf_cache == {}
    s, l, w = deep.leaf_table(10)
    assert res.cubes[0].tolist() == [s[-1], s[-1] + l[-1]]
    assert res.box_integral[0] == w[-1] * _tails(deep, quad)[10]
    off, length, mass = np.zeros(1), np.ones(1), np.ones(1)
    for k in range(1, 32):  # leaf_table's split, keeping only the last child
        off, length, mass = (v[3:] for v in deep.geometry[k].split(off, length, mass))
    assert res.cubes[1].tolist() == [off[0], off[0] + length[0]]
    assert res.box_integral[1] == 0.0  # past the truncation


def test_testing_functional_refuses_index_out_of_range(measure, quad):
    for nodes in ([(0, 1)], [(2, 16)], [(2, -1)], [(1, 0), (3, 64)]):
        with pytest.raises(InvalidParams, match="0 <= i < 4\\*\\*g"):
            sq_testing_functional(measure, nodes, quad)
    assert len(sq_testing_functional(measure, [(2, 15), (3, 63)], quad).cubes) == 2


def test_testing_functional_refuses_empty_cube_list(measure, quad):
    for cubes in ([], (), np.zeros((0, 2), dtype=np.int64)):
        with pytest.raises(EmptyCubeList):
            sq_testing_functional(measure, cubes, quad)


def test_root_cube_testing_value_equals_vertical_partial_sum():
    # The root cube [0, 1] of the depth-14 tb-testing measure (mu(3R) = 1).
    # Its node value is the collapsed vertical series summed to T, by
    # construction; the interval walk (_cantor_box_integrals), which sums
    # per-cube terms from the tree and reads no series, is the independent side.
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=14))
    for T in range(2, 13, 2):
        quad = QuadratureConfig(trunc_generation=T)
        root = sq_testing_functional(deep, [(0, 0)], quad)
        [walk] = _cantor_box_integrals(deep, _box_tables(deep, quad), [(0.0, 1.0)]).tolist()
        partial = float(vertical_norm_series(deep, T, quad).partial_sums[T])
        assert root.mass_3r.tolist() == [1.0]
        # Measured: equal to the walk at every T, and 1 ulp below the
        # cumulative partial sum at T >= 8 (the same terms in another order).
        assert abs(root.ratio[0] - walk) <= 2 * math.ulp(walk)
        assert abs(root.ratio[0] - partial) <= 2 * math.ulp(partial)


def test_box_integral_shared_tables_match_fresh_context(measure, quad):
    # testing_functional reads vertical_norm_series, whose betas every
    # context on one measure shares.  An equal measure of its own, with a
    # fresh context, gives the same bits per node.
    nodes = [(0, 0)] + [(2, i) for i in range(0, 16, 5)]
    res = sq_testing_functional(measure, nodes, quad)
    N = min(quad.trunc_generation, measure.depth - 1)
    fresh = CantorSquareContext(CantorMeasure(CantorParams(m=M, C=C, depth=12)), quad)
    terms = np.array([fresh.g_vertical(n) for n in range(N + 1)])
    masses = [1.0] + measure.leaf_table(2)[2][::5].tolist()
    assert res.box_integral.tolist() == [w * terms[g:].sum() for (g, _), w in zip(nodes, masses)]
    # Beyond the measure's depth the strip mass is built on demand.
    shallow = CantorSquareContext(CantorMeasure(CantorParams(m=M, C=C, depth=3)), quad)
    assert shallow.g_vertical(5) == shallow.beta(5) ** 2 * _split_geometry(6, M, C).strip_mass * LN2


def test_testing_functional_counts_degenerate_cubes(measure, quad):
    # Nodes of generations 5 and 6 far enough from 0 have a + len == a in
    # floats: mu(3R) reads 0, so the ratio is 0, while the box integral is
    # mass x tail as for every node.
    nodes = [(0, 0), *_degenerate_nodes(measure), (2, 5)]
    res = sq_testing_functional(measure, nodes, quad)
    assert res.degenerate.tolist() == [False, True, True, False]
    tails = _tails(measure, quad)
    want = [float(measure.leaf_table(g)[2][i]) * tails[g] for g, i in nodes[1:3]]
    assert res.box_integral[1:3].tolist() == want and min(want) > 0.0
    assert res.mass_3r[1:3].tolist() == [0.0, 0.0]
    assert res.ratio[1:3].tolist() == [0.0, 0.0]
    full = sq_testing_functional(measure, [(0, 0)], quad)
    assert full.degenerate.tolist() == [False]


@dataclass
class _CubeValue:
    # One cube of the testing functional as a Python record, each value
    # computed on its own: the oracle of TestingResult's arrays.
    cube: tuple[float, float]
    box_integral: float
    mass_3r: float

    @property
    def ratio(self) -> float:
        return self.box_integral / self.mass_3r if self.mass_3r > 0 else 0.0


def _per_cube_testing(measure, nodes, quad):
    """(per-cube records, degenerate count, sup ratio), one (g, i) node at a time."""
    tails, pairs, boxes = _tails(measure, quad), [], []
    for g, i in nodes:
        s, l, w = measure.leaf_table(g)
        pairs.append((float(s[i]), float(s[i] + l[i])))
        boxes.append(float(w[i]) * tails[g])
    degenerate = sum(1 for (ca, cb) in pairs if not cb > ca)
    ca, cb = np.array(pairs, dtype=float).reshape(-1, 2).T
    mid, half = (ca + cb) / 2.0, (cb - ca) / 2.0
    m3 = measure.interval_masses(mid - 3 * half, mid + 3 * half).tolist()
    per_cube = [_CubeValue((a, b), box, m) for a, b, box, m
                in zip(ca.tolist(), cb.tolist(), boxes, m3)]
    return per_cube, degenerate, max(c.ratio for c in per_cube)


def _assert_matches_per_cube(res, oracle):
    per_cube, degenerate, sup_ratio = oracle
    assert all(type(v) is np.ndarray for v in vars(res).values())
    assert res.cubes.shape == (len(per_cube), 2)
    for name, got in (("cube", res.cubes), ("box_integral", res.box_integral),
                      ("mass_3r", res.mass_3r), ("ratio", res.ratio)):
        want = np.array([getattr(c, name) for c in per_cube], dtype=float)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
    assert int(res.degenerate.sum()) == degenerate
    assert type(res.sup_ratio) is float and repr(res.sup_ratio) == repr(sup_ratio)


@pytest.fixture(scope="module")
def tb_cantor():
    # The Cantor phase of `nhsq run tb-testing`: the depth-14 measure, the
    # 5,461 construction nodes of generations 0-6 as one (5,461, 2) array, T = 12.
    cfg = ExperimentConfig(experiment="tb-testing")
    deep = CantorMeasure(CantorParams(m=cfg.m, C=cfg.C, depth=14))
    nodes = np.array([(g, i) for g in range(7) for i in range(4**g)])
    return deep, nodes, cfg.quad(trunc=12)


def test_testing_result_arrays_match_per_cube_loop(tb_cantor):
    deep, nodes, quad = tb_cantor
    tuples = [tuple(v) for v in nodes.tolist()]  # the nodes as int tuples
    oracle = _per_cube_testing(deep, tuples, quad)
    assert len(tuples) == 5461 and oracle[1] == 1632
    res = sq_testing_functional(deep, nodes, quad)
    _assert_matches_per_cube(res, oracle)
    _assert_matches_per_cube(sq_testing_functional(deep, tuples, quad), oracle)
    # The cubes are the stacked leaf-table intervals, bit for bit.
    stacked = np.concatenate([np.column_stack((s, s + l))
                              for s, l, _ in map(deep.leaf_table, range(7))])
    assert res.cubes.tobytes() == stacked.tobytes()


def test_node_box_integrals_match_interval_walk(tb_cantor):
    # On the tb-testing nodes, mass x vertical tail is within 2 ulp of the
    # interval walk for every non-degenerate cube (measured: 2 ulp at most,
    # 4.1e-16 relative).  The walk values a degenerate cube at 0.
    deep, nodes, quad = tb_cantor
    res = sq_testing_functional(deep, nodes, quad)
    walk = _cantor_box_integrals(deep, _box_tables(deep, quad), res.cubes)
    live = ~res.degenerate
    assert live.sum() == 5461 - 1632 and (walk[~live] == 0.0).all()
    assert (np.abs(res.box_integral - walk)[live] <= 2 * np.spacing(walk[live])).all()


def test_node_ratios_peak_at_the_root(tb_cantor):
    # At the defaults a middle child is under 0.01 L long, so no ancestor's
    # band reaches under a node's box: the box integral is mass x tail.  The
    # tails decrease in g and mass(R) <= mu(3R), so no node's ratio passes
    # the root's, whose mu(3R) is 1; the sup keeps its digits.
    deep, nodes, quad = tb_cantor
    assert all(geo.child_lengths[1] < 0.01 * geo.L for geo in deep.geometry.values())
    res = sq_testing_functional(deep, nodes, quad)
    tails, N = _tails(deep, quad), quad.trunc_generation
    assert all(x > y for x, y in zip(tails, tails[1:N + 1])) and tails[N + 1:] == [0.0, 0.0]
    masses = np.concatenate([deep.leaf_table(g)[2] for g in range(7)])
    assert (masses <= res.mass_3r)[~res.degenerate].all()
    assert (res.ratio <= res.ratio[0]).all() and int(np.argmax(res.ratio)) == 0
    assert repr(res.sup_ratio) == "0.004116211096838229"


@pytest.mark.parametrize("m", [0.4, 0.49])
def test_node_box_integrals_count_ancestor_bands_at_c4(m, quad):
    # At C = 4 the generation-1 children are all L long, so the band
    # (L / 2, L) of the root reaches under each middle child's box: a box
    # integral of beta(0)^2 mass ln 2 more than mass x tail, which puts the
    # sup at node (1, 1).  Measured: within 2 ulp of the interval walk on
    # every non-degenerate node of generations 0-5.
    deep = CantorMeasure(CantorParams(m=m, C=4.0, depth=10))
    geo = deep.geometry[1]
    assert geo.child_lengths[1] == geo.L
    nodes = np.array([(g, i) for g in range(6) for i in range(4**g)])
    res = sq_testing_functional(deep, nodes, quad)
    walk = _cantor_box_integrals(deep, _box_tables(deep, quad), res.cubes)
    live = ~res.degenerate
    assert (np.abs(res.box_integral - walk)[live] <= 2 * np.spacing(walk[live])).all()
    beta0_sq, tails = CantorSquareContext(deep, quad).beta(0) ** 2, _tails(deep, quad)
    assert res.box_integral[2] == pytest.approx(0.25 * (beta0_sq * LN2 + tails[1]), rel=1e-15)
    assert int(np.argmax(res.ratio)) == 2 and res.ratio[2] > res.ratio[0]


def test_testing_result_arrays_match_per_cube_loop_on_pairs(measure, quad):
    rng = np.random.default_rng(23)
    nodes = [(0, 0), *_degenerate_nodes(measure), (1, 2)]
    nodes += [(int(g), int(rng.integers(4**g))) for g in rng.integers(0, 9, 40)]
    res = sq_testing_functional(measure, nodes, quad)
    _assert_matches_per_cube(res, _per_cube_testing(measure, nodes, quad))
    assert res.degenerate.tolist()[:3] == [False, True, True]


def test_testing_result_holds_arrays_only(tb_cantor):
    # On the 5,461 tb-testing cubes the result keeps four arrays, about
    # 0.18 MB; one record per cube kept 1.46 MB.
    deep, nodes, quad = tb_cantor
    sq_testing_functional(deep, nodes, quad)  # the measure's caches
    tracemalloc.start()
    try:
        res = sq_testing_functional(deep, nodes, quad)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(type(v) is np.ndarray for v in vars(res).values())
    assert held <= 0.5e6


def test_cantor_box_integral_builds_no_reference_cycles(measure, quad):
    # The node form works on arrays: a testing call leaves nothing for the
    # cycle collector.
    nodes = [(g, i) for g in range(4) for i in range(4**g)]
    sq_testing_functional(measure, nodes, quad)
    gc.collect()
    gc.disable()
    try:
        res = sq_testing_functional(measure, nodes, quad)
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cantor_box_integrals(measure: CantorMeasure, tables: tuple[np.ndarray, np.ndarray],
                          cubes) -> np.ndarray:
    """Box integral of |theta_t 1|^2 over [a,b] x (0, b-a) per cube (a, b):
    the interval walk, the oracle of the node form on node and non-node cubes.

    theta is constant beta(n) on each strip/band region, so the box integral
    is a sum over generations of beta^2 * (strip mass inside [a,b]) * (log
    measure of the band clipped to t < len(R)).  Bands of nodes inside R fit
    entirely (L_J <= 0.2 len(J) <= 0.2 len(R)); only partial boundary nodes
    need clipping.  tables holds the strip fractions and beta^2 of
    generations 0..N, N <= measure.depth - 1.  All cubes walk the tree
    together, one generation at a time; the terms of totals[cube, n] are
    added in the order of their nodes' depth-first keys (path digits + 1 in
    base 5, padded to N digits), the order of a one-cube depth-first walk.
    """
    strip_frac, beta_sq = tables
    N = len(strip_frac) - 1
    ca, cb = np.asarray(cubes, dtype=float).reshape(-1, 2).T
    cube = np.flatnonzero(cb - ca > 0)
    off, length, mass = np.zeros(cube.size), np.ones(cube.size), np.ones(cube.size)
    key = np.zeros(cube.size, dtype=np.int64 if 5**N < 2**63 else object)
    terms = []  # (cube, n, key, value) arrays
    for g in range(N + 1):
        a, b = ca[cube], cb[cube]
        meet = (off < b) & (off + length > a)
        bulk = meet & (a <= off) & (off + length <= b)
        pad, width = 5 ** (N - g), N + 1 - g
        # Bulk: every deeper generation of this subtree contributes fully.
        terms.append((np.repeat(cube[bulk], width), np.tile(np.arange(g, N + 1), int(bulk.sum())),
                      np.repeat(key[bulk] * pad, width),
                      (mass[bulk][:, None] * strip_frac[g:] * LN2).ravel()))
        part = meet & ~bulk
        cube, off, length, mass, key, a, b = (v[part] for v in (cube, off, length, mass, key, a, b))
        geo = measure.geometry[g + 1]  # g + 1 <= N + 1 <= depth
        t_hi, t_lo = np.minimum(geo.L * length, b - a), geo.L * length / 2.0
        band = np.flatnonzero(t_hi > t_lo)
        children = [v.reshape(-1, 4) for v in geo.split(off, length, mass)]
        # The strip: both middle children of every band node, clipped to [a, b].
        s_off, s_len = (v[band, 1:3].ravel() for v in children[:2])
        ja = np.maximum(s_off, np.repeat(a[band], 2))
        jb = np.maximum(np.minimum(s_off + s_len, np.repeat(b[band], 2)), ja)
        sm = measure.interval_masses(ja, jb).reshape(-1, 2)  # root walks of spans inside one node
        terms.append((cube[band], np.full(band.size, g), key[band] * pad,
                      (sm[:, 0] + sm[:, 1]) * np.log(t_hi[band] / t_lo[band])))
        off, length, mass = (v.ravel() for v in children)
        key = (key[:, None] * 5 + np.arange(1, 5)).ravel()
        cube = np.repeat(cube, 4)
    rows, cols, keys, vals = (np.concatenate(v) for v in zip(*terms))
    order = np.lexsort((keys, cols, rows))
    totals = np.zeros((ca.size, N + 1))
    np.add.at(totals.ravel(), (rows * (N + 1) + cols)[order], vals[order])
    return np.sum(beta_sq * totals, axis=1)


def _recursive_box_integral(measure, tables, a, b):
    """The Cantor box integral as first written, a recursive closure."""
    ell = b - a
    if ell <= 0:
        return 0.0
    strip_frac, beta_sq = tables
    N = len(strip_frac) - 1
    totals = np.zeros(N + 1)

    def rec(g, off, length, mass):
        if off >= b or off + length <= a or g > N:
            return
        if a <= off and off + length <= b:
            for n in range(g, N + 1):
                totals[n] += mass * strip_frac[n] * LN2
            return
        if g + 1 > measure.depth:
            return
        geo = measure.geometry[g + 1]
        L_abs = geo.L * length
        t_hi, t_lo = min(L_abs, ell), L_abs / 2.0
        if t_hi > t_lo:
            sm = 0.0
            for j in (1, 2):
                lo = off + geo.child_offsets[j] * length
                hi = lo + geo.child_lengths[j] * length
                ca, cb = max(lo, a), min(hi, b)
                if cb > ca:
                    sm += _mass_rec(measure, g + 1, lo, geo.child_lengths[j] * length,
                                    mass * geo.child_masses[j], ca, cb)
            totals[g] += sm * math.log(t_hi / t_lo)
        for j in range(4):
            rec(g + 1, off + geo.child_offsets[j] * length, geo.child_lengths[j] * length,
                mass * geo.child_masses[j])

    rec(0, 0.0, 1.0, 1.0)
    return float(np.sum(beta_sq * totals))


def _box_tables(measure, quad):
    """The walk's strip fractions and beta^2 of generations 0..min(T, depth - 1)."""
    ctx = CantorSquareContext(measure, quad)
    gens = range(min(quad.trunc_generation, measure.depth - 1) + 1)
    return (np.array([measure.geometry[n + 1].strip_mass for n in gens]),
            np.array([ctx.beta(n) for n in gens]) ** 2)


def test_cantor_box_integral_matches_recursive_walk(measure, quad):
    # The batched walk adds each totals[n] term in the recursion's depth-first
    # order, so every box integral keeps its bits, whatever the other cubes.
    tables = _box_tables(measure, quad)
    rng = np.random.default_rng(11)
    s, l, _ = measure.leaf_table(4)
    cubes = [(0.0, 1.0), (0.1, 0.35), (0.3, 0.9)]
    cubes += [(float(a), float(a + b)) for a, b in zip(s, l)]
    cubes += [tuple(sorted(rng.random(2))) for _ in range(200)]
    tiny = float(measure.leaf_table(10)[1].min())
    cubes += [(0.5, 0.5), (0.75, 0.75 + tiny / 4), (0.6, 0.4), (-0.5, 2.0), (0.0, 1.0)]
    got = _cantor_box_integrals(measure, tables, cubes).tolist()
    assert len(got) == len(cubes)
    assert got[-5:-2] == [0.0, 0.0, 0.0] and got[0] == got[-1] > 0
    for (a, b), value in zip(cubes, got):
        assert repr(value) == repr(_recursive_box_integral(measure, tables, a, b))
    # Reversing the cube list moves no bit.
    assert _cantor_box_integrals(measure, tables, cubes[::-1]).tolist() == got[::-1]


def test_cantor_box_integral_full_key_width(monkeypatch):
    # At N = 27 a depth-first key has 27 base-5 digits, up to 5**27 - 1,
    # the widest that fits in int64; cubes that end inside the rightmost
    # subtree give keys past 2**62.
    deep = CantorMeasure(CantorParams(m=M, C=C, depth=28))
    quad = QuadratureConfig(trunc_generation=27)
    tables = _box_tables(deep, quad)
    assert len(tables[0]) == 28 and 5**27 < 2**63 < 5**28
    s, l, _ = deep.leaf_table(8)
    x = float(s[-1] + l[-1] / 2)  # inside the leaf on the all-3 path
    rng = np.random.default_rng(5)
    cubes = [(0.0, 1.0), (0.5, x), (x, 1.0), (float(s[7]), float(s[7] + l[7]))]
    cubes += [tuple(sorted(rng.random(2))) for _ in range(20)]
    keys = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: keys.append(k[0]) or lexsort(k))
    got = _cantor_box_integrals(deep, tables, cubes).tolist()
    assert keys[0].dtype == np.int64 and 2**62 < keys[0].max() < 5**27
    for (a, b), value in zip(cubes, got):
        assert repr(value) == repr(_recursive_box_integral(deep, tables, a, b))


def _ci_digits(prof):
    return prof["sup"], prof["per_depth"], prof["witness"]


def _ci_whole_table(f, max_depth):
    # The C_I segment table built in one piece: every breakpoint, cube
    # boundary and octave point in one sorted array (the form ci_profile
    # held for the whole sweep before it went chunk by chunk).
    oct_pts = 2.0 ** (-(np.arange(1, 481)) / 8.0)
    bp = np.unique(np.concatenate([
        f.breakpoints() / f.lattice,
        np.arange(2**max_depth + 1) / 2**max_depth,
        oct_pts,
        1.0 - oct_pts,
    ]))
    mids = (bp[:-1] + bp[1:]) / 2.0
    return bp, mids, f.exponent_batch(mids).astype(float)


def test_ci_profile_row_blocks_move_no_digit(quad, monkeypatch):
    kv = LogProductKernel(build_logproduct("demo", 3))
    default = ci_profile(kv, 4, quad)
    steps = max(24, quad.t_steps_per_band)
    rows_total = default["elements"] // steps  # more than any one depth's rows
    for rows in (1, 7, rows_total + 1):
        monkeypatch.setattr(sqfn, "CI_BLOCK_ROWS", rows)
        prof = ci_profile(kv, 4, quad)
        assert _ci_digits(prof) == _ci_digits(default)
        assert prof["elements"] == default["elements"]
        if rows == 1:
            assert prof["blocks"] == rows_total
    assert prof["blocks"] <= 5  # one block per depth 0..4 at most


def _ci_profile_two_phi(kernel, max_depth, quad):
    # ci_profile as it was before kernels.theta_unit: the boundary zone in
    # 8,192-row blocks, theta as the difference of two Phi calls.
    steps = max(24, quad.t_steps_per_band)
    bp, mids, A = _ci_whole_table(kernel.f, max_depth)
    widths = np.diff(bp)
    ln_sat = np.log(np.maximum(np.minimum(mids, 1.0 - mids) / 2.0, 1e-300))
    per_depth, sup, witness = {}, 0.0, (0, 0)
    for d in range(max_depth + 1):
        ell = 0.5**d
        lnL = math.log(ell)
        inner = 9.0 * np.maximum(0.0, np.minimum(ln_sat, lnL) + A)
        lo = np.maximum(ln_sat, -A)
        mask = lo < lnL
        if mask.any():
            rows = np.flatnonzero(mask)
            numeric = np.empty(rows.size)
            u = (np.arange(steps) + 0.5) / steps
            for i in range(0, rows.size, 8192):
                blk = rows[i:i + 8192]
                span = lnL - lo[blk]
                t = np.exp(lo[blk, None] + span[:, None] * u[None, :])
                x = mids[blk, None]
                theta = phi_v_antiderivative(x / t) - phi_v_antiderivative((x - 1.0) / t)
                numeric[i:i + blk.size] = span * np.mean(theta**2, axis=1)
            inner[mask] += numeric
        boxes = np.bincount(np.floor(mids / ell).astype(int), weights=widths * inner,
                            minlength=2**d)
        ratios = boxes / ell
        k = int(np.argmax(ratios))
        per_depth[d] = float(ratios[k])
        if ratios[k] > sup:
            sup, witness = float(ratios[k]), (d, k)
    return sup, per_depth, witness


def test_ci_profile_matches_two_phi_oracle(quad):
    kv = LogProductKernel(build_logproduct("demo", 4))
    assert _ci_digits(ci_profile(kv, 6, quad)) == _ci_profile_two_phi(kv, 6, quad)


def _ci_profile_one_shot(kernel, max_depth, quad):
    # ci_profile over the whole table with fresh arrays for every step of
    # every depth and one np.bincount per depth: the oracle of its chunks and
    # out= buffers.  Only the block count follows the chunks: rows are cut
    # into blocks within each chunk of sqfn.SEGMENT_CHUNK breakpoint intervals.
    steps = max(24, quad.t_steps_per_band)
    bp, mids, A = _ci_whole_table(kernel.f, max_depth)
    chunk_starts = np.searchsorted(bp, kernel.f.breakpoints()[::sqfn.SEGMENT_CHUNK] / kernel.f.lattice)
    widths = np.diff(bp)
    ln_sat = np.log(np.maximum(np.minimum(mids, 1.0 - mids) / 2.0, 1e-300))
    per_depth, sup, witness = {}, 0.0, (0, 0)
    elements = blocks = 0
    for d in range(0, max_depth + 1):
        ell = 0.5**d
        lnL = math.log(ell)
        inner = 9.0 * np.maximum(0.0, np.minimum(ln_sat, lnL) + A)
        lo = np.maximum(ln_sat, -A)
        mask = lo < lnL
        if mask.any():
            rows = np.flatnonzero(mask)
            numeric = np.empty(rows.size)
            u = (np.arange(steps) + 0.5) / steps
            for i in range(0, rows.size, sqfn.CI_BLOCK_ROWS):
                blk = rows[i:i + sqfn.CI_BLOCK_ROWS]
                span = lnL - lo[blk]
                t = np.exp(lo[blk, None] + span[:, None] * u[None, :])
                theta = theta_unit(t, mids[blk, None])
                numeric[i:i + blk.size] = span * np.mean(theta**2, axis=1)
            inner[mask] += numeric
            elements += rows.size * steps
            per_chunk = np.diff(np.searchsorted(rows, np.append(chunk_starts, mids.size)))
            blocks += int(np.sum(-(-per_chunk // sqfn.CI_BLOCK_ROWS)))
        cube = np.minimum(np.floor(mids / ell).astype(int), 2**d - 1)  # x = 1 in the last cube
        boxes = np.bincount(cube, weights=widths * inner, minlength=2**d)
        ratios = boxes / ell
        k = int(np.argmax(ratios))
        per_depth[d] = float(ratios[k])
        if ratios[k] > sup:
            sup = float(ratios[k])
            witness = (d, k)
    return {"sup": sup, "per_depth": per_depth, "witness": witness,
            "elements": elements, "blocks": blocks}


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ci_profile_buffers_match_one_shot(N, quad):
    kv = LogProductKernel(build_logproduct("demo", N))
    assert repr(ci_profile(kv, 12, quad)) == repr(_ci_profile_one_shot(kv, 12, quad))


@pytest.mark.parametrize("N, chunks", [(2, (1, 7, None)), (3, (7, None))])
def test_ci_profile_chunks_move_no_digit(N, chunks, quad, monkeypatch):
    # Chunks of one breakpoint interval, of seven, and one chunk holding the
    # whole table (None): the same digits, elements and rows as the one-shot
    # oracle, with the blocks cut at the chunk ends.
    kv = LogProductKernel(build_logproduct("demo", N))
    for chunk in chunks:
        monkeypatch.setattr(sqfn, "SEGMENT_CHUNK", chunk or kv.f.breakpoints().size)
        assert repr(ci_profile(kv, 8, quad)) == repr(_ci_profile_one_shot(kv, 8, quad))


def test_ci_profile_counts_x_one_in_the_last_cube(quad, monkeypatch):
    # The last segment [1 - 2**-53, 1] has its midpoint at 1.0, one cube
    # length past the last cube's start; every depth's argmax runs over its
    # 2**d cubes and no witness names a cube [1, 1 + 2**-d].
    kv = LogProductKernel(build_logproduct("demo", 4))
    assert _ci_whole_table(kv.f, 12)[1][-1] == 1.0
    seen = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda a: seen.append((a.size, argmax(a))) or seen[-1][1])
    prof = ci_profile(kv, 12, quad)
    assert [size for size, _ in seen] == [2**d for d in range(13)]
    assert all(k < size for size, k in seen)
    d, k = prof["witness"]
    assert k < 2**d


def test_ci_profile_buffers_bound_the_working_set(quad, traced_peak):
    # The tb-testing sweep (demo N = 4, depth 12, 132,949 segments) keeps at
    # least two fewer segment-length arrays alive at its peak than the
    # one-shot oracle.  Only chunk-length arrays live: 2.91 MB traced, where
    # the whole-table sweep with out= buffers traced 9.79 MB.
    kv = LogProductKernel(build_logproduct("demo", 4))
    kv.f.breakpoints()  # cached on f: traced by neither run
    segment_array = 8 * _ci_whole_table(kv.f, 12)[1].size
    one_shot = traced_peak(lambda: _ci_profile_one_shot(kv, 12, quad))
    buffered = traced_peak(lambda: ci_profile(kv, 12, quad))
    assert buffered <= one_shot - 2 * segment_array
    assert buffered <= 4.6e6


def _logproduct_inner_t(kernel: LogProductKernel, x: float, A: int, t_hi: float,
                        quad: QuadratureConfig) -> float:
    """integral over [e^-A, t_hi] of |theta_t 1(x)|^2 dt/t, exact below saturation.

    theta_t 1(x) = Phi(x/t) - Phi((x-1)/t) saturates to the full phi_v mass 3
    once t <= min(x, 1-x)/2; there the integrand is 9 and the integral is a
    closed-form log length.  The remaining window is at most a few octaves.
    """
    if t_hi <= 0.0 or x <= 0.0 or x >= 1.0:
        return 0.0
    log_lo = -float(A)
    log_hi = math.log(min(t_hi, 1.0))
    if log_hi <= log_lo:
        return 0.0
    t_sat = min(x, 1.0 - x) / 2.0
    log_sat = min(max(math.log(t_sat), log_lo), log_hi)
    total = 9.0 * (log_sat - log_lo)
    # Numeric part on [t_sat, t_hi]: smooth in log t.
    span = log_hi - log_sat
    if span > 0.0:
        steps = max(quad.t_steps_per_band, int(math.ceil(span / LN2 * 16)))
        dv = span / steps
        v = log_sat + (np.arange(steps) + 0.5) * dv
        t = np.exp(v)
        theta = theta_unit(t, x)
        total += float(np.sum(theta**2) * dv)
    return total


def _logproduct_box_integral(kernel: LogProductKernel, a: Fraction, b: Fraction,
                             quad: QuadratureConfig) -> float:
    """Box integral of |theta_t 1|^2 over [a,b] x (0, b-a) for the log-product kernel.

    x integration is exact over the segments where the exponent A(x) is
    constant (2-point Gauss per segment; theta varies smoothly there).
    """
    ell = float(b - a)
    if ell <= 0:
        return 0.0
    total = 0.0
    gauss = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    for lo, hi, A in _segments(kernel.f, Fraction(a), Fraction(b), 10**6):
        w = float(hi - lo)
        flo = float(lo)
        acc = 0.0
        for gpt in gauss:
            x = flo + gpt * w
            acc += _logproduct_inner_t(kernel, x, A, ell, quad)
        total += w * acc / len(gauss)
    return total


def test_logproduct_box_vs_ci_profile(quad):
    # The vectorized sweep and the segment-Gauss box integral, with its own
    # t grid and its own x rule, are independent routes to C_I.
    kv = LogProductKernel(build_logproduct("demo", 3))
    prof = ci_profile(kv, 4, quad)
    slow_root = _logproduct_box_integral(kv, Fraction(0), Fraction(1), quad)
    assert prof["per_depth"][0] == pytest.approx(slow_root, rel=2e-3)
    # Spot-check one deeper cube against the slow route.
    a, b = Fraction(3, 16), Fraction(4, 16)
    slow = _logproduct_box_integral(kv, a, b, quad) / float(b - a)
    assert slow <= prof["per_depth"][4] + 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_vertical_value_is_the_depth0_row_of_the_ci_sweep(N, quad):
    # V 1(x) is the theta-integral of C_I at a point: at 400 midpoints of
    # tb-testing's C_I segment table (x = 1 left out, where V reads 0),
    # vertical_value is the square root of _vertical_sq's row at lnL = 0,
    # bit for bit, one point at a time and as one array.
    kv = LogProductKernel(build_logproduct("demo", N))
    _, mids, A = _ci_whole_table(kv.f, 12)
    zone = np.empty((2, sqfn.CI_BLOCK_ROWS, max(24, quad.t_steps_per_band)))
    row, mask = np.empty(mids.size), np.empty(mids.size, dtype=bool)
    _vertical_sq(mids, A, _ln_sat(mids), 0.0, zone, row, mask)
    pick = np.unique(np.linspace(0, np.flatnonzero(mids < 1.0)[-1], 400).astype(int))
    assert pick.size == 400 and 0.0 < mids[pick].min() and mids[pick].max() < 1.0
    want = [math.sqrt(v) for v in row[pick].tolist()]
    assert [vertical_value(kv, None, None, x, quad) for x in mids[pick].tolist()] == want
    assert vertical_value(kv, None, None, mids[pick], quad).tolist() == want


@pytest.mark.parametrize("N", [2, 3, 4])
def test_vertical_value_logproduct_matches_inner_t_oracle(N, quad):
    # The oracle reads the exact exponent and its own t grid (16 steps per
    # octave above saturation), so the two t-quadratures meet only at the
    # tolerance of test_logproduct_box_vs_ci_profile.
    f = build_logproduct("demo", N)
    kv = LogProductKernel(f)
    edges = [10.0**-k for k in range(1, 12)]
    xs = np.concatenate([np.random.default_rng(30 + N).random(1000), edges, [1 - e for e in edges]])
    got = vertical_value(kv, None, None, xs, quad)
    for x, v in zip(xs.tolist(), got.tolist()):
        oracle = math.sqrt(_logproduct_inner_t(kv, x, f.exponent(Fraction(x)), 1.0, quad))
        assert v == pytest.approx(oracle, rel=2e-3), x


def test_leaf_function_batch_matches_leaf_index(measure):
    rng = np.random.default_rng(4)
    for depth in (0, 1, 3):
        f = LeafFunction(measure, depth, np.arange(1.0, 4**depth + 1))
        starts, lens, _ = measure.leaf_table(depth)
        ends = starts + lens
        # Leaf endpoints and their neighbouring doubles, gap midpoints
        # between consecutive leaves, random points and points outside [0,1].
        pts = [v for e in np.concatenate([starts, ends])
               for v in (math.nextafter(e, -1.0), float(e), math.nextafter(e, 2.0))]
        pts += list((ends[:-1] + starts[1:]) / 2.0)
        pts += list(rng.uniform(-0.1, 1.1, 500)) + [-1.0, 0.5, 2.0]
        want = [0.0 if f.leaf_index(x) is None else f.values[f.leaf_index(x)] for x in pts]
        got = f(np.array(pts))
        assert np.array_equal(got, want)
        assert all(type(f(x)) is float and f(x) == w for x, w in zip(pts[::37], want[::37]))
        if depth:
            assert 0.0 in want and len(set(want)) > 4**depth // 2


def test_leaf_function_holds_one_generation_of_the_walk(measure, traced_peak):
    # f at the 4,096 atoms of one _node_coefficient call at the root, as a
    # weak11 depth-5 spike is read, keeps only the walk's last generation:
    # holding every generation's arrays at once traced 0.96 MB, one 0.41 MB.
    f = LeafFunction.spike(measure, 5, 7)
    mids = node_atoms(measure, 0.0, 1.0, 1.0, 0, 6)[0]
    assert mids.size == 4096
    *_, (_, _, _, _, idx, alive) = measure.descend(mids, f.depth)
    want = np.where(alive, f.values[idx], 0.0)
    assert np.array_equal(f(mids), want) and (want > 0).sum() == 4
    assert traced_peak(lambda: f(mids)) <= 0.6e6


def test_weak11(measure, kernel, quad):
    lam = np.geomspace(1e-3, 1e4, 50)
    f = LeafFunction.spike(measure, 4, 7)
    res = weak11_functional(kernel, measure, f, lam, quad)
    assert res.l1_norm == pytest.approx(1.0, rel=1e-12)
    assert res.sup_value > 0
    # Scaling invariance: 2f against the doubled grid gives the same sup.
    f2 = LeafFunction(measure, 4, 2.0 * f.values)
    res2 = weak11_functional(kernel, measure, f2, 2.0 * lam, quad)
    assert res2.sup_value == pytest.approx(res.sup_value, rel=1e-12)
    # Zero function.
    res0 = weak11_functional(
        kernel, measure, LeafFunction.constant(measure, 3, 0.0), lam, quad
    )
    assert res0.sup_value == 0.0
