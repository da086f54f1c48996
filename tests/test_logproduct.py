import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhsq import logproduct
from nhsq.errors import (
    DegenerateInterval,
    ExponentOverflow,
    InvalidParams,
    OutOfDomain,
    WrongProfile,
)
from nhsq.logproduct import (
    _ceil,
    _floor,
    _float_floor,
    _segments,
    _sorted_unique,
    LOG2E_HI,
    LogProductFn,
    Rational,
    build_logproduct,
    carleson_log_bound,
    eval_f,
    log_moments,
    lp_divergence_witness,
)
from nhsq.rng import derive_rng

# Certified rational lower bound: LOG2E_LO < log2(e), the pair of LOG2E_HI.
LOG2E_LO = Fraction(14426950408889633, 10**16)


@pytest.fixture(scope="module")
def paper():
    return build_logproduct("paper", 4)


@pytest.fixture(scope="module")
def demo():
    return build_logproduct("demo", 4)


def test_log2e_bounds_certified():
    # LOG2E_LO < log2(e) < LOG2E_HI, certified against a 60-digit value.
    import decimal

    decimal.getcontext().prec = 60
    log2e = 1 / decimal.Decimal(2).ln()
    ref = Fraction(log2e)
    eps = Fraction(1, 10**50)
    assert LOG2E_LO < ref - eps
    assert LOG2E_HI > ref + eps


def test_paper_parameters(paper):
    a = [F.a_n for F in paper.factors]
    assert a == [2, 64, 13824, 16777216]  # (n 2^n)^n, already integral
    assert paper.factors[0].total_measure == Fraction(1, 4)
    assert paper.factors[1].total_measure == Fraction(1, 256)
    # |E_n| a_n = 2^-n exactly.
    for F in paper.factors:
        assert F.total_measure * F.a_n == Fraction(1, 2**F.n)


def test_spacing_rule(paper):
    # 2/k_n <= exp(-sum a_j), certified via the log2(e) upper bound:
    # k_exp >= 1 + a_cum * log2(e) implies the inequality.
    a_cum = 0
    for F in paper.factors:
        a_cum += F.a_n
        assert F.k_exp >= 1 + a_cum * LOG2E_LO
        assert Fraction(F.k_exp) >= 1 + Fraction(a_cum) * LOG2E_HI - 1  # ceil slack


def test_budget_identity(paper, demo):
    assert paper.exponent_budget() == Fraction(15, 16)  # 1 - 2^-4
    assert demo.exponent_budget() == Fraction(1 - Fraction(1, 8**4), 7) * 1
    assert demo.exponent_budget() == (1 - Fraction(1, 8**4)) / 7


def test_paper_cap():
    with pytest.raises(ExponentOverflow):
        build_logproduct("paper", 5)
    with pytest.raises(ExponentOverflow):
        build_logproduct("demo", 5)
    with pytest.raises(InvalidParams):
        build_logproduct("paper", 0)
    with pytest.raises(InvalidParams):
        build_logproduct("nope", 2)


def test_eval_f(paper):
    # t = 0 is the left end of piece 0 of every family.
    A, val = eval_f(paper, 0)
    assert A == 2 + 64 + 13824 + 16777216
    assert val == 0.0  # underflow to zero, exponent exact
    # t just right of the first piece of E_1 and outside all others; the
    # offset must be non-dyadic, since every coarse dyadic rational sits
    # exactly on a (closed) piece start of the finer families.
    pl1 = paper.factors[0].piece_length
    t = pl1 + Fraction(1, 3 * 2**60)
    A2, _ = eval_f(paper, t)
    assert A2 == 0
    with pytest.raises(OutOfDomain):
        eval_f(paper, Fraction(3, 2))


def test_eval_matches_brute_force_demo(demo):
    # Oracle: enumerate the demo pieces explicitly and test membership.
    for F in demo.factors:
        k = 1 << F.k_exp
        pl = F.piece_length
        pieces = [(Fraction(i, k), Fraction(i, k) + pl) for i in range(k)]
        for t in (Fraction(1, 7), Fraction(3, 64), Fraction(1, 1024), Fraction(9, 10)):
            expected = any(lo <= t <= hi for lo, hi in pieces)
            assert F.contains(t) == expected


def test_overlap_exact_values(demo):
    F1 = demo.factors[0]
    total, count = F1.overlap(0, 1)
    assert total == F1.total_measure
    assert count == 1 << F1.k_exp
    piece, count1 = F1.overlap(0, F1.piece_length)
    assert piece == F1.piece_length and count1 == 1


def test_overlap_matches_brute_force(demo):
    # Oracle: clip explicit pieces against the interval, exact rationals.
    F = demo.factors[1]
    k = 1 << F.k_exp
    pl = F.piece_length
    cases = [
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 128), Fraction(3, 128)),
        (Fraction(0), Fraction(1, 64)),
        (Fraction(5, 7), Fraction(6, 7)),
    ]
    for a, b in cases:
        brute = Fraction(0)
        met = 0
        for i in range(k):
            lo = Fraction(i, k)
            seg = min(b, lo + pl) - max(a, lo)
            if seg > 0:
                brute += seg
                met += 1
        total, count = F.overlap(a, b)
        assert total == brute
        assert count >= met  # boundary touches may add measure-zero pieces


@given(d=st.integers(min_value=1, max_value=30), kk=st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_overlap_spacing_bound(d, kk):
    demo = build_logproduct("demo", 3)
    k = kk % (2**d)
    a, b = Fraction(k, 2**d), Fraction(k + 1, 2**d)
    for F in demo.factors:
        if F.k_exp >= d + 1:
            piece, _ = F.overlap(a, b)
            assert piece <= 2 * F.total_measure * (b - a)


def test_overlap_additivity(demo):
    F = demo.factors[2]
    a, m, b = Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)
    left, _ = F.overlap(a, m)
    right, _ = F.overlap(m, b)
    whole, _ = F.overlap(a, b)
    assert left + right == whole


def test_divergence_witness(paper):
    # |E_n| a_n^(1+1/n) = n exactly for a_n = (n 2^n)^n.
    for n in range(1, 5):
        w = lp_divergence_witness(paper, n)
        assert w == n
        assert w >= n
    with pytest.raises(WrongProfile):
        lp_divergence_witness(build_logproduct("demo", 2), 1)
    with pytest.raises(OutOfDomain):
        lp_divergence_witness(paper, 5)


def test_carleson_log_bound(paper):
    # Large interval: the global budget gives U <= 2 len(I).
    cb = carleson_log_bound(paper, 0, Fraction(1, 2))
    assert cb.cutoff == 0
    assert cb.bound <= 2 * Fraction(1, 2)
    # Interval below e^-2: cutoff 1, still U <= 2 len(I).
    cb2 = carleson_log_bound(paper, 0, Fraction(1, 16))
    assert cb2.cutoff == 1
    assert cb2.bound <= Fraction(2, 16)
    # An interval avoiding every E_n above the cutoff gives 0.
    # [5/16 + eps, 5/16 + 1/32] sits between pieces of E_1 at spacing 1/16.
    cb3 = carleson_log_bound(paper, Fraction(11, 32), Fraction(23, 64))
    assert cb3.bound >= 0
    with pytest.raises(DegenerateInterval):
        carleson_log_bound(paper, Fraction(1, 2), Fraction(1, 2))


def demo_carleson_quadrature(f: LogProductFn, a: Rational, b: Rational, resolution: int = 300_000) -> float:
    """Direct ∫_I ln+ (len(I)/f) dt by exact piecewise-constant integration."""
    if f.profile != "demo":
        raise WrongProfile("direct quadrature needs the demo profile")
    a = Fraction(a)
    b = Fraction(b)
    ell = b - a
    if ell <= 0:
        raise DegenerateInterval(f"interval [{a}, {b}] has no length")
    log_ell = math.log(float(ell))
    total = 0.0
    for lo, hi, A in _segments(f, a, b, resolution):
        val = max(0.0, A + log_ell)
        total += float(hi - lo) * val
    return total


def test_carleson_bound_dominates_direct_integral():
    # Demo profile: the exact integral of ln+ (len/f) never exceeds U(I).
    demo = build_logproduct("demo", 3)
    cases = [(Fraction(0), Fraction(1, 8)), (Fraction(1, 4), Fraction(3, 8)),
             (Fraction(0), Fraction(1))]
    for a, b in cases:
        direct = demo_carleson_quadrature(demo, a, b)
        cb = carleson_log_bound(demo, a, b)
        assert direct <= float(cb.bound) + 1e-9


def test_demo_carleson_quadrature(demo):
    with pytest.raises(WrongProfile):
        demo_carleson_quadrature(build_logproduct("paper", 2), 0, Fraction(1, 2))
    # A sliver inside an E_4 gap that also dodges E_1..E_3 pieces: f == 1
    # there, so the integrand ln+ of len <= 1 vanishes.
    a = Fraction(3089, 65536) + Fraction(1, 2**28)
    b = Fraction(3090, 65536) - Fraction(1, 2**28)
    assert demo.exponent((a + b) / 2) == 0
    v = demo_carleson_quadrature(demo, a, b)
    assert v == pytest.approx(0.0, abs=1e-15)
    # Full interval: bounded by the budget.
    full = demo_carleson_quadrature(demo, 0, 1)
    assert full <= float(demo.exponent_budget()) + 1e-12


def test_demo_quadrature_scales_with_overlap(demo):
    # Halving an interval around an E_2 piece scales consistently with the
    # overlap-based budget bound.
    F2 = demo.factors[1]
    k = 1 << F2.k_exp
    lo = Fraction(5, k)
    for half in (Fraction(1, 32), Fraction(1, 64)):
        a, b = max(lo - half, Fraction(0)), min(lo + half, Fraction(1))
        v = demo_carleson_quadrature(demo, a, b)
        budget = sum(float(F.a_n * F.overlap(a, b)[0]) for F in demo.factors)
        assert v <= budget + 1e-12


def test_log_moments_exact(demo):
    mom = log_moments(demo, (1, 2, 4))
    assert mom[1] == demo.exponent_budget()
    assert mom[2] >= mom[1]  # A >= 1 wherever A > 0... A integer-valued
    assert log_moments(demo, (4,))[4] == mom[4]
    # Monotone in N for each p.
    for p in (1, 2, 4):
        vals = [log_moments(build_logproduct("demo", N), (p,))[p] for N in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_moment_ratio_grows(demo):
    ratios = []
    for N in (2, 3, 4):
        f = build_logproduct("demo", N)
        mom = log_moments(f, (1, 4))
        ratios.append(mom[4] / mom[1])
    assert ratios[0] < ratios[1] < ratios[2]


def _brute_breakpoints(f):
    pts = {Fraction(0), Fraction(1)}
    for F in f.factors:
        k = 1 << F.k_exp
        for i in range(k):
            pts.add(Fraction(i, k))
            pts.add(Fraction(i, k) + F.piece_length)
    return sorted(pts)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lattice_breakpoints_and_segments_match_fraction_enumeration(N):
    # Oracle: every piece endpoint enumerated as a Fraction.
    f = build_logproduct("demo", N)
    brute = _brute_breakpoints(f)
    D = f.lattice
    assert [Fraction(int(j), D) for j in f.breakpoints()] == brute
    for a, b in [(Fraction(0), Fraction(1)), (brute[3], brute[-4]),
                 (Fraction(1, 3), Fraction(5, 7)), (brute[5], Fraction(5, 7))]:
        pts = [lo for lo, _, _ in _segments(f, a, b, 10**6)] + [b]
        assert pts == [a] + [p for p in brute if a < p < b] + [b]


def _breakpoints_by_pieces(f):
    """The per-family start and end arrays, concatenated and deduplicated by
    _sorted_unique with every piece still held: the form that breakpoints'
    in-place sort replaced."""
    D = f.lattice
    pts = [np.array([0, D], dtype=np.int64)]
    for F in f.factors:
        k = 1 << F.k_exp
        starts = np.arange(k, dtype=np.int64) * (D // k)
        pts += [starts, starts + D // F.piece_length.denominator * F.piece_length.numerator]
    return _sorted_unique(np.concatenate(pts))


def test_breakpoints_demo_n4_match_endpoint_set(traced_peak):
    # The brute-force Fraction oracle stops at N = 3; at N = 4 the sorted
    # piece endpoints are compared as Python ints on the lattice 1/D.
    f = build_logproduct("demo", 4)
    D = f.lattice
    old = []
    old_peak = traced_peak(lambda: old.append(_breakpoints_by_pieces(f)))
    # The first call writes every endpoint into one array and deduplicates
    # it in place: 1.21 MB traced against 3.32 MB for the old form (0.36).
    assert traced_peak(f.breakpoints) <= 0.75 * old_peak
    bp = f.breakpoints()
    assert bp.dtype == np.int64 and np.all(np.diff(bp) > 0)
    assert np.array_equal(bp, old[0]) and old[0].dtype == np.int64
    pts = {0, D}
    for F in f.factors:
        k = 1 << F.k_exp
        step, pl = D // k, D * F.piece_length
        assert pl.denominator == 1
        pts.update(i * step for i in range(k))
        pts.update(i * step + pl.numerator for i in range(k))
    assert bp.tolist() == sorted(pts)


def test_breakpoints_build_holds_one_copy(traced_peak):
    # One int64 per piece endpoint and one bool repeat mask, no second copy
    # of the points: about 9 bytes per endpoint at N = 4, where per-family
    # pieces and their concatenated copy traced 2.26 MB.
    f = build_logproduct("demo", 4)
    endpoints = 2 + 2 * sum(1 << F.k_exp for F in f.factors)
    peak = traced_peak(f.breakpoints)
    assert peak <= 9.5 * endpoints < 2.15e6


def _log_moments_one_shot(f, ps):
    """log_moments over the whole breakpoint table at once: the form the
    chunked sweep replaced, with numpy's own np.unique for the levels."""
    bp = f.breakpoints()
    D = f.lattice
    M = bp[:-1] + bp[1:]
    A = np.zeros(len(M), dtype=np.int64)
    for F in f.factors:
        A += F.a_n * ((M * (1 << F.k_exp)) % (2 * D) <= _floor(F.total_measure * 2 * D))
    widths = np.diff(bp)
    levels = {int(v): int(widths[A == v].sum()) for v in np.unique(A)}
    return {p: Fraction(sum(w * v**p for v, w in levels.items()), D) for p in ps}


@pytest.mark.parametrize("N, chunks", [(1, (1, 7, None)), (2, (1, 7, None)),
                                       (3, (1, 7, None)), (4, (None,))])
def test_log_moments_chunks_move_no_digit(N, chunks, monkeypatch):
    # Chunks of one segment, of seven, the default and one chunk holding
    # every segment (None) give the one-shot sums exactly.
    f = build_logproduct("demo", N)
    want = _log_moments_one_shot(f, (1, 2, 4))
    assert log_moments(f, (1, 2, 4)) == want
    for chunk in chunks:
        monkeypatch.setattr(logproduct, "SEGMENT_CHUNK", chunk or f.breakpoints().size)
        assert log_moments(f, (1, 2, 4)) == want


def test_log_moments_chunks_bound_the_working_set(traced_peak):
    # Demo N = 4 sweeps 132,096 segments; with the breakpoints cached, the
    # chunked sweep holds less than one segment-length int64 array.
    f = build_logproduct("demo", 4)
    segment_array = 8 * (f.breakpoints().size - 1)
    assert traced_peak(lambda: log_moments(f, (1, 2, 4))) <= segment_array


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lattice_moments_match_fraction_sweep(N):
    # Oracle: exact Fraction sweep of A(mid)^p over the exponent segments.
    f = build_logproduct("demo", N)
    segs = _segments(f, Fraction(0), Fraction(1), 10**7)
    mom = log_moments(f, (1, 2, 4))
    for p in (1, 2, 4):
        assert mom[p] == sum(((hi - lo) * f.exponent((lo + hi) / 2) ** p
                              for lo, hi, _ in segs), Fraction(0))


def _exponent_by_residue(f, t: float) -> int:
    """A(t) by SpacedSetFamily.contains' integer residue rule on t's exact ratio."""
    p, q = t.as_integer_ratio()
    A = 0
    for F in f.factors:
        tm = F.total_measure
        if p == q:
            inside = tm == 1
        else:
            inside = ((p << F.k_exp) % q) * tm.denominator <= q * tm.numerator
        A += F.a_n * inside
    return A


def test_exponent_by_residue_matches_exponent():
    f = build_logproduct("demo", 4)
    pts = np.concatenate([np.random.default_rng(9).random(300), f.breakpoints()[::997] / f.lattice,
                          [0.0, 1.0]])
    assert [_exponent_by_residue(f, t) for t in pts.tolist()] == \
        [f.exponent(Fraction(t)) for t in pts.tolist()]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_exponent_batch_matches_scalar_exponent(N):
    f = build_logproduct("demo", N)
    rng = np.random.default_rng(N)
    bp = f.breakpoints() / f.lattice
    x = np.concatenate([
        rng.random(2000),
        bp,
        np.nextafter(bp, -np.inf)[1:],
        np.nextafter(bp, np.inf)[:-1],
        [0.0, 1.0],  # t = 1 is outside every family since |E_n| < 1
    ])
    expected = [_exponent_by_residue(f, t) for t in x.tolist()]
    assert f.exponent_batch(x).tolist() == expected
    with pytest.raises(OutOfDomain):
        f.exponent_batch([0.5, math.nextafter(1.0, 2.0)])
    with pytest.raises(WrongProfile):
        build_logproduct("paper", 1).exponent_batch([0.5])


def test_float_floor_rounds_down():
    # float(1/10) rounds up, float(1/3) rounds down; both must end <= q.
    for q in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 1536), Fraction(1, 2)):
        d = _float_floor(q)
        assert Fraction(d) <= q < Fraction(math.nextafter(d, math.inf))


def test_overlap_measure_and_bound_match_counted_overlap(paper):
    rng = np.random.default_rng(7)
    for d in range(1, 40):
        k = int(rng.integers(0, 2**d))
        a, b = Fraction(k, 2**d), Fraction(k + 1, 2**d)
        for F in paper.factors:
            assert F.overlap_measure(a, b) == F.overlap(a, b)[0]
        cb = carleson_log_bound(paper, a, b)
        counted = sum((F.a_n * F.overlap(a, b)[0] for F in paper.factors if F.n > cb.cutoff),
                      Fraction(0))
        assert cb.bound == counted


def _fraction_overlap_measure(F, a, b) -> Fraction:
    """|E ∩ [a,b]| in Fraction arithmetic, as overlap_measure was first written."""
    a, b = Fraction(a), Fraction(b)
    if not (0 <= a <= b <= 1):
        raise OutOfDomain(f"[{a}, {b}] not inside [0,1]")
    da, db = a.denominator, b.denominator
    coarse = (da & (da - 1) == 0 and db & (db - 1) == 0
              and max(da.bit_length(), db.bit_length()) - 1 <= F.k_exp)
    if a == b:
        return Fraction(0)
    if coarse:
        return F.total_measure * (b - a)
    k = 1 << F.k_exp
    pl = F.piece_length
    i_min, i_max = max(0, _ceil((a - pl) * k)), min(k - 1, _floor(b * k))
    if i_min > i_max:
        return Fraction(0)
    first = Fraction(i_min, k)
    total = min(b, first + pl) - max(a, first)
    if i_min == i_max:
        return max(total, Fraction(0))
    last = Fraction(i_max, k)
    return total + (i_max - i_min - 1) * pl + min(b, last + pl) - max(a, last)


def _fraction_carleson_log_bound(f, a, b) -> tuple[int, Fraction]:
    """(cutoff, bound) of carleson_log_bound in Fraction arithmetic."""
    a, b = Fraction(a), Fraction(b)
    ell = b - a
    if ell <= 0:
        raise DegenerateInterval(f"interval [{a}, {b}] has no length")
    cutoff = 0
    a_cum = 0
    for F in f.factors:
        a_cum += F.a_n
        q = _ceil(Fraction(a_cum) * LOG2E_HI)
        if ell * (1 << q) <= 1:
            cutoff = F.n
        else:
            break
    bound = Fraction(0)
    for F in f.factors:
        if F.n > cutoff:
            bound += F.a_n * _fraction_overlap_measure(F, a, b)
    return cutoff, bound


def _experiment_intervals(seed):
    # The draws of criterion 7 in the logproduct experiment.
    rng = derive_rng(seed, "logproduct-intervals")
    out = []
    for _ in range(1000):
        d = int(rng.integers(1, 40))
        k = int(rng.integers(0, 2**d))
        out.append((Fraction(k, 2**d), Fraction(k + 1, 2**d)))
    return out


def _check_against_fraction_route(f, intervals):
    for a, b in intervals:
        for F in f.factors:
            assert F.overlap_measure(a, b) == _fraction_overlap_measure(F, a, b), (F.n, a, b)
        if a == b:
            with pytest.raises(DegenerateInterval):
                carleson_log_bound(f, a, b)
            continue
        cb = carleson_log_bound(f, a, b)
        assert isinstance(cb.bound, Fraction)
        assert (cb.cutoff, cb.bound) == _fraction_carleson_log_bound(f, a, b), (a, b)


@pytest.mark.parametrize("seed", [20250808, 1, 2, 3])
def test_integer_carleson_matches_fraction_route_on_experiment_intervals(paper, seed):
    _check_against_fraction_route(paper, _experiment_intervals(seed))


@pytest.mark.parametrize("profile,N", [("paper", 3), ("demo", 4)])
def test_integer_carleson_matches_fraction_route_on_rationals(profile, N):
    # Non-dyadic ends take the piece-counting route (paper N = 4 is left
    # out: there its pieces have a 24-million-bit denominator).
    f = build_logproduct(profile, N)
    rng = np.random.default_rng(N)
    ivs = []
    for _ in range(300):
        qs = rng.integers(1, 10**5, size=2).tolist()
        ivs.append(tuple(sorted(Fraction(int(rng.integers(0, q + 1)), q) for q in qs)))
    ivs += [(0, 1), (0, Fraction(1, 3)), (Fraction(2, 3), 1), (Fraction(1, 7), Fraction(1, 7)),
            (0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 1536), Fraction(3, 1536)),
            (Fraction(5, 16), Fraction(5, 16) + Fraction(1, 1536)), (Fraction(11, 32), Fraction(23, 64))]
    _check_against_fraction_route(f, ivs)
    with pytest.raises(OutOfDomain):
        f.factors[-1].overlap_measure(Fraction(1, 2), Fraction(5, 4))
    with pytest.raises(OutOfDomain):
        f.factors[-1].overlap_measure(Fraction(1, 2), Fraction(1, 3))
