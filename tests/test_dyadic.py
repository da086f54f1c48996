import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhsq.dyadic import (
    Cube,
    GoodnessParams,
    ShiftedGrid,
    StoppingForest,
    _leaf_masses,
    _leaf_slice,
    build_stopping,
    carleson_packing,
    classify_good,
    estimate_pi_good,
    martingale_decompose,
)
from nhsq.errors import (
    AccretivityViolated,
    CutoffBelowR,
    DivisionByNearZeroAverage,
    InvalidParams,
)
from nhsq.measures import CantorMeasure, CantorParams, LebesgueInterval
from nhsq.rng import derive_rng

M = 0.4


@pytest.fixture(scope="module")
def grid():
    return ShiftedGrid(0, 8, (0,) * 8)


@pytest.fixture(scope="module")
def lebesgue():
    return LebesgueInterval(0.0, 1.0)


def make_grid(seed: int, scale_range: tuple[int, int]) -> ShiftedGrid:
    """Seeded grid; shift bits are independent uniform bits, one per scale."""
    i_min, i_max = scale_range
    rng = derive_rng(seed, "shifted-grid")
    bits = tuple(int(b) for b in rng.integers(0, 2, size=i_max - i_min))
    return ShiftedGrid(i_min=i_min, i_max=i_max, bits=bits)


def test_make_grid_deterministic():
    g1 = make_grid(42, (0, 10))
    g2 = make_grid(42, (0, 10))
    assert g1.bits == g2.bits
    g3 = make_grid(43, (0, 64))
    assert g3.bits != make_grid(44, (0, 64)).bits  # 2^-64 collision odds


def test_zero_shift_is_standard_grid(grid):
    assert grid.cube_interval(Cube(3, 2)) == (0.25, 0.375)
    assert grid.containing_cube(0.3, 3) == Cube(3, 2)


def test_shift_formula():
    # sigma_i = sum over j > i of 2^-j w_j.
    g = ShiftedGrid(0, 4, (1, 0, 1, 1))
    # scale 1 shift: w_2/4 + w_3/8 + w_4/16 = 0 + 1/8 + 1/16
    a, b = g.cube_interval(Cube(1, 0))
    assert a == pytest.approx(1 / 8 + 1 / 16)
    assert b - a == 0.5


def test_shift_table_matches_the_sum_over_finer_scales():
    for i_min, i_max, seed in ((0, 4, 1), (0, 12, 2), (3, 9, 3), (5, 6, 4)):
        g = make_grid(seed, (i_min, i_max))
        for i in range(i_min - 2, i_max + 3):
            want = sum(g.bit(j) << (g.i_max - j) for j in range(i + 1, g.i_max + 1))
            assert g.shift_units(i) == want
        twin = ShiftedGrid(i_min, i_max, g.bits)
        assert twin == g and hash(twin) == hash(g) and "_shifts" not in repr(g)


def test_nesting_under_shifts():
    g = make_grid(7, (0, 10))
    for i in (2, 5, 8):
        for k in (0, 3):
            c = Cube(i, k)
            for ch in g.children(c):
                assert g.contains(c, ch)
                assert g.parent(ch) == c


def test_whitney_regions_tile():
    # W_R = R x [len/2, len) over all cubes tile the strip; every (y, t)
    # lies in exactly one region.
    g = make_grid(21, (0, 12))
    rng = np.random.default_rng(5)
    for _ in range(300):
        y = rng.uniform(0.1, 0.9)
        t = math.exp(rng.uniform(math.log(2.0**-12), math.log(1.0)))
        hits = []
        for i in range(0, 13):
            ell = 2.0**-i
            if ell / 2 <= t < ell:
                cube = g.containing_cube(y, i)
                a, b = g.cube_interval(cube)
                assert a <= y < b
                hits.append(cube)
        assert len(hits) == 1


def test_goodness_params():
    p = GoodnessParams.from_exponents(M, 1.0)
    assert p.gamma == pytest.approx(1.0 / 2.8)
    assert 0 < p.gamma < 0.5
    assert 2.0 ** (p.r * (1 - p.gamma)) >= 3.0
    assert GoodnessParams.from_exponents(M, 1.0, ensure_positive=True).r >= p.r
    with pytest.raises(InvalidParams):
        GoodnessParams(gamma=0.7, r=3).validate()


def test_classify_endpoint_sharing_is_bad(grid):
    params = GoodnessParams.from_exponents(M, 1.0)
    res = classify_good(grid, Cube(8, 0), params, 8)
    assert res.status == "bad"
    assert res.hit_scale is not None


def test_classify_cutoff_below_r(grid):
    params = GoodnessParams.from_exponents(M, 1.0)
    with pytest.raises(CutoffBelowR):
        classify_good(grid, Cube(8, 10), params, params.r - 1)


def test_classify_good_flag_and_monotone():
    params = GoodnessParams.from_exponents(M, 1.0, ensure_positive=True)
    g = make_grid(3, (0, params.r + 8))
    cube = Cube(params.r + 8, 5)
    res = classify_good(g, cube, params, params.r)
    assert res.beyond_cutoff_unknown or res.status == "bad"
    # Raising the cutoff can only flip good -> bad (badness is a union).
    deeper = classify_good(g, cube, params, params.r + 5)
    if res.status == "bad":
        assert deeper.status == "bad"


def test_goodness_uses_only_coarse_bits():
    params = GoodnessParams.from_exponents(M, 1.0, ensure_positive=True)
    cutoff = params.r + 3
    rng = np.random.default_rng(20)
    for trial in range(100):
        coarse = tuple(int(b) for b in rng.integers(0, 2, size=cutoff))
        fine_a = tuple(int(b) for b in rng.integers(0, 2, size=5))
        fine_b = tuple(int(b) for b in rng.integers(0, 2, size=5))
        cube = Cube(cutoff, int(rng.integers(0, 100)))
        ra = classify_good(ShiftedGrid(0, cutoff + 5, coarse + fine_a), cube, params, cutoff)
        rb = classify_good(ShiftedGrid(0, cutoff + 5, coarse + fine_b), cube, params, cutoff)
        assert ra.status == rb.status


def test_estimate_pi_good():
    est = estimate_pi_good(M, 1.0, 400, seed=3, cutoff=16)
    assert len(est.estimates) == 2
    assert all(0.0 < e < 1.0 for e in est.estimates)
    assert est.spread_in_se <= 3.0
    est2 = estimate_pi_good(M, 1.0, 400, seed=3, cutoff=16)
    assert est.estimates == est2.estimates  # deterministic
    with pytest.raises(InvalidParams):
        estimate_pi_good(M, 1.0, 10, seed=3, cutoff=16)


def test_estimate_pi_good_refuses_cutoff_below_r():
    # As classify_good does, also for cutoffs too small to size a grid; a
    # cutoff of r itself is accepted.
    r = GoodnessParams.from_exponents(M, 1.0, ensure_positive=True).r
    for cutoff in (r - 1, 0, -1):
        with pytest.raises(CutoffBelowR):
            estimate_pi_good(M, 1.0, 100, seed=3, cutoff=cutoff)
    assert len(estimate_pi_good(M, 1.0, 100, seed=3, cutoff=r).estimates) == 2


def _flip_b(grid, n_leaves):
    def b_of(cube):
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


def test_stopping_constant_b_never_stops(grid, lebesgue):
    ones = lambda cube: np.ones(256)
    forest = build_stopping(lebesgue, ones, Cube(0, 0), 0.5, 6, grid)
    assert forest.layers == [[Cube(0, 0)]]
    assert forest.max_packing_fraction() == 0.0


def test_stopping_accretivity_violated(grid, lebesgue):
    # A perfect +-1 split has zero average at the root.
    def bad_b(cube):
        v = np.ones(256)
        v[128:] = -1.0
        return v

    with pytest.raises(AccretivityViolated):
        build_stopping(lebesgue, bad_b, Cube(0, 0), 0.25, 6, grid)


def test_stopping_flip_fixture_hand_computed(grid, lebesgue):
    # b = +1 on [0, 5/16), -1 on [5/16, 1): root average -3/8, and the
    # maximal cube with |avg| < 1/4 is [1/4, 3/8): avg over it is
    # (1/16 - 1/16) / (1/8) = 0 on the half-split... computed by hand:
    # [1/4, 1/2): avg = (1/16 - 3/16)/(1/4) = -1/2 (survives);
    # [1/4, 3/8): avg = (1/16 - 1/16)/(1/8) = 0 < 1/4 (stops).
    forest = build_stopping(lebesgue, _flip_b(grid, 256), Cube(0, 0), 0.25, 8, grid)
    assert Cube(3, 2) in forest.layers[1]
    assert forest.stop_parent[Cube(3, 2)] == Cube(0, 0)
    tau = forest.max_packing_fraction()
    assert 0 < tau < 1


def _recursive_maximal_cubes(grid, masses, b_vec, S, c):
    # The maximal cubes below S with |<b_vec>| < c, children left to right.
    found = []
    for ch in grid.children(S) if S.i < grid.i_max else ():
        sl = _leaf_slice(grid, Cube(0, 0), ch)
        mass = float(masses[sl].sum())
        if mass <= 0.0:
            continue
        if abs(float(np.sum(b_vec[sl] * masses[sl])) / mass) < c:
            found.append(ch)
        else:
            found += _recursive_maximal_cubes(grid, masses, b_vec, ch, c)
    return found


def test_stopping_layers_match_recursive_search(grid, lebesgue):
    mu = CantorMeasure(CantorParams(m=M, C=16.0, depth=8))

    def tilt_b(cube):
        # 1 on the left half of the cube, -0.2 on the right half.
        s, ln = grid.cube_units(cube)
        v = np.ones(256)
        v[s + ln // 2:s + ln] = -0.2
        return v

    for measure, b_family, c in ((lebesgue, _flip_b(grid, 256), 0.25),
                                 (mu, tilt_b, 0.25),
                                 (lebesgue, lambda cube: np.ones(256), 0.5)):
        forest = build_stopping(measure, b_family, Cube(0, 0), c, 8, grid)
        masses = _leaf_masses(measure, grid, Cube(0, 0))
        layers = [[Cube(0, 0)]]
        while True:
            nxt = [q for S in layers[-1]
                   for q in _recursive_maximal_cubes(grid, masses, b_family(S), S, c)]
            if not nxt or len(layers) > 8:
                break
            layers.append(nxt)
        assert forest.layers == layers
        assert np.array_equal(forest.leaf_masses, masses)


def test_leaf_masses_computed_once_per_forest(grid, lebesgue, monkeypatch):
    import nhsq.dyadic as dyadic

    calls = []
    real = dyadic._leaf_masses
    monkeypatch.setattr(dyadic, "_leaf_masses", lambda *a: calls.append(a) or real(*a))
    forest = build_stopping(lebesgue, _flip_b(grid, 256), Cube(0, 0), 0.25, 8, grid)
    carleson_packing(forest, lebesgue, Cube(0, 0))
    martingale_decompose(lebesgue, forest, np.ones(256), depth=8)
    assert len(calls) == 1
    assert not forest.leaf_masses.flags.writeable
    # Another measure gets its own masses, not the forest's.
    other = LebesgueInterval(0.0, 0.5)
    assert carleson_packing(forest, other, Cube(1, 0)) > 0.0
    assert len(calls) == 2


def test_packing_bound(grid, lebesgue):
    forest = build_stopping(lebesgue, _flip_b(grid, 256), Cube(0, 0), 0.25, 8, grid)
    tau = forest.max_packing_fraction()
    for R in (Cube(0, 0), Cube(1, 0), Cube(3, 2)):
        ratio = carleson_packing(forest, lebesgue, R)
        assert ratio <= 1.0 / (1.0 - tau) + 1.0 + 1e-12


def test_packing_synthetic_geometric_forest(grid, lebesgue):
    # Hand-built forest with tau = 1/2 per layer: each layer is the left
    # half of the previous cube; packing sum <= geometric series = 2 plus
    # the top layer.
    layers = [[Cube(0, 0)], [Cube(1, 0)], [Cube(2, 0)], [Cube(3, 0)]]
    forest = StoppingForest(
        grid=grid, root=Cube(0, 0), threshold=0.5, layers=layers,
        stop_parent={}, packing_fraction={c[0]: 0.5 for c in layers[:-1]},
        b_family=lambda cube: np.ones(256),
    )
    ratio = carleson_packing(forest, lebesgue, Cube(0, 0))
    assert ratio == pytest.approx(1 + 0.5 + 0.25 + 0.125)
    assert ratio <= sum(0.5**j for j in range(0, 10)) + 1.0


def test_martingale_reconstruction_and_energy(grid, lebesgue):
    ones = lambda cube: np.ones(256)
    forest = build_stopping(lebesgue, ones, Cube(0, 0), 0.5, 8, grid)
    rng = np.random.default_rng(9)
    f = rng.normal(size=256)
    mc = martingale_decompose(lebesgue, forest, f, depth=8)
    assert np.max(np.abs(mc.reconstruction() - f)) <= 1e-10
    for q in mc.cubes:
        if q != Cube(0, 0):
            assert abs(mc.integral(q)[0]) <= 1e-12
    fsq = float(np.sum(f**2 * mc.leaf_masses))
    # b == 1 differences are orthogonal projections: energy equals ||f||^2.
    assert mc.energy()[0] == pytest.approx(fsq, rel=1e-12)


def test_martingale_b_constant_gives_zero_differences(grid, lebesgue):
    ones = lambda cube: np.ones(256)
    forest = build_stopping(lebesgue, ones, Cube(0, 0), 0.5, 8, grid)
    mc = martingale_decompose(lebesgue, forest, np.ones(256), depth=8)
    # f = b = 1: all normalized averages coincide, every Delta_Q with
    # Q != Q0 vanishes.
    for q in mc.cubes:
        if q != Cube(0, 0):
            assert np.max(np.abs(mc.delta(q))) <= 1e-14
    assert np.max(np.abs(mc.delta(Cube(0, 0)) - 1.0)) <= 1e-14


def test_martingale_flip_forest(grid, lebesgue):
    forest = build_stopping(lebesgue, _flip_b(grid, 256), Cube(0, 0), 0.25, 8, grid)
    rng = np.random.default_rng(10)
    f = rng.normal(size=256)
    mc = martingale_decompose(lebesgue, forest, f, depth=8)
    assert np.max(np.abs(mc.reconstruction() - f)) <= 1e-10
    for q in mc.cubes:
        if q != Cube(0, 0):
            assert abs(mc.integral(q)[0]) <= 1e-12


def test_martingale_near_zero_average_detected(grid, lebesgue):
    # A b family that is accretive at the root but degenerates on a cube the
    # stopping rule ignores (constant threshold too small to trigger).
    def degenerate_b(cube):
        v = np.ones(256)
        v[64:128] = -1.0  # zero average on [1/4, 1/2)
        return v

    forest = build_stopping(lebesgue, degenerate_b, Cube(0, 0), 0.01, 8, grid)
    for f in (np.ones(256), np.ones((3, 256))):
        with pytest.raises(DivisionByNearZeroAverage):
            martingale_decompose(lebesgue, forest, f, depth=8)


def test_martingale_refuses_bad_shapes(grid, lebesgue):
    forest = build_stopping(lebesgue, lambda cube: np.ones(256), Cube(0, 0), 0.5, 8, grid)
    for f in (np.zeros(255), np.zeros((3, 255)), np.zeros((2, 3, 256)),
              np.zeros((0, 256)), np.float64(1.0)):
        with pytest.raises(InvalidParams):
            martingale_decompose(lebesgue, forest, f, depth=8)
    for depth in (0, 9):
        with pytest.raises(InvalidParams):
            martingale_decompose(lebesgue, forest, np.zeros(256), depth=depth)


def test_martingale_on_cantor_measure(grid):
    mu = CantorMeasure(CantorParams(m=M, C=16.0, depth=8))
    ones = lambda cube: np.ones(256)
    forest = build_stopping(mu, ones, Cube(0, 0), 0.5, 8, grid)
    rng = np.random.default_rng(12)
    f = rng.normal(size=256)
    mc = martingale_decompose(mu, forest, f, depth=8)
    rec = mc.reconstruction()[0]
    # Agreement holds mu-almost everywhere: only leaves with mass matter.
    sel = mc.leaf_masses > 0
    assert np.max(np.abs((rec - f)[sel])) <= 1e-10


def _reference_decompose(measure, forest, f, depth, near_zero=1e-9):
    """The one-vector recursive decomposition as first written; returns the
    per-cube full-width deltas in its insertion order and the leaf masses."""
    grid = forest.grid
    root = forest.root
    masses = _leaf_masses(measure, grid, root)
    stopping = forest.all_stopping()
    b_family = forest.b_family
    f = np.asarray(f, dtype=float)

    def avg(vec, cube):
        sl = _leaf_slice(grid, root, cube)
        mass = float(masses[sl].sum())
        if mass <= 0.0:
            return 0.0
        return float(np.sum(vec[sl] * masses[sl])) / mass

    norm_cache = {}

    def projection(cube, anc):
        if cube not in norm_cache:
            sl = _leaf_slice(grid, root, cube)
            out = np.zeros_like(f)
            if float(masses[sl].sum()) > 0.0:
                b_vec = b_family(anc)
                bavg = avg(b_vec, cube)
                if abs(bavg) < near_zero:
                    raise DivisionByNearZeroAverage(f"<b_anc> = {bavg:.2e} on {cube}")
                out[sl] = (avg(f, cube) / bavg) * b_vec[sl]
            norm_cache[cube] = out
        return norm_cache[cube]

    deltas = {}

    def rec(cube, anc):
        if cube in stopping:
            anc = cube
        if cube.i - root.i >= depth:
            return
        own = projection(cube, anc)
        delta = -own
        for ch in grid.children(cube):
            ch_anc = ch if ch in stopping else anc
            delta = delta + projection(ch, ch_anc)
            rec(ch, anc)
        deltas[cube] = delta

    rec(root, root)
    deltas[root] = deltas[root] + projection(root, root)
    return deltas, masses


def _martingale_forests():
    grid = ShiftedGrid(0, 8, (0,) * 8)
    lebesgue = LebesgueInterval(0.0, 1.0)
    mu = CantorMeasure(CantorParams(m=M, C=16.0, depth=8))
    ones = lambda cube: np.ones(256)
    root = Cube(0, 0)
    return {
        "b1": (lebesgue, build_stopping(lebesgue, ones, root, 0.5, 8, grid)),
        "flip": (lebesgue, build_stopping(lebesgue, _flip_b(grid, 256), root, 0.25, 8, grid)),
        # Zero-mass leaves and cubes: their projections are zero, +0.0 also
        # where b is negative.
        "cantor": (mu, build_stopping(mu, ones, root, 0.5, 8, grid)),
        "cantor-neg": (mu, build_stopping(mu, lambda cube: -np.ones(256), root, 0.5, 8, grid)),
    }


@pytest.mark.parametrize("name", ["b1", "flip", "cantor", "cantor-neg"])
def test_martingale_batch_matches_per_vector_reference(name):
    measure, forest = _martingale_forests()[name]
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(20, 256))
    rows[1] = 0.0  # zero averages everywhere: signed zeros in every term
    rows[2] = 0.0
    rows[2, 37] = 16.0  # one leaf: averages vanish off its ancestors
    refs = [_reference_decompose(measure, forest, row, 8) for row in rows]
    for f in (rows[0], rows[:1], rows[:3], rows):
        mc = martingale_decompose(measure, forest, f, depth=8)
        k = 1 if f.ndim == 1 else f.shape[0]
        assert mc.reconstruction().shape == (k, 256)
        for r, (deltas, masses) in enumerate(refs[:k]):
            assert repr(mc.leaf_masses.tolist()) == repr(masses.tolist())
            assert mc.cubes == list(deltas)
            for q, v in deltas.items():
                assert repr(mc.delta(q)[r].tolist()) == repr(v.tolist())
                integral = float(np.sum(v * masses))
                assert repr(float(mc.integral(q)[r])) == repr(integral)
            recon = np.zeros_like(masses)
            for v in deltas.values():
                recon = recon + v
            assert repr(mc.reconstruction()[r].tolist()) == repr(recon.tolist())
            energy = float(sum(np.sum(v**2 * masses) for v in deltas.values()))
            assert repr(float(mc.energy()[r])) == repr(energy)


def test_martingale_builds_no_reference_cycles(grid, lebesgue):
    forest = build_stopping(lebesgue, _flip_b(grid, 256), Cube(0, 0), 0.25, 8, grid)
    f = np.random.default_rng(13).normal(size=(4, 256))
    gc.collect()
    gc.disable()
    try:
        mc = martingale_decompose(lebesgue, forest, f, depth=8)
        mc.energy()
        del mc
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("b_kind", ["ones", "flip"])
def test_martingale_exact_energy_norm(b_kind, lebesgue):
    # Delta: f -> (Delta_Q f)_Q is linear, so the sup of sum ||Delta_Q f||^2
    # over ||f|| = 1 in L^2(mu) is its largest squared singular value.  The
    # L^2(mu)-orthonormal leaf vectors e_j / sqrt(mu_j) are decomposed in one
    # batch; a generation's cubes are disjoint, so each level array is one
    # block of the matrix.
    n = 64
    grid6 = ShiftedGrid(0, 6, (0,) * 6)
    b_family = (lambda cube: np.ones(n)) if b_kind == "ones" else _flip_b(grid6, n)
    c = 0.5 if b_kind == "ones" else 0.25
    forest = build_stopping(lebesgue, b_family, Cube(0, 0), c, 6, grid6)
    masses = _leaf_masses(lebesgue, grid6, Cube(0, 0))
    mc = martingale_decompose(lebesgue, forest, np.diag(masses**-0.5), depth=6)
    blocks = np.concatenate([level * np.sqrt(masses) for level in mc.levels], axis=1)
    sigma2 = float(np.linalg.eigvalsh(blocks @ blocks.T)[-1])
    rows = np.random.default_rng(21).normal(size=(20, n))
    sampled = martingale_decompose(lebesgue, forest, rows, depth=6).energy() / np.sum(
        rows**2 * masses, axis=1
    )
    assert np.all(sampled <= sigma2 * (1.0 + 1e-12))
    if b_kind == "ones":
        # b = 1: the differences are orthogonal projections.
        assert sigma2 == pytest.approx(1.0, abs=1e-12)
    else:
        assert len(forest.layers) > 1


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_whitney_cover_property(seed):
    g = make_grid(seed, (0, 10))
    rng = np.random.default_rng(seed)
    y = float(rng.uniform(0.2, 0.8))
    t = float(np.exp(rng.uniform(np.log(2.0**-10), 0.0)))
    count = 0
    for i in range(0, 11):
        ell = 2.0**-i
        if ell / 2 <= t < ell:
            cube = g.containing_cube(y, i)
            a, b = g.cube_interval(cube)
            if a <= y < b:
                count += 1
    assert count == 1
