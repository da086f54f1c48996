import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhsq import measures
from nhsq.errors import GeometryInfeasible, InvalidParams, ReversedInterval
from nhsq.measures import (
    CantorMeasure,
    CantorParams,
    GrowthEstimate,
    LebesgueInterval,
    growth_constant,
)
from nhsq.rng import derive_rng
from nhsq.sqfn import LeafFunction

M, C = 0.4, 16.0


@pytest.fixture(scope="module")
def measure():
    return CantorMeasure(CantorParams(m=M, C=C, depth=8))


def test_build_single_node_depth_zero():
    mu = CantorMeasure(CantorParams(m=M, C=C, depth=0))
    assert mu.interval_mass(0.0, 1.0) == 1.0
    assert mu.depth == 0


def test_generation_one_masses_and_lengths(measure):
    geo = measure.geometry[1]
    assert geo.child_masses[1] == pytest.approx(1 / 16, abs=0)
    assert geo.child_masses[2] == pytest.approx(1 / 16, abs=0)
    # l = mu^(1/m) with mu = 1/16 and 1/m = 2.5 is an exact power of two
    assert geo.child_lengths[1] == pytest.approx(2.0**-10, rel=1e-15)
    assert geo.child_masses[0] == pytest.approx(7 / 16, rel=1e-15)
    assert geo.L == pytest.approx((7 / 16) ** 2.5, rel=1e-14)


def test_generation_one_middle_gap(measure):
    geo = measure.geometry[1]
    expected = 1.0 - 4.0 * (7 / 16) ** 2.5 - 2.0 * 2.0**-10
    assert geo.middle_gap == pytest.approx(expected, rel=1e-12)
    assert geo.middle_gap > 0


def test_outer_child_mass_rule(measure):
    for gen in range(1, measure.depth + 1):
        geo = measure.geometry[gen]
        assert geo.child_masses[0] == pytest.approx(
            (1 - 2 / (C * gen)) / 2, rel=1e-14
        )
        assert sum(geo.child_masses) == pytest.approx(1.0, abs=1e-15)


def test_child_placement(measure):
    geo = measure.geometry[1]
    assert geo.child_offsets[0] == 0.0
    assert geo.child_offsets[3] + geo.child_lengths[3] == pytest.approx(1.0, abs=1e-15)
    assert geo.child_offsets[1] == pytest.approx(2 * geo.L, rel=1e-15)
    assert geo.child_offsets[2] + geo.child_lengths[2] == pytest.approx(
        1.0 - 2 * geo.L, rel=1e-15
    )


def test_invalid_params():
    with pytest.raises(InvalidParams):
        CantorMeasure(CantorParams(m=0.6, C=16.0, depth=2))
    with pytest.raises(InvalidParams):
        CantorMeasure(CantorParams(m=0.4, C=3.0, depth=2))
    for bad_C in (math.nan, math.inf):
        with pytest.raises(InvalidParams):
            CantorMeasure(CantorParams(m=0.4, C=bad_C, depth=2))


def test_geometry_infeasible():
    # m < 1/2 guarantees feasibility, so the guard can only fire outside the
    # validated domain; exercise it through the raw splitter.
    from nhsq.measures import _split_geometry

    with pytest.raises(GeometryInfeasible):
        _split_geometry(1, 0.9, 4.0)
    # And every valid generation is feasible.
    mu = CantorMeasure(CantorParams(m=0.49, C=4.0, depth=20))
    assert all(mu.geometry[k].middle_gap > 0 for k in mu.geometry)


def test_interval_mass_whole_and_gap(measure):
    assert measure.interval_mass(0.0, 1.0) == 1.0
    # generation-1 layout puts the central gap around [0.254, 0.746]
    assert measure.interval_mass(0.49, 0.51) == 0.0
    geo = measure.geometry[1]
    assert measure.interval_mass(0.0, geo.L) == pytest.approx(7 / 16, rel=1e-14)


def test_interval_mass_errors(measure):
    with pytest.raises(ReversedInterval):
        measure.interval_mass(0.5, 0.4)


def _mass_rec(self, k: int, off: float, length: float, mass: float, a: float, b: float) -> float:
    """Exact mass of [a, b] inside the generation-k node (off, length, mass):
    the depth-first recursion, children added in digit order."""
    if a <= off and off + length <= b:
        return mass
    if b <= off or off + length <= a:
        return 0.0
    if k == self.depth:
        return mass * (min(b, off + length) - max(a, off)) / length
    geo = self.geometry[k + 1]
    total = 0.0
    for j in range(4):
        coff = off + geo.child_offsets[j] * length
        clen = geo.child_lengths[j] * length
        if b <= coff or coff + clen <= a:
            continue
        total += _mass_rec(self, k + 1, coff, clen, mass * geo.child_masses[j], a, b)
    return total


def _recursive_mass(measure, a, b):
    """mu([a, b]) by _mass_rec from the root, ends clipped to [0, 1]."""
    a, b = max(a, 0.0), min(b, 1.0)
    return _mass_rec(measure, 0, 0.0, 1.0, 1.0, a, b) if b > a else 0.0


def test_interval_masses_match_interval_mass(measure):
    # The batched walk sums child masses in _mass_rec's digit order, so each
    # value keeps its bits; ends outside [0,1] are clipped, empty spans are 0.
    rng = np.random.default_rng(4)
    ab = np.sort(rng.random((500, 2)) * 1.4 - 0.2, axis=1)
    s, l, _ = measure.leaf_table(3)
    ab = np.vstack([ab, np.c_[s, s + l], [[0.0, 1.0], [0.3, 0.3], [-1.0, -0.5], [1.2, 2.0]]])
    # Two rare intervals (about one in 10**5 random ones) whose mass changes
    # in the last bit when the children are added in reverse digit order.
    ab = np.vstack([ab, [[0.2533530261382382, 0.3276677275667126],
                         [0.9114895683268422, 0.9515527594111092]]])
    got = measure.interval_masses(ab[:, 0], ab[:, 1])
    want = [_recursive_mass(measure, a, b) for a, b in ab.tolist()]
    assert repr(got.tolist()) == repr(want)
    assert repr([measure.interval_mass(a, b) for a, b in ab.tolist()]) == repr(want)
    with pytest.raises(ReversedInterval):
        measure.interval_masses([0.1, 0.5], [0.2, 0.4])
    with pytest.raises(ReversedInterval):
        measure.interval_mass(0.5, 0.4)


@pytest.mark.parametrize("depth", [7, 10])
def test_cdf_masses_within_rounding_of_the_walk(depth):
    # interval_mass_batch interpolates the leaf CDF; it is not exact.  Against
    # the walk on uniform and scale-stratified intervals (the two kinds
    # growth_constant draws) it differs in the last bits of many values, by
    # at most 4**depth ulps of 1.
    mu = CantorMeasure(CantorParams(m=M, C=C, depth=depth))
    rng = np.random.default_rng(depth)
    a, b = np.sort(rng.uniform(-0.05, 1.05, (2, 50_000)), axis=0)
    center, half = rng.uniform(0.0, 1.0, 50_000), np.exp(rng.uniform(np.log(1e-12), 0.0, 50_000)) / 2
    a, b = np.concatenate([a, center - half]), np.concatenate([b, center + half])
    cdf, walk = mu.interval_mass_batch(a, b), mu.interval_masses(a, b)
    assert (cdf != walk).any()
    assert np.abs(cdf - walk).max() <= 4**depth * 2.0**-52


@pytest.mark.parametrize("k", [1, 3, 8])
def test_interval_masses_from_start_nodes(measure, k):
    # Spans drawn inside, across and outside generation-k nodes, clipped to
    # their node: root walks match _mass_rec started at the node, bit for
    # bit, since the walk reaches the node along its path and adds nothing
    # from the neighbours.
    rng = np.random.default_rng(k)
    s, l, w = measure.leaf_table(k)
    node = rng.integers(len(s), size=300)
    off, length, mass = s[node], l[node], w[node]
    a = off + length * (rng.random(300) * 1.4 - 0.2)
    b = a + length * rng.random(300) * 1.2
    ja = np.maximum(a, off)
    jb = np.maximum(np.minimum(b, off + length), ja)
    got = measure.interval_masses(ja, jb)
    want = [_mass_rec(measure, k, *v) if v[3] < v[4] else 0.0 for v in
            zip(off.tolist(), length.tolist(), mass.tolist(), ja.tolist(), jb.tolist())]
    assert repr(got.tolist()) == repr(want)
    assert got.max() > 0.0 and (got == 0.0).any()


@pytest.mark.parametrize("mu", [CantorMeasure(CantorParams(m=M, C=C, depth=8)),
                                LebesgueInterval(0, 1)], ids=["cantor", "lebesgue"])
def test_nan_interval_ends_refused(mu):
    # NaN fails every comparison, so it would pass the order check and clip
    # to nothing; both ends and both forms refuse it.
    for a, b in ((math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(InvalidParams, match="NaN"):
            mu.interval_mass(a, b)
        with pytest.raises(InvalidParams, match="NaN"):
            mu.interval_masses([0.1, a], [0.2, b])
    # Infinite ends still clip to [0, 1].
    assert mu.interval_mass(-math.inf, math.inf) == 1.0
    assert mu.interval_masses([-math.inf], [math.inf]).tolist() == [1.0]


def test_strip_ball_bound(measure):
    # For x the center of a generation-n middle child and t in the band,
    # the ball only captures the two middle children.
    for g in range(0, 3):
        starts, lens, masses = measure.leaf_table(g)
        geo = measure.geometry[g + 1]
        off, length, mass = starts[0], lens[0], masses[0]
        x = off + (geo.child_offsets[1] + geo.child_lengths[1] / 2) * length
        for t in (geo.L * length / 2, geo.L * length):
            ball = measure.interval_mass(x - t, x + t)
            assert ball <= 2 * mass / (C * (g + 1)) + 1e-15


def test_lebesgue_ball():
    lb = LebesgueInterval(0.0, 1.0)
    assert lb.interval_mass(0.5 - 0.1, 0.5 + 0.1) == pytest.approx(0.2, rel=1e-12)
    assert lb.interval_mass(-1.0, 2.0) == 1.0


@given(c=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_additivity(c):
    mu = CantorMeasure(CantorParams(m=M, C=C, depth=6))
    left = mu.interval_mass(0.0, c)
    right = mu.interval_mass(c, 1.0)
    assert left + right == pytest.approx(1.0, rel=1e-12)


@given(
    a=st.floats(min_value=-0.1, max_value=1.1),
    b=st.floats(min_value=-0.1, max_value=1.1),
    c=st.floats(min_value=-0.1, max_value=1.1),
)
@settings(max_examples=200, deadline=None)
def test_additivity_general(a, b, c):
    mu = CantorMeasure(CantorParams(m=M, C=C, depth=5))
    lo, mid, hi = sorted((a, b, c))
    total = mu.interval_mass(lo, hi)
    split = mu.interval_mass(lo, mid) + mu.interval_mass(mid, hi)
    assert split == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_mass_length_law(measure):
    for d in (1, 2, 3, 4):
        starts, lens, masses = measure.leaf_table(d)
        assert np.max(np.abs(masses - lens**M) / masses) < 1e-12


def test_separation_gaps(measure):
    # Outer gaps have width exactly L; the middle gap is positive.
    for gen in range(1, measure.depth + 1):
        geo = measure.geometry[gen]
        gap01 = geo.child_offsets[1] - geo.child_lengths[0]
        gap23 = geo.child_offsets[3] - (geo.child_offsets[2] + geo.child_lengths[2])
        assert gap01 == pytest.approx(geo.L, rel=1e-12)
        assert gap23 == pytest.approx(geo.L, rel=1e-12)
        assert geo.middle_gap > 0


def test_template_basic():
    tpl = CantorMeasure(CantorParams(m=M, C=C, depth=3, start_gen=5))
    assert tpl.geometry[1].child_masses[1] == pytest.approx(1 / (C * 6), rel=1e-14)
    root = CantorMeasure(CantorParams(m=M, C=C, depth=3, start_gen=0))
    full = CantorMeasure(CantorParams(m=M, C=C, depth=3))
    assert root.geometry[1].child_masses == full.geometry[1].child_masses


def test_template_matches_full_tree_descent(measure):
    # Normalized masses of descendants inside any generation-g node agree
    # with the depth-3 template of that generation, exactly.
    for g in (1, 2, 3):
        tpl = measure.template(g, depth=3)
        t_starts, t_lens, t_masses = tpl.leaf_table(3)
        starts, lens, masses = measure.leaf_table(g)
        for idx in (0, (4**g) // 2, 4**g - 1):
            off, length, mass = starts[idx], lens[idx], masses[idx]
            sub_starts, sub_lens, sub_masses = measure.leaf_table(g + 3)
            block = slice(idx * 64, (idx + 1) * 64)
            rel_mass = sub_masses[block] / mass
            assert np.allclose(rel_mass, t_masses, rtol=1e-12)
            rel_off = (sub_starts[block] - off) / length
            assert np.allclose(rel_off, t_starts, rtol=1e-9, atol=1e-12)


def test_descend_nodes_match_leaf_table(measure):
    # Offsets, lengths, masses and base-4 indices of the nodes descend
    # reaches equal leaf_table's entries bit for bit, and a point is alive
    # exactly when the one-point walk finds a node for it.
    rng = np.random.default_rng(5)
    starts, lens, _ = measure.leaf_table(4)
    deep_starts, deep_lens, _ = measure.leaf_table(8)
    pick = rng.choice(4**8, size=200, replace=False)
    edges = np.concatenate([starts, starts + lens, deep_starts[pick],
                            deep_starts[pick] + deep_lens[pick]])
    pts = np.concatenate([
        edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
        (starts[1:] + starts[:-1] + lens[:-1]) / 2.0,  # gap midpoints
        rng.uniform(-0.1, 1.1, 1000), [-1.0, 0.0, 1.0, 2.0],
    ])
    gens = []
    for g, off, length, mass, idx, alive in measure.descend(pts, 8):
        gens.append(g)
        walk = LeafFunction(measure, g, np.zeros(4**g)).leaf_index
        want = [walk(x) for x in pts.tolist()]
        assert [int(i) if a else None for i, a in zip(idx, alive)] == want
        t_starts, t_lens, t_masses = measure.leaf_table(g)
        k = idx[alive]
        assert np.array_equal(off[alive], t_starts[k])
        assert np.array_equal(length[alive], t_lens[k])
        assert np.array_equal(mass[alive], t_masses[k])
    assert gens == list(range(9))
    assert list(measure.descend(pts, -1)) == []


def test_growth_constants():
    mu = CantorMeasure(CantorParams(m=M, C=C, depth=7))
    est = growth_constant(mu, M, 10_000, seed=123)
    assert est.max_ratio <= 4.0
    est2 = growth_constant(mu, M, 10_000, seed=123)
    assert est.max_ratio == est2.max_ratio  # deterministic for fixed seed
    # Construction intervals achieve ratio exactly 1 (tree-descent masses).
    starts, lens, _ = mu.leaf_table(3)
    for a, ln in zip(starts, lens):
        ratio = mu.interval_mass(a, a + ln) / ln**M
        assert ratio == pytest.approx(1.0, rel=1e-12)
    leb = growth_constant(LebesgueInterval(0, 1), 1.0, 1000, seed=5)
    assert leb.max_ratio <= 1.0 + 1e-12


def _growth_one_shot(measure, m, n_samples, seed):
    # growth_constant with every interval built at once: the oracle of the
    # blocked sweep.
    rng = derive_rng(seed, "growth-constant")
    starts_list, ends_list = [], []
    if isinstance(measure, CantorMeasure):
        for g in range(0, min(measure.depth, 8) + 1):
            s, ln, _ = measure.leaf_table(g)
            starts_list.append(s)
            ends_list.append(s + ln)
    n_unif = n_samples // 2
    n_scale = n_samples - n_unif
    a = rng.uniform(-0.05, 1.05, size=n_unif)
    b = rng.uniform(-0.05, 1.05, size=n_unif)
    starts_list.append(np.minimum(a, b))
    ends_list.append(np.maximum(a, b))
    lengths = np.exp(rng.uniform(np.log(1e-12), np.log(1.0), size=n_scale))
    centers = rng.uniform(0.0, 1.0, size=n_scale)
    starts_list.append(centers - lengths / 2)
    ends_list.append(centers + lengths / 2)
    starts = np.concatenate(starts_list)
    ends = np.concatenate(ends_list)
    lens = ends - starts
    keep = lens > 0.0
    starts, ends, lens = starts[keep], ends[keep], lens[keep]
    if isinstance(measure, CantorMeasure) and measure.depth <= 10:
        masses = measure.interval_mass_batch(starts, ends)
    else:
        masses = measure.interval_masses(starts, ends)
    ratios = masses / lens**m
    i = int(np.argmax(ratios))
    return GrowthEstimate(float(ratios[i]), (float(starts[i]), float(ends[i])), len(ratios))


class _TiedLebesgue(LebesgueInterval):
    """Ratio len(J)/len(J) = 1 exactly on every J starting right of 1/2 and
    exactly 1/2 elsewhere (at m = 1), so the sup is attained many times."""

    def interval_masses(self, a, b):
        return np.where(a > 0.5, 1.0, 0.5) * (b - a)


def _same_estimate(got, want):
    assert repr(got.max_ratio) == repr(want.max_ratio)
    assert tuple(map(repr, got.witness)) == tuple(map(repr, want.witness))
    assert got.n_intervals == want.n_intervals


@pytest.mark.parametrize("case", ["cantor", "lebesgue", "tied"])
def test_growth_blocks_match_one_shot(case, monkeypatch):
    # Blocks of 1, 7 and more than the whole sample give the one-shot answer
    # bit for bit; with ties the first interval in sample order wins.
    measure, m, n = {
        "cantor": (CantorMeasure(CantorParams(m=M, C=C, depth=7)), M, 2_000),
        "lebesgue": (LebesgueInterval(0, 1), 1.0, 2_000),
        "tied": (_TiedLebesgue(0, 1), 1.0, 2_000),
    }[case]
    want = _growth_one_shot(measure, m, n, 7)
    for block in (1, 7, want.n_intervals + 1):
        monkeypatch.setattr(measures, "GROWTH_BLOCK", block)
        _same_estimate(growth_constant(measure, m, n, 7), want)
    if case == "tied":
        assert want.max_ratio == 1.0 and want.witness[0] > 0.5


def test_growth_default_blocks_match_one_shot():
    for seed in (1, 20250808):
        for m in (M, 0.3):
            mu = CantorMeasure(CantorParams(m=m, C=C, depth=7))
            _same_estimate(growth_constant(mu, m, 100_000, seed), _growth_one_shot(mu, m, 100_000, seed))
        leb = LebesgueInterval(0, 1)
        _same_estimate(growth_constant(leb, 1.0, 10_000, seed), _growth_one_shot(leb, 1.0, 10_000, seed))


def test_growth_blocks_bound_the_working_set(traced_peak):
    # The random draws and the cached leaf and CDF tables stay; the 121,845
    # intervals and their temporaries no longer exist all at once.
    def fresh():
        return CantorMeasure(CantorParams(m=M, C=C, depth=7))

    growth_constant(fresh(), M, 1_000, 1)  # first-call imports stay untraced
    one_shot = traced_peak(lambda: _growth_one_shot(fresh(), M, 100_000, 1))
    blocked = traced_peak(lambda: growth_constant(fresh(), M, 100_000, 1))
    assert blocked <= one_shot / 3
