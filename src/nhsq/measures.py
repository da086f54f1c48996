"""Cantor-type measure with exact mass queries, plus the Lebesgue measure.

The measure lives on [0,1] and is built by a four-child subdivision rule:
a node at generation n-1 with mass mu splits into children with masses

    [q, mu/(C*n), mu/(C*n), q],     q = mu * (1 - 2/(C*n)) / 2,

and every node satisfies mass = length**m exactly, which forces the child
lengths.  The outer children share both endpoints with the parent, the two
middle children sit at distance 2L from the parent ends (L = outer-child
length), so the outer gaps have width exactly L.

Because the child mass *ratios* and relative lengths depend only on the
splitting index n, the geometry cache is O(depth) instead of O(4**depth),
and the normalized measure inside any generation-n node is the same
"template" measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeometryInfeasible, InvalidParams, ReversedInterval
from .rng import derive_rng

__all__ = [
    "CantorParams",
    "NodeGeometry",
    "CantorMeasure",
    "LebesgueInterval",
    "GrowthEstimate",
    "growth_constant",
]


@dataclass(frozen=True)
class CantorParams:
    """Parameters of the subdivision rule.

    m must lie in (0, 1/2) and C must be at least 4.  start_gen selects the
    template: the measure's local generation-k children split with index
    start_gen + k, so start_gen = 0 is the full measure rooted at [0,1] and
    start_gen = n is the normalized measure inside a generation-n node.
    """

    m: float = 0.4
    C: float = 16.0
    depth: int = 8
    start_gen: int = 0

    def validate(self) -> None:
        if not (0.0 < self.m < 0.5):
            raise InvalidParams(f"m must be in (0, 1/2), got {self.m}")
        # Written so that NaN fails the test too.
        if not (4.0 <= self.C < math.inf):
            raise InvalidParams(f"C must be finite and >= 4, got {self.C}")
        if self.depth < 0:
            raise InvalidParams(f"depth must be >= 0, got {self.depth}")
        if self.start_gen < 0:
            raise InvalidParams(f"start_gen must be >= 0, got {self.start_gen}")


@dataclass(frozen=True)
class NodeGeometry:
    """Normalized child layout of one subdivision (parent scaled to [0,1], mass 1).

    All nodes split with the same index n >= 1 of the rule share this layout
    up to the parent's affine map.
    """

    child_offsets: tuple[float, float, float, float]
    child_lengths: tuple[float, float, float, float]
    child_masses: tuple[float, float, float, float]
    L: float

    @property
    def middle_gap(self) -> float:
        return self.child_offsets[2] - (self.child_offsets[1] + self.child_lengths[1])

    @property
    def strip_mass(self) -> float:
        """Mass fraction of the two middle children."""
        return self.child_masses[1] + self.child_masses[2]

    def split(self, off, length, mass) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets, lengths, masses) of the four children of every node
        (off[i], length[i], mass[i]), node by node in digit order: the base-4
        path order of leaf_table."""
        ln = np.asarray(length, dtype=float)[:, None]
        off = np.asarray(off, dtype=float)[:, None] + np.multiply(self.child_offsets, ln)
        mass = np.multiply(np.asarray(mass, dtype=float)[:, None], self.child_masses)
        return off.ravel(), np.multiply(self.child_lengths, ln).ravel(), mass.ravel()


def _split_geometry(n: int, m: float, C: float) -> NodeGeometry:
    # Renormalize so child masses sum to the parent mass exactly in floats.
    q_mid = 1.0 / (C * n)
    q_out = 0.5 * (1.0 - 2.0 * q_mid)
    if q_out <= 0.0:
        raise GeometryInfeasible(f"outer-child mass non-positive at index {n}")
    masses = np.array([q_out, q_mid, q_mid, q_out], dtype=float)
    masses /= masses.sum()
    lengths = masses ** (1.0 / m)
    L = float(lengths[0])
    offsets = (0.0, 2.0 * L, 1.0 - 2.0 * L - float(lengths[2]), 1.0 - L)
    geo = NodeGeometry(
        child_offsets=offsets,
        child_lengths=tuple(float(v) for v in lengths),
        child_masses=tuple(float(v) for v in masses),
        L=L,
    )
    if geo.middle_gap < 0.0:
        raise GeometryInfeasible(
            f"negative middle gap at index {n}: m={m}, C={C} violate the separation rule"
        )
    return geo


def _checked_ends(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float arrays; a NaN end or a pair with b < a is refused."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a) | np.isnan(b)
    if nan.any():
        raise InvalidParams(f"interval ends must not be NaN, got [{a[nan][0]}, {b[nan][0]}]")
    if np.any(b < a):
        raise ReversedInterval(f"need a <= b, got [{a[b < a][0]}, {b[b < a][0]}]")
    return a, b


class CantorMeasure:
    """Truncated self-similar measure on [0,1] with exact interval masses.

    Below the truncation depth, the mass of each leaf is spread uniformly
    over the leaf interval; this keeps interval_mass additive and
    total-mass exact at every query resolution.
    """

    def __init__(self, params: CantorParams):
        params.validate()
        self.params = params
        # geometry[k]: the child layout when a local generation-(k - 1) node splits.
        self.geometry: dict[int, NodeGeometry] = {}
        for k in range(1, params.depth + 1):
            self.geometry[k] = _split_geometry(params.start_gen + k, params.m, params.C)
        self._leaf_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._cdf: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- geometry -----------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.params.depth

    @property
    def m(self) -> float:
        return self.params.m

    def template(self, n: int, depth: Optional[int] = None) -> "CantorMeasure":
        """Normalized measure inside a generation-(start_gen + n) node."""
        d = self.depth if depth is None else depth
        return CantorMeasure(
            CantorParams(self.m, self.params.C, d, self.params.start_gen + n)
        )

    def descend(self, x, max_gen: int):
        """Walk every point of x down its node chain, one generation at a time.

        Yields (g, off, length, mass, idx, alive) for g = 0 .. min(max_gen,
        depth), nothing when max_gen < 0: arrays over x of the offset, length
        and mass of the generation-g node that holds each point, its base-4
        path idx (the leaf_table order; int64 up to generation 31, beyond
        that Python ints in an object array, which never wrap), and whether
        the point is still on the tree.  A point takes the first child with
        c_off <= x <= c_off + c_len, the rule of the one-point walks, and is
        dead from the first generation where no child holds it (a gap); the
        values of dead points are meaningless.  A mass is the parent mass
        times the child fraction, as in leaf_table, so the two agree bit for
        bit.
        """
        x = np.asarray(x, dtype=float)
        off, length, mass = np.zeros(x.shape), np.ones(x.shape), np.ones(x.shape)
        idx = np.zeros(x.shape, dtype=np.int64 if min(max_gen, self.depth) <= 31 else object)
        alive = np.ones(x.shape, dtype=bool)
        for g in range(min(max_gen, self.depth) + 1):
            if g:
                geo = self.geometry[g]
                found = np.zeros(x.shape, dtype=bool)
                n_off, n_len, digit = off.copy(), length.copy(), np.zeros(x.shape, dtype=np.int64)
                for j in range(4):
                    coff = off + geo.child_offsets[j] * length
                    clen = geo.child_lengths[j] * length
                    hit = ~found & (coff <= x) & (x <= coff + clen)
                    n_off[hit], n_len[hit], digit[hit] = coff[hit], clen[hit], j
                    found |= hit
                off, length, alive = n_off, n_len, alive & found
                mass, idx = mass * np.asarray(geo.child_masses)[digit], idx * 4 + digit
            yield g, off, length, mass, idx, alive

    # -- mass queries --------------------------------------------------------

    def interval_mass(self, a: float, b: float) -> float:
        """Exact mu([a,b]) of the truncated measure (leaf mass spread uniformly)."""
        return float(self.interval_masses([a], [b])[0])

    def interval_masses(self, a, b) -> np.ndarray:
        """Exact mu([a[i], b[i]]) of every pair, all pairs walking the tree at once.

        Each generation is one array step over the (interval, node) pairs
        that meet: a node inside its interval gives its mass, a leaf its mass
        times the covered fraction, and any other node its four children.
        The child masses are then summed back up one generation at a time,
        digit 0 first, so every value keeps the bits of a depth-first
        recursion from the root that adds the children in digit order.
        """
        a, b = _checked_ends(a, b)
        a, b = np.maximum(a, 0.0), np.minimum(b, 1.0)
        i = parent = np.flatnonzero(b > a)
        off, length, mass = np.zeros(i.size), np.ones(i.size), np.ones(i.size)
        levels = []  # per generation: (value, index of the parent node)
        for k in range(self.depth + 1):
            meet = (b[i] > off) & (off + length > a[i])
            i, off, length, mass, parent = (v[meet] for v in (i, off, length, mass, parent))
            full = (a[i] <= off) & (off + length <= b[i])
            value = np.where(full, mass, 0.0)
            levels.append((value, parent))
            o = np.flatnonzero(~full)
            if k == self.depth or not o.size:
                hi, lo = np.minimum(b[i[o]], off[o] + length[o]), np.maximum(a[i[o]], off[o])
                value[o] = mass[o] * (hi - lo) / length[o]
                break
            parent = np.repeat(o, 4)
            i, off, length, mass = i[parent], *self.geometry[k + 1].split(off[o], length[o], mass[o])
        for (value, _), (child, parent) in zip(levels[-2::-1], levels[:0:-1]):
            np.add.at(value, parent, child)  # in index order: each parent's digits in turn
        out = np.zeros(a.shape)
        out[levels[0][1]] = levels[0][0]
        return out

    # -- leaf decompositions --------------------------------------------------

    def leaf_table(self, max_depth: Optional[int] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, lengths, masses) of all leaves at min(depth, max_depth)."""
        d = self.depth if max_depth is None else min(max_depth, self.depth)
        if d > 10:
            raise InvalidParams(
                f"leaf enumeration at depth {d} would materialize 4**{d} leaves; "
                "pass an explicit max_depth <= 10"
            )
        if d not in self._leaf_cache:
            table = (np.zeros(1), np.ones(1), np.ones(1))
            for k in range(1, d + 1):
                table = self.geometry[k].split(*table)
            self._leaf_cache[d] = table
        return self._leaf_cache[d]

    def interval_mass_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized interval masses by interpolating the piecewise-linear CDF
        of the full-depth leaves (depth <= 10, as leaf_table).  Not exact:
        the CDF's cumulative sums and the rounded leaf ends move many values
        in their last bits (within 4**depth ulps of 1 on the intervals that
        growth_constant draws, as the tests check); interval_masses is the
        exact walk."""
        if self._cdf is None:
            starts, lengths, masses = self.leaf_table()
            cum = np.concatenate([[0.0], np.cumsum(masses)])
            self._cdf = (np.column_stack((starts, starts + lengths)).ravel(),
                         np.column_stack((cum[:-1], cum[1:])).ravel())
        xs, fs = self._cdf
        return (np.interp(b, xs, fs, left=0.0, right=1.0)
                - np.interp(a, xs, fs, left=0.0, right=1.0))


class LebesgueInterval:
    """Lebesgue measure restricted to [a, b]."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if b < a:
            raise ReversedInterval(f"need a <= b, got [{a}, {b}]")
        self.a = a
        self.b = b

    def interval_mass(self, a: float, b: float) -> float:
        return float(self.interval_masses([a], [b])[0])

    def interval_masses(self, a, b) -> np.ndarray:
        a, b = _checked_ends(a, b)
        return np.maximum(0.0, np.minimum(b, self.b) - np.maximum(a, self.a))


# -- module-level operations ---------------------------------------------------


@dataclass
class GrowthEstimate:
    max_ratio: float
    witness: tuple[float, float]
    n_intervals: int


# Intervals per block of growth_constant: every step after the draws is
# elementwise, so blocks bound its working set without moving a bit.
GROWTH_BLOCK = 4096


def growth_constant(measure, m: float, n_samples: int, seed: int) -> GrowthEstimate:
    """Supremum estimate of mu(J) / len(J)**m over sampled intervals.

    The sample always contains the construction intervals (up to an
    enumeration cap) plus seeded random intervals, stratified in scale.
    Zero-length samples are skipped.  The intervals are taken GROWTH_BLOCK
    at a time in sample order; the witness is the first largest ratio, as one
    argmax over the whole sample finds it.
    """
    if n_samples < 1:
        raise InvalidParams("n_samples must be >= 1")
    block = GROWTH_BLOCK
    rng = derive_rng(seed, "growth-constant")

    n_unif = n_samples // 2
    n_scale = n_samples - n_unif
    a = rng.uniform(-0.05, 1.05, size=n_unif)
    b = rng.uniform(-0.05, 1.05, size=n_unif)
    # Scale-stratified: log-uniform lengths so tiny intervals are exercised.
    lengths = np.exp(rng.uniform(np.log(1e-12), np.log(1.0), size=n_scale))
    centers = rng.uniform(0.0, 1.0, size=n_scale)

    # (start, end) of every interval in sample order, one block at a time.
    def blocks():
        if isinstance(measure, CantorMeasure):
            for g in range(0, min(measure.depth, 8) + 1):
                s, ln, _ = measure.leaf_table(g)
                for k in range(0, len(s), block):
                    yield s[k:k + block], s[k:k + block] + ln[k:k + block]
        for k in range(0, n_unif, block):
            ak, bk = a[k:k + block], b[k:k + block]
            yield np.minimum(ak, bk), np.maximum(ak, bk)
        for k in range(0, n_scale, block):
            half = lengths[k:k + block] / 2
            yield centers[k:k + block] - half, centers[k:k + block] + half

    # The CDF route of a Cantor measure (4**depth leaves, depth <= 10) fixes
    # growth's digits; deeper Cantor measures and every other measure walk.
    if isinstance(measure, CantorMeasure) and measure.depth <= 10:
        masses_of = measure.interval_mass_batch
    else:
        masses_of = measure.interval_masses
    best, witness, n_intervals = None, None, 0
    for starts, ends in blocks():
        lens = ends - starts
        keep = lens > 0.0
        starts, ends, lens = starts[keep], ends[keep], lens[keep]
        if not len(lens):
            continue
        ratios = masses_of(starts, ends) / lens**m
        i = int(np.argmax(ratios))
        if best is None or ratios[i] > best:  # strict: a tie keeps the earlier interval
            best, witness = float(ratios[i]), (float(starts[i]), float(ends[i]))
        n_intervals += len(lens)
    return GrowthEstimate(max_ratio=best, witness=witness, n_intervals=n_intervals)
