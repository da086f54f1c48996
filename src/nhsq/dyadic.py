"""Random shifted dyadic grids, good/bad cubes, stopping times, martingales.

One-dimensional specialization: cubes are half-open intervals
[k 2^-i + sigma_i, (k+1) 2^-i + sigma_i) where the scale-i shift is
sigma_i = sum_{j > i} 2^-j w_j with independent random bits w_j.  All
positions are integers in units of 2^-i_max, so containment and boundary
distances are exact.

A cube Q is bad if some cube at scale >= 2^r times larger has boundary
within len(Q)^gamma len(Qtilde)^(1-gamma) of Q, with gamma = a/(2m+2a);
goodness depends only on the shift bits at scales coarser than Q, which a
test exercises directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .errors import (
    AccretivityViolated,
    CutoffBelowR,
    DivisionByNearZeroAverage,
    InvalidParams,
)
from .rng import derive_rng

__all__ = [
    "Cube",
    "ShiftedGrid",
    "GoodnessParams",
    "GoodnessResult",
    "classify_good",
    "estimate_pi_good",
    "PiGoodEstimate",
    "StoppingForest",
    "build_stopping",
    "carleson_packing",
    "MartingaleCoeffs",
    "martingale_decompose",
]


@dataclass(frozen=True, order=True)
class Cube:
    """Scale index i (side 2^-i) and position index k."""

    i: int
    k: int


@dataclass(frozen=True)
class ShiftedGrid:
    """Dyadic grid with one shift bit per scale in [i_min+1, i_max]."""

    i_min: int
    i_max: int
    bits: tuple[int, ...]  # bits[j] is w_{i_min+1+j} in {0, 1}
    _shifts: tuple = field(init=False, repr=False, compare=False)  # [i - i_min]: sigma_i

    def __post_init__(self):
        if self.i_max <= self.i_min:
            raise InvalidParams("need i_max > i_min")
        if len(self.bits) != self.i_max - self.i_min:
            raise InvalidParams("one shift bit per scale in (i_min, i_max]")
        terms = [w << (self.i_max - j) for j, w in enumerate(self.bits, self.i_min + 1)]
        object.__setattr__(self, "_shifts", tuple(accumulate(reversed(terms), initial=0))[::-1])

    def bit(self, j: int) -> int:
        """Shift bit w_j for scale j (0 outside the tracked range)."""
        if self.i_min < j <= self.i_max:
            return self.bits[j - self.i_min - 1]
        return 0

    def shift_units(self, i: int) -> int:
        """sigma_i in units of 2^-i_max: sum over j > i of w_j 2^(i_max - j)."""
        return self._shifts[min(max(i, self.i_min), self.i_max) - self.i_min]

    def cube_units(self, cube: Cube) -> tuple[int, int]:
        """(start, length) of the cube in units of 2^-i_max; exact integers."""
        if not (self.i_min <= cube.i <= self.i_max):
            raise InvalidParams(f"scale {cube.i} outside [{self.i_min}, {self.i_max}]")
        length = 1 << (self.i_max - cube.i)
        return cube.k * length + self.shift_units(cube.i), length

    def cube_interval(self, cube: Cube) -> tuple[float, float]:
        start, length = self.cube_units(cube)
        unit = 0.5**self.i_max
        return start * unit, (start + length) * unit

    def containing_cube(self, x: float, i: int) -> Cube:
        unit = 0.5**self.i_max
        u = x / unit - self.shift_units(i)
        return Cube(i, int(math.floor(u / (1 << (self.i_max - i)))))

    def children(self, cube: Cube) -> tuple[Cube, Cube]:
        if cube.i >= self.i_max:
            raise InvalidParams("no children below the finest scale")
        s_par, _ = self.cube_units(cube)
        s0 = self.shift_units(cube.i + 1)
        half = 1 << (self.i_max - cube.i - 1)
        k0 = (s_par - s0) // half
        return Cube(cube.i + 1, k0), Cube(cube.i + 1, k0 + 1)

    def parent(self, cube: Cube) -> Cube:
        if cube.i <= self.i_min:
            raise InvalidParams("no parent above the coarsest scale")
        s, _ = self.cube_units(cube)
        sp = self.shift_units(cube.i - 1)
        return Cube(cube.i - 1, (s - sp) >> (self.i_max - cube.i + 1))

    def contains(self, outer: Cube, inner: Cube) -> bool:
        so, lo = self.cube_units(outer)
        si, li = self.cube_units(inner)
        return so <= si and si + li <= so + lo


@dataclass(frozen=True)
class GoodnessParams:
    gamma: float
    r: int

    @staticmethod
    def from_exponents(m: float, alpha: float, ensure_positive: bool = False) -> "GoodnessParams":
        """gamma = alpha/(2m+2alpha); r the smallest integer with
        2^(r(1-gamma)) >= 3.

        That minimal r can make every cube bad (the distance threshold at
        scale gap r exceeds the largest achievable lattice distance), so
        ensure_positive grows r until the union bound over scale gaps
        sum 2(2^(-gamma*up) + 2^(-up)) drops below 1/2, which guarantees
        P(good) >= 1/2.
        """
        if m <= 0 or alpha <= 0:
            raise InvalidParams("need m > 0 and alpha > 0")
        gamma = alpha / (2.0 * m + 2.0 * alpha)
        r = 1
        while 2.0 ** (r * (1.0 - gamma)) < 3.0:
            r += 1
        if ensure_positive:
            def bad_bound(r0: int) -> float:
                return 2.0 * (
                    2.0 ** (-gamma * r0) / (1.0 - 2.0**-gamma)
                    + 2.0 ** (-r0) / 0.5
                )

            while bad_bound(r) > 0.5:
                r += 1
        return GoodnessParams(gamma=gamma, r=r)

    def validate(self) -> None:
        if not (0.0 < self.gamma < 0.5):
            raise InvalidParams(f"gamma must be in (0, 1/2), got {self.gamma}")
        if 2.0 ** (self.r * (1.0 - self.gamma)) < 3.0:
            raise InvalidParams("r too small: need 2^(r(1-gamma)) >= 3")


@dataclass(frozen=True)
class GoodnessResult:
    status: str  # "good" or "bad"
    checked_scales: int
    hit_scale: Optional[int]
    beyond_cutoff_unknown: bool  # "good" is an over-approximation past the cutoff


def classify_good(grid: ShiftedGrid, cube: Cube, params: GoodnessParams,
                  scale_cutoff: int) -> GoodnessResult:
    """Bad if a >= 2^r-times-larger cube's boundary is closer than
    len(Q)^gamma len(Qtilde)^(1-gamma); checked K levels up, flagged as an
    over-approximation of goodness beyond the cutoff."""
    params.validate()
    if scale_cutoff < params.r:
        raise CutoffBelowR(f"cutoff {scale_cutoff} below r={params.r}")
    start, length = grid.cube_units(cube)
    unit = 0.5**grid.i_max
    ell = length * unit
    checked = 0
    for up in range(params.r, scale_cutoff + 1):
        i_t = cube.i - up
        if i_t < grid.i_min:
            break
        checked += 1
        big = 1 << (grid.i_max - i_t)
        sigma = grid.shift_units(i_t)
        # Distance from [start, start+length] to the lattice {k big + sigma}.
        pos = (start - sigma) % big
        if pos + length >= big or pos == 0:
            d_units = 0
        else:
            d_units = min(pos, big - pos - length)
        threshold = ell**params.gamma * (big * unit) ** (1.0 - params.gamma)
        if d_units * unit <= threshold:
            return GoodnessResult("bad", checked, i_t, False)
    return GoodnessResult("good", checked, None, True)


@dataclass
class PiGoodEstimate:
    estimates: list[float]
    pooled_se: float
    trials: int

    @property
    def spread_in_se(self) -> float:
        if self.pooled_se == 0.0:
            return 0.0
        return (max(self.estimates) - min(self.estimates)) / self.pooled_se


def estimate_pi_good(m: float, alpha: float, trials: int, seed: int,
                     cutoff: int) -> PiGoodEstimate:
    """Monte Carlo estimate of P(Q + w is good), for two base cubes.

    The probability is independent of the base cube; the result carries the
    per-cube estimates and the pooled standard error so callers can check
    the independence directly.  A cutoff below r raises CutoffBelowR.
    """
    if trials < 100:
        raise InvalidParams("need at least 100 trials")
    params = GoodnessParams.from_exponents(m, alpha, ensure_positive=True)
    if cutoff < params.r:  # before a negative cutoff sizes the grid
        raise CutoffBelowR(f"cutoff {cutoff} below r={params.r}")
    rng = derive_rng(seed, "pi-good")
    counts = [0, 0]
    i_q = cutoff  # cube scale; scales 0..cutoff are tracked above it
    for _ in range(trials):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=i_q))
        grid = ShiftedGrid(i_min=0, i_max=i_q, bits=bits)
        for b, k in enumerate((0, 5)):  # two base cubes at scale i_q
            res = classify_good(grid, Cube(i_q, k), params, cutoff)
            if res.status == "good":
                counts[b] += 1
    estimates = [c / trials for c in counts]
    p_bar = sum(estimates) / len(estimates)
    pooled_se = math.sqrt(max(p_bar * (1 - p_bar), 1e-12) / trials)
    return PiGoodEstimate(estimates=estimates, pooled_se=pooled_se, trials=trials)


# -- stopping times ---------------------------------------------------------------


@dataclass
class StoppingForest:
    """Layers D^0 = {root}, D^1, D^2, ... of stopping cubes with parent links."""

    grid: ShiftedGrid
    root: Cube
    threshold: float
    layers: list[list[Cube]]
    stop_parent: dict[Cube, Cube]  # stopping cube -> stopping cube that spawned it
    packing_fraction: dict[Cube, float]  # spawning cube -> mu(next layer)/mu(cube)
    b_family: Callable[[Cube], np.ndarray] = field(repr=False, default=None)
    _stopping: Optional[set[Cube]] = field(default=None, repr=False)
    # The measure build_stopping ran on and its (read-only) root leaf masses.
    measure: object = field(default=None, repr=False)
    leaf_masses: Optional[np.ndarray] = field(default=None, repr=False)

    def masses(self, measure) -> np.ndarray:
        """measure's masses of the root's finest-scale leaves, computed once."""
        if self.leaf_masses is None or measure is not self.measure:
            return _leaf_masses(measure, self.grid, self.root)
        return self.leaf_masses

    def all_stopping(self) -> set[Cube]:
        if self._stopping is None:
            self._stopping = {q for layer in self.layers for q in layer}
        return self._stopping

    def max_packing_fraction(self) -> float:
        return max(self.packing_fraction.values(), default=0.0)


def _leaf_slice(grid: ShiftedGrid, root: Cube, cube: Cube) -> slice:
    """Index range of cube's finest-scale leaves inside root's leaf vector."""
    s_root, _ = grid.cube_units(root)
    s, ln = grid.cube_units(cube)
    return slice(s - s_root, s - s_root + ln)


def _leaf_masses(measure, grid: ShiftedGrid, root: Cube) -> np.ndarray:
    s_root, ln = grid.cube_units(root)
    edges = (s_root + np.arange(ln + 1)) * 0.5**grid.i_max
    return measure.interval_masses(edges[:-1], edges[1:])


def _cube_mass(masses: np.ndarray, grid: ShiftedGrid, root: Cube, cube: Cube) -> float:
    return float(masses[_leaf_slice(grid, root, cube)].sum())


def build_stopping(measure, b_family: Callable[[Cube], np.ndarray], root: Cube,
                   c: float, max_depth: int, grid: ShiftedGrid) -> StoppingForest:
    """Layered maximal-cube search: children of a stopping cube S are the
    maximal Q inside S with |avg of b_S over Q| < c.

    b_family maps a stopping cube to its function as a vector over the
    finest-scale leaves of the root cube.  Zero-mass cubes are skipped (they
    carry no averages and no mass).
    """
    if c <= 0:
        raise InvalidParams("threshold c must be positive")
    masses = _leaf_masses(measure, grid, root)
    masses.flags.writeable = False  # shared with the forest's users
    root_mass = float(masses.sum())
    if root_mass <= 0:
        raise InvalidParams("root cube carries no mass")

    def avg(b_vec: np.ndarray, cube: Cube) -> Optional[float]:
        sl = _leaf_slice(grid, root, cube)
        mass = float(masses[sl].sum())
        if mass <= 0.0:
            return None
        return float(np.sum(b_vec[sl] * masses[sl])) / mass

    b_root = b_family(root)
    a0 = avg(b_root, root)
    if a0 is None or abs(a0) < c:
        raise AccretivityViolated(
            f"|<b>| = {0.0 if a0 is None else abs(a0):.4f} < c = {c} at the root"
        )

    layers = [[root]]
    stop_parent: dict[Cube, Cube] = {}
    packing: dict[Cube, float] = {}
    current = [root]
    for _ in range(max_depth):
        nxt: list[Cube] = []
        for S in current:
            b_vec = b_family(S)
            found: list[Cube] = []
            # Depth first, children left to right: the stack holds the cubes
            # still to test, the next one on top.
            stack = list(reversed(grid.children(S))) if S.i < grid.i_max else []
            while stack:
                q = stack.pop()
                a = avg(b_vec, q)
                if a is None:
                    continue
                if abs(a) < c:
                    found.append(q)  # maximal: do not descend further
                elif q.i < grid.i_max:
                    stack.extend(reversed(grid.children(q)))
            for q in found:
                stop_parent[q] = S
            packing[S] = (sum(_cube_mass(masses, grid, root, q) for q in found)
                          / _cube_mass(masses, grid, root, S))
            nxt.extend(found)
        if not nxt:
            break
        layers.append(nxt)
        current = nxt
    return StoppingForest(
        grid=grid, root=root, threshold=c, layers=layers,
        stop_parent=stop_parent, packing_fraction=packing, b_family=b_family,
        measure=measure, leaf_masses=masses,
    )


def carleson_packing(forest: StoppingForest, measure, R: Cube) -> float:
    """sum of mu(S) over stopping S inside R, divided by mu(R)."""
    grid, root = forest.grid, forest.root
    masses = forest.masses(measure)
    inside = grid.contains(root, R)
    mR = _cube_mass(masses, grid, root, R) if inside else measure.interval_mass(*grid.cube_interval(R))
    if mR <= 0:
        return 0.0
    total = 0.0
    for layer in forest.layers:
        for S in layer:
            if grid.contains(R, S):
                total += _cube_mass(masses, grid, root, S)
    return total / mR


@dataclass
class MartingaleCoeffs:
    """Martingale differences of k test functions, one row per f.

    The root's n finest-scale leaves index every row.  levels[g] is a (k, n)
    array: on the leaf slice of each cube Q of generation g below the root
    it holds Delta_Q f, one row per f.  The cubes of one generation tile
    the root, so one array holds all of them.  leaf_slices maps each cube
    that carries a difference to its slice, in post-order (children before
    their parent), which is the order `energy` adds the cubes in.

    Every per-f sum runs over the whole n-leaf row with zeros off the cube,
    so numpy groups the pairwise additions as in a sum over one full leaf
    vector.
    """

    root: Cube
    leaf_masses: np.ndarray
    levels: list[np.ndarray]
    leaf_slices: dict[Cube, slice]

    @property
    def cubes(self) -> list[Cube]:
        return list(self.leaf_slices)

    def delta(self, cube: Cube) -> np.ndarray:
        """Delta_Q f as (k, n) leaf rows, zero off Q."""
        level = self.levels[cube.i - self.root.i]
        sl = self.leaf_slices[cube]
        out = np.zeros_like(level)
        out[:, sl] = level[:, sl]
        return out

    def reconstruction(self) -> np.ndarray:
        """Sum of all differences, (k, n); finest generation first."""
        out = np.zeros_like(self.levels[0])
        for level in reversed(self.levels):
            out = out + level
        return out

    def integral(self, cube: Cube) -> np.ndarray:
        """Integral of Delta_Q f against mu, one value per row."""
        return np.sum(self.delta(cube) * self.leaf_masses, axis=1)

    def energy(self) -> np.ndarray:
        """sum over Q of ||Delta_Q f||^2 in L^2(mu), one value per row."""
        total = 0.0
        for cube in self.leaf_slices:
            total = total + np.sum(self.delta(cube) ** 2 * self.leaf_masses, axis=1)
        return total


def martingale_decompose(measure, forest: StoppingForest, f: np.ndarray,
                         depth: int) -> MartingaleCoeffs:
    """b-adapted martingale differences over the stopping forest.

    Delta_Q f = sum over children Q' of
        [ <f>_Q' / <b_{(Q')^a}>_Q' * b_{(Q')^a} - <f>_Q / <b_{Q^a}>_Q * b_{Q^a} ] 1_Q',
    with the root carrying its own expectation term on top; Q^a is the
    smallest stopping cube containing Q.  Summing Delta_Q f over all cubes
    down to `depth` reconstructs f exactly at leaf resolution, and every
    non-root difference has zero mean.

    f has shape (n,) or (k, n), one row per test function over the root's
    n finest-scale leaves; a 1-D f is the case k = 1 and gives one row.
    The leaf masses come from the forest (StoppingForest.masses).
    Everything else that does not depend on f (cube slices, the b of each
    cube's stopping ancestor and its averages, with the near-zero check) is
    computed once per call, and <f>_Q for all rows at once.  The
    walk goes generation by generation and keeps only the projections of
    two generations; it builds no closures, so no reference cycle keeps
    its arrays alive after the call.
    """
    grid = forest.grid
    root = forest.root
    s_root, n = grid.cube_units(root)
    rows = np.asarray(f, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != n:
        raise InvalidParams(
            f"f must be (n,) or (k, n) with k >= 1 and one value per finest-scale "
            f"leaf (n = {n}), got shape {np.shape(f)}"
        )
    if not 1 <= depth <= grid.i_max - root.i:
        raise InvalidParams("depth must lie in 1 .. the grid's finest scale below the root")
    k = rows.shape[0]
    masses = forest.masses(measure)
    f_mass = rows * masses
    stopping = forest.all_stopping()

    generations: list[list[Cube]] = []
    levels: list[np.ndarray] = []
    b_row = np.empty(n)
    for g in range(depth + 1):
        count, ln = 1 << g, n >> g
        # The generation tiles the root left to right, from the root's start.
        k0 = (s_root - grid.shift_units(root.i + g)) // ln
        cubes = [Cube(root.i + g, k0 + j) for j in range(count)]
        generations.append(cubes)
        # b of each cube's smallest stopping ancestor, on the cube's slice;
        # the root is its own ancestor.
        for j, q in enumerate(cubes):
            if g == 0 or q in stopping:
                sl = slice(j * ln, (j + 1) * ln)
                b_row[sl] = forest.b_family(q)[sl]
        mass = masses.reshape(count, ln).sum(axis=1)
        has_mass = mass > 0.0
        b_avg = np.divide((b_row * masses).reshape(count, ln).sum(axis=1), mass,
                          out=np.zeros(count), where=has_mass)
        bad = np.flatnonzero(has_mass & (np.abs(b_avg) < 1e-9))
        if bad.size:
            raise DivisionByNearZeroAverage(
                f"<b_anc> = {b_avg[bad[0]]:.2e} on {cubes[bad[0]]}; "
                "stopping construction broken"
            )
        f_avg = np.divide(f_mass.reshape(k, count, ln).sum(axis=2), mass,
                          out=np.zeros((k, count)), where=has_mass)
        # A cube without mass has ratio 0, so its projection is zero.
        ratio = np.divide(f_avg, b_avg, out=np.zeros((k, count)), where=has_mass)
        proj = (ratio[:, :, None] * b_row.reshape(count, ln)).reshape(k, n)
        if g == 0:
            top = proj
        else:
            # Generation g-1: minus the own term, plus each child's term.
            delta = np.negative(own)
            delta += proj
            # The other child's zero term of the full-width sum: -0.0 -> +0.0.
            delta += 0.0
            levels.append(delta)
        own = proj
    # Top convention: the root keeps its own expectation term.
    levels[0] += top

    # Post-order: by the last finest-generation leaf below the cube, then
    # deeper cubes first.
    order = sorted(
        ((g, j) for g in range(depth) for j in range(1 << g)),
        key=lambda gj: ((gj[1] + 1) << (depth - 1 - gj[0]), -gj[0]),
    )
    leaf_slices = {
        generations[g][j]: slice(j * (n >> g), (j + 1) * (n >> g)) for g, j in order
    }
    return MartingaleCoeffs(root=root, leaf_masses=masses, levels=levels,
                            leaf_slices=leaf_slices)
