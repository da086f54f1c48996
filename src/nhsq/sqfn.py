"""Conical and vertical square functions over the Cantor measure, their
L2 norms by multiscale quadrature, and the testing / weak-(1,1) functionals.

The L2 norm of S_alpha(1) is computed generation by generation:

    ||S_alpha 1||^2 = sum_n g(n, alpha),
    g(n, alpha) = sum_{I in gen n} contribution(I).

Because every generation-n node carries the same normalized geometry, the
contribution of I is mu(I) times a quantity evaluated once on the
generation-n template, and sum mu(I) = 1 collapses the 4**n node sum to a
single template quadrature.  The collapse is validated against direct node
enumeration at shallow depth (OracleMismatch if they disagree).

An aperture is a plain float alpha; the dt/t^(m+1) weight always uses the
measure's m.  The collapsed series, its enumeration oracle and
validate_collapse take a sequence of apertures and answer for all of them in
one pass: the geometry that does not depend on alpha (template strip atoms
and leaf table per (n, y resolution), or one oracle node's atoms and theta)
is built once, and one _band_forms call checks it and runs each aperture's
quadratic form u_w @ tails @ y_w on it, so every aperture's sums run in the
same order as for a lone one.  No dense |u - y| or tails matrix is built:
_tail_chunks builds the tails of the distinct values of y (many leaf mids
are one double) in chunks of 512 columns holding only the rows whose
windows meet them, edges on 16-row and 16-column grains (each gemv output
is then the full product's, so the digits hold), and runs the tail formula
in place in each window's distance buffer, only where it is neither 0 nor
constant.
weak11_functional works at aperture 1.

For apertures alpha <= 2 the ball B(y, alpha t) never escapes the node I for
(y, t) in its strip/band region (the strip sits 2 L_I from the node ends
while alpha t <= 2 L_I), so the template quadrature with balls clipped to
[0,1] is exact; wider apertures would need cross-node terms, so the
collapsed series, its enumeration oracle and the L2 operator ratio refuse
alpha > 2 with InvalidParams.

The pointwise values S_alpha f(x) (conical_value) and V f(x)
(vertical_value) take a scalar or an x-array: all points walk the tree
together, one generation at a time (CantorMeasure.descend), and each node's
coefficient and strip atoms are computed once for the points it holds.
conical_value sums over the nodes that contain x, which is exhaustive only
while alpha t <= 2 L_I, so it refuses alpha > 2 as well.

The log-product kernel's theta-integral (mu = dx), the integral of
|theta_t 1(x)|^2 dt/t, has one body, _vertical_sq: ci_profile integrates it
over dyadic boxes (the testing condition C_I) and vertical_value reads it at
points (V 1(x)).  testing_functional is the Cantor kernel's, on nodes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .errors import (
    EmptyCubeList,
    InvalidParams,
    OracleMismatch,
    QuadratureBudgetExceeded,
)
from .kernels import (
    POINT_BLOCK,
    CantorKernel,
    LogProductKernel,
    bump,
    node_atoms,
    strip_atoms,
    theta_unit,
)
from .logproduct import SEGMENT_CHUNK, _sorted_unique
from .measures import CantorMeasure, _split_geometry

__all__ = [
    "QuadratureConfig",
    "NormSeries",
    "LeafFunction",
    "CantorSquareContext",
    "conical_norm_series",
    "vertical_norm_series",
    "direct_norm_series",
    "validate_collapse",
    "conical_value",
    "vertical_value",
    "l2_operator_ratio",
    "testing_functional",
    "TestingResult",
    "ci_profile",
    "weak11_functional",
    "Weak11Result",
]

LN2 = math.log(2.0)
CI_BLOCK_ROWS = 1024  # boundary-zone rows per ci_profile block (256 KB per temporary at 32 steps)
TAIL_BLOCK_ROWS = 32  # rows of u that share one pair of column windows in _tail_chunks
TAIL_BLOCK_COLS = 512  # columns of y per _tail_chunks chunk (0.5 MB at 128 rows)
TAIL_GRAIN = 16  # _tail_chunks chunk edges: multiples of this many rows and columns, or len(u), len(y)


def _band_tail_weight(d, t_lo: float, t_hi: float, alpha: float, m: float, out=None):
    """integral of s^(-m-1) over {s in [t_lo, t_hi] : alpha s > d}, elementwise in d.

    This is the exact t-integral of the indicator 1_{|y-u| < alpha s} against
    ds/s^(m+1); using it instead of a t grid removes the staircase error that
    the Cantor ball-mass function produces under midpoint rules.

    Without out, the result is the one float buffer the function allocates
    and d is never written to; with out (a float array of d's shape, d
    itself allowed) it is out.  Every step after the division runs in place.
    The values are bit-identical to np.where(lo < t_hi, (lo**-m - t_hi**-m)/m, 0)
    with lo = max(t_lo, d/alpha), signed zeros included.
    """
    d = np.asarray(d, dtype=float)
    lo = np.divide(d, alpha, out=np.empty_like(d) if out is None else out)
    np.maximum(t_lo, lo, out=lo)
    beyond = ~(lo < t_hi)  # np.where's test, so a NaN lo also gives 0
    lo **= -m
    lo -= t_hi ** -m
    lo /= m
    lo[beyond] = 0.0
    return lo


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j| as an (len(a), len(b)) matrix, in one buffer."""
    d = np.subtract.outer(a, b)
    return np.abs(d, out=d)


def _tail_chunks(u, y, extent, t_lo: float, t_hi: float, alpha: float, m: float):
    """(i, j, T[i:i + h, j:k]) chunks of T = _band_tail_weight(_distances(u, y),
    ...) bit for bit, covering every entry that is not exactly 0; y is
    non-decreasing and extent is the (min, max) of u over each block of
    TAIL_BLOCK_ROWS rows.

    Per block, found once on the whole y and clipped to each chunk, the
    columns farther than alpha t_hi from every row are exactly 0 and those
    nearer than alpha t_lo are exactly the tail weight at d = 0; only the
    columns between go through the formula, whose per-element result does
    not depend on the array around it, in place in each window's fresh
    distance buffer.  The windows widen the two radii by a relative 1e-9 and
    an absolute 1e-12: with u and y in [0, 1], the roundings in |u - y|,
    d / alpha and the window bounds are a few ulps of numbers below
    1 + alpha t_hi, far inside that margin, so no column is misplaced (a
    wider window costs only time).  A chunk holds at most TAIL_BLOCK_COLS
    columns between multiples of TAIL_GRAIN or to len(y) (a lone last column
    takes the grain before it along), and the rows of the blocks whose
    windows meet them, widened to the grain or to len(u); other rows are 0.
    """
    if not len(u):
        return
    band = (t_lo, t_hi, alpha, m)
    inner = _band_tail_weight(np.zeros(1), *band)[0]
    far = alpha * t_hi * (1 + 1e-9) + 1e-12
    near = alpha * t_lo * (1 - 1e-9) - 1e-12
    lo, hi = extent
    a, e = np.searchsorted(y, lo - far), np.searchsorted(y, lo + near)
    c, b = np.searchsorted(y, hi - near, side="right"), np.searchsorted(y, hi + far, side="right")
    e = np.maximum(c, e)
    g, rows = TAIL_GRAIN, TAIL_BLOCK_ROWS
    step = max(TAIL_BLOCK_COLS // g, 1) * g
    first, last = a.min() // g * g, min(-(-b.max() // g) * g, len(y))
    blocks = list(zip(range(0, len(u), rows), a.tolist(), c.tolist(), e.tolist(), b.tolist()))
    for j in range(first, last, step):
        k = min(j + step, last)
        j = max(k - g - 1, 0) if k - j == 1 else j
        # The blocks whose windows meet [j, k), with the windows clipped to it.
        live = [(r, max(wa, j), min(max(wc, j), k), min(max(we, j), k), min(wb, k))
                for r, wa, wc, we, wb in blocks if wa < k and j < wb and wa < wb]
        if not live:
            continue
        i = live[0][0] // g * g
        out = np.zeros((min(-(-(live[-1][0] + rows) // g) * g, len(u)) - i, k - j))
        for r, wa, wc, we, wb in live:
            at = slice(r - i, r - i + rows)
            out[at, wc - j:we - j] = inner
            for p, q in ((wa, wc), (we, wb)):
                if p < q:
                    d = _distances(u[r:r + rows], y[p:q])
                    out[at, p - j:q - j] = _band_tail_weight(d, *band, out=d)
        yield i, j, out
        del out  # freed before the next chunk is built


def _band_forms(u, u_w, y, y_w, t_lo: float, t_hi: float, alphas, m: float) -> list[float]:
    """float(u_w @ T @ y_w) per aperture in alphas, T = _band_tail_weight(
    _distances(u, y), t_lo, t_hi, alpha, m), bit for bit; u and y finite, y
    non-decreasing (InvalidParams otherwise).  The checks and the row blocks'
    extents are made once for all apertures.  Each chunk of _tail_chunks is
    multiplied by u_w on its own rows; the columns no chunk covers stay +0.0
    in v = u_w @ T.  Gemv output j is column j dotted with u_w in one order
    except in the BLAS's vector tail (the last width mod 4 outputs) and for
    one column (numpy's dot path), which the column grain avoids, and zero
    rows outside a span with edges on the grain add exactly nothing.  The
    chunks are built on ys: the distinct values of y's whole grains, padded
    to a grain with copies of the last, then y's partial grain as it is (so
    the vector tail keeps its columns).  T is a function of (u_i, y_j), so
    each y_j reads its own column's output back through the inverse index.
    """
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(y).all() and (y[:-1] <= y[1:]).all()):
        raise InvalidParams("band tails need finite u and a non-decreasing finite y")
    starts = np.arange(0, len(u), TAIL_BLOCK_ROWS)
    extent = np.minimum.reduceat(u, starts), np.maximum.reduceat(u, starts)
    whole = len(y) - len(y) % TAIL_GRAIN
    head, new = y[:whole], np.ones(whole, dtype=bool)
    new[1:] = head[1:] != head[:-1]
    distinct = head[new]
    pad = np.repeat(distinct[-1:], -len(distinct) % TAIL_GRAIN)
    ys = np.concatenate([distinct, pad, y[whole:]])
    back = np.concatenate([np.cumsum(new) - 1, np.arange(len(ys) - len(y) + whole, len(ys))])
    forms = []
    for alpha in alphas:
        v = np.zeros(len(ys))
        for i, j, tails in _tail_chunks(u, ys, extent, t_lo, t_hi, alpha, m):
            v[j:j + tails.shape[1]] = u_w[i:i + len(tails)] @ tails
            del tails  # freed before the next chunk is built
        forms.append(float(v[back] @ y_w))
    return forms


def _check_collapse_aperture(alpha: float) -> None:
    """The template collapse assumes balls B(y, alpha t) stay in the node,
    which holds for 1 <= alpha <= 2 only; NaN fails the first test too."""
    if not (1.0 <= alpha < math.inf):
        raise InvalidParams(f"aperture must be finite and >= 1, got {alpha}")
    if alpha > 2.0:
        raise InvalidParams(
            f"the collapsed norm series needs aperture <= 2, got {alpha}; "
            "wider balls leave the node and the collapse misses their mass"
        )


def _collapse_alphas(alphas) -> list[float]:
    """A batch of apertures as a list, in order; every aperture is checked
    before any work starts."""
    alphas = list(alphas)
    if not alphas:
        raise InvalidParams("the collapsed norm series needs at least one cone")
    for alpha in alphas:
        _check_collapse_aperture(alpha)
    return alphas


@dataclass(frozen=True)
class QuadratureConfig:
    t_steps_per_band: int = 32
    y_resolution_depth: int = 6
    rel_tol: float = 1e-3
    trunc_generation: int = 20

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.t_steps_per_band < 1 or self.y_resolution_depth < 1 or self.trunc_generation < 0:
            raise InvalidParams("quadrature parameters must be positive")
        if self.y_resolution_depth > 8:  # beta reads depth y + 1 of templates capped at depth 9
            raise InvalidParams(f"y_resolution_depth must be at most 8, got {self.y_resolution_depth}")
        if not (0.0 < self.rel_tol <= 0.1):
            raise InvalidParams(f"rel_tol must be in (0, 0.1], got {self.rel_tol}")

    def point_atom_depth(self) -> int:
        """The node-atom depth of conical_value and vertical_value."""
        return min(self.y_resolution_depth, 6)

    def oracle_atom_depth(self, measure_depth: int, N: int) -> int:
        """The node-atom depth of direct_norm_series on a measure of that depth."""
        return min(self.y_resolution_depth, measure_depth - N, 5)


@dataclass
class NormSeries:
    """Per-generation contributions g(n) for n = 0..N and their partial sums."""

    alpha: Optional[float]
    terms: np.ndarray
    err_est: np.ndarray

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.terms)

    @property
    def total(self) -> float:
        return float(self.terms.sum())

    def rows(self) -> list[tuple]:
        """(n, alpha, g_n, partial_sum, err_est) rows for CSV emission."""
        ps = self.partial_sums
        a = "" if self.alpha is None else self.alpha
        return [
            (n, a, float(self.terms[n]), float(ps[n]), float(self.err_est[n]))
            for n in range(len(self.terms))
        ]


@dataclass
class LeafFunction:
    """Piecewise-constant function on the depth-`depth` leaves of a measure."""

    measure: CantorMeasure
    depth: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not 0 <= self.depth <= self.measure.depth:
            raise InvalidParams(
                f"leaf depth {self.depth} must lie in 0..{self.measure.depth}, the measure's depth"
            )
        if self.values.shape != (4**self.depth,):
            raise InvalidParams(f"need 4**{self.depth} leaf values")

    def leaf_index(self, x: float) -> Optional[int]:
        """Base-4 path of the leaf containing x, None if x is in a gap."""
        off, length = 0.0, 1.0
        idx = 0
        for k in range(1, self.depth + 1):
            geo = self.measure.geometry[k]
            hit = None
            for j in range(4):
                coff = off + geo.child_offsets[j] * length
                clen = geo.child_lengths[j] * length
                if coff <= x <= coff + clen:
                    hit = (j, coff, clen)
                    break
            if hit is None:
                return None
            j, off, length = hit[0], hit[1], hit[2]
            idx = idx * 4 + j
        return idx

    def __call__(self, x):
        """f at x, elementwise for arrays and 0 in gaps; the leaf of each
        point is the one leaf_index finds, looked up for all points at once.
        Only the walk's last generation is held: each step frees the one before."""
        for *_, idx, alive in self.measure.descend(x, self.depth):
            pass
        out = np.where(alive, self.values[idx], 0.0)
        return out if out.ndim else float(out)

    def l1_norm(self) -> float:
        _, _, masses = self.measure.leaf_table(self.depth)
        return float(np.sum(np.abs(self.values) * masses))

    def l2_norm_sq(self) -> float:
        _, _, masses = self.measure.leaf_table(self.depth)
        return float(np.sum(self.values**2 * masses))

    @staticmethod
    def constant(measure: CantorMeasure, depth: int, value: float = 1.0) -> "LeafFunction":
        return LeafFunction(measure, depth, np.full(4**depth, value))

    @staticmethod
    def spike(measure: CantorMeasure, depth: int, leaf: int) -> "LeafFunction":
        """Indicator of one leaf normalized to unit L1(mu) mass."""
        f = LeafFunction.constant(measure, depth, 0.0)
        if not 0 <= leaf < 4**depth:
            raise InvalidParams(f"leaf {leaf} must lie in 0..{4**depth - 1}")
        f.values[leaf] = 1.0 / measure.leaf_table(depth)[2][leaf]
        return f


# -- template machinery -------------------------------------------------------------

# beta(n) per measure, keyed by (n, y_resolution_depth): every context on one
# measure shares them, so vertical's two series compute each beta once.
_BETAS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class CantorSquareContext:
    """Caches per-generation template quantities for one (measure, quad) pair.

    beta(n): the normalized bump integral of generation-n nodes, i.e.
    theta_t 1 on an active strip.  band_weights(n, alphas): the normalized
    strip x band integral of mu(B(y, alpha t)) / t^m against dmu dt/t, one
    per aperture.  Only the last template is kept: callers walk n outermost.
    The betas are shared with every other context on the same measure.
    """

    def __init__(self, measure: CantorMeasure, quad: QuadratureConfig):
        self.measure = measure
        self.quad = quad
        self._beta: dict[tuple[int, int], float] = _BETAS.setdefault(measure, {})
        self._weight: dict[tuple[int, float, int], float] = {}
        self._tpl: Optional[tuple[int, CantorMeasure]] = None

    def _template(self, n: int) -> CantorMeasure:
        if self._tpl is None or self._tpl[0] != n:
            depth = min(self.quad.y_resolution_depth + 2, 9)
            self._tpl = (n, self.measure.template(n, depth=depth))
        return self._tpl[1]

    def beta(self, n: int) -> float:
        """integral of phi_I dmu / mu(I) for generation-n nodes; phi_I pulled
        back to the template is sin^2(pi u)."""
        key = (n, self.quad.y_resolution_depth)
        if key not in self._beta:
            tpl = self._template(n)
            d = min(self.quad.y_resolution_depth + 1, tpl.depth)
            starts, lens, masses = tpl.leaf_table(d)
            mids = starts + lens / 2.0
            self._beta[key] = float(np.sum(masses * np.sin(np.pi * mids) ** 2))
        return self._beta[key]

    def band_weights(self, n: int, alphas, y_depth: Optional[int] = None) -> list[float]:
        """Normalized integral over strip x [L/2, L] of nu(B(u, alpha s))/s^m ds/s,
        one per aperture in alphas.

        Exact in t via the band tail weight; spatial integrals by measure
        atoms at the configured resolution (midpoint per atom).  The strip
        atoms and leaf table are built once for all apertures not cached yet,
        and one _band_forms pass over them answers for all of those apertures.
        """
        y_depth = self.quad.y_resolution_depth if y_depth is None else y_depth
        missing = [a for a in dict.fromkeys(alphas) if (n, a, y_depth) not in self._weight]
        if missing:
            tpl = self._template(n)
            Lhat = tpl.geometry[1].L
            extra = min(max(y_depth - 3, 1), tpl.depth - 1)
            u_mids, u_w = strip_atoms(tpl, 0.0, 1.0, 1.0, 0, extra)
            starts, lens, y_w = tpl.leaf_table(min(y_depth, tpl.depth))
            y_mids = starts + lens / 2.0
            forms = _band_forms(u_mids, u_w, y_mids, y_w, Lhat / 2.0, Lhat, missing, self.measure.m)
            for alpha, form in zip(missing, forms):
                self._weight[n, alpha, y_depth] = form
        return [self._weight[n, a, y_depth] for a in alphas]

    def band_weight(self, n: int, alpha: float, y_depth: Optional[int] = None) -> float:
        """band_weights for one aperture."""
        return self.band_weights(n, (alpha,), y_depth)[0]

    def g_term(self, n: int, alphas) -> list[tuple[float, float]]:
        """(g(n, alpha), error estimate) per aperture for the conical norm series."""
        b2 = self.beta(n) ** 2
        fine = self.band_weights(n, alphas)
        coarse = self.band_weights(n, alphas, y_depth=self.quad.y_resolution_depth - 1)
        return [(b2 * w, b2 * abs(w - wc)) for w, wc in zip(fine, coarse)]

    def g_vertical(self, n: int) -> float:
        """g_V(n) = beta(n)^2 * strip mass * ln 2 (the t integrand is constant),
        the strip mass from the geometry table or built past the measure's depth."""
        p = self.measure.params
        geo = self.measure.geometry.get(n + 1) or _split_geometry(p.start_gen + n + 1, p.m, p.C)
        return self.beta(n) ** 2 * geo.strip_mass * LN2


def conical_norm_series(
    measure: CantorMeasure, alphas, N: int, quad: QuadratureConfig
) -> list[NormSeries]:
    """||S_alpha(1)||^2 per-generation series via the template collapse, one
    per aperture, in order; generation n is done for all apertures at once."""
    alphas = _collapse_alphas(alphas)
    ctx = CantorSquareContext(measure, quad)
    g = np.array([ctx.g_term(n, alphas) for n in range(N + 1)])  # (N + 1, apertures, 2)
    out = []
    for k, alpha in enumerate(alphas):
        terms, errs = g[:, k, 0].copy(), g[:, k, 1].copy()
        series = NormSeries(alpha=alpha, terms=terms, err_est=errs)
        if float(errs.sum()) > quad.rel_tol * max(series.total, 1e-300):
            raise QuadratureBudgetExceeded(
                f"series error estimate {errs.sum():.3e} exceeds rel_tol {quad.rel_tol} "
                f"of total {series.total:.3e} at alpha={alpha}; raise y_resolution_depth"
            )
        out.append(series)
    return out


def vertical_norm_series(
    measure: CantorMeasure, N: int, quad: QuadratureConfig
) -> NormSeries:
    """||V(1)||^2 per-generation series; exact in t (constant band integrand)."""
    ctx = CantorSquareContext(measure, quad)
    terms = np.array([ctx.g_vertical(n) for n in range(N + 1)])
    return NormSeries(alpha=None, terms=terms, err_est=np.zeros(N + 1))


def direct_norm_series(
    measure: CantorMeasure, alphas, N: int, quad: QuadratureConfig
) -> list[NormSeries]:
    """Brute-force oracle: enumerate all 4**n nodes per generation, one series
    per aperture, in order.

    Uses absolute coordinates and global ball masses; no template collapse.
    Each node's atoms and theta serve every aperture, and one _band_forms
    pass per node answers for all of them.  Intended for shallow N (cost
    4**N nodes at generation N).
    """
    alphas = _collapse_alphas(alphas)
    if N > 6:
        raise InvalidParams("direct enumeration is intended for N <= 6")
    if measure.depth < N + 3:
        raise InvalidParams("measure too shallow for the requested oracle depth")
    m = measure.m
    y_extra = quad.oracle_atom_depth(measure.depth, N)
    terms = [np.zeros(N + 1) for _ in alphas]
    for n in range(N + 1):
        starts, lens, masses = measure.leaf_table(n)
        geo = measure.geometry[n + 1]
        for off, length, mass in zip(starts, lens, masses):
            L_abs = geo.L * length
            # theta_t 1 on the strip: bump integral over this node, directly.
            a_m, _, a_w = node_atoms(measure, off, length, mass, n, y_extra + 1)
            center = off + length / 2.0
            theta = float(np.sum(a_w * bump((a_m - center) / length))) / length**m
            s_mids, s_w = strip_atoms(measure, off, length, mass, n, max(y_extra - 2, 1))
            # Balls stay inside the node for alpha <= 2, so node atoms suffice.
            forms = _band_forms(s_mids, s_w, a_m, a_w, L_abs / 2.0, L_abs, alphas, m)
            for k, form in enumerate(forms):
                terms[k][n] += theta**2 * form
    return [NormSeries(alpha=a, terms=t, err_est=np.zeros(N + 1)) for a, t in zip(alphas, terms)]


def validate_collapse(
    measure: CantorMeasure, alphas, N: int, quad: QuadratureConfig, tol: float = 0.01
) -> float:
    """Max relative disagreement between collapsed and enumerated g(n, alpha)
    over all apertures; OracleMismatch names the first aperture past tol."""
    collapsed = conical_norm_series(measure, alphas, N, quad)
    direct = direct_norm_series(measure, alphas, N, quad)
    worst = 0.0
    for c, d in zip(collapsed, direct):
        rel = np.abs(c.terms - d.terms) / np.maximum(d.terms, 1e-300)
        err = float(rel.max())
        if err > tol:
            raise OracleMismatch(
                f"collapsed vs enumerated terms disagree by {err:.2%} (tol {tol:.0%}) "
                f"at alpha={c.alpha}"
            )
        worst = max(worst, err)
    return worst


# -- pointwise values ------------------------------------------------------------


def _node_coefficient(measure, f, off, length, mass, gen, depth) -> float:
    """c_J(f) = integral of phi_J f dmu / len(J)^m by node-local quadrature;
    f is None (f = 1) or a LeafFunction, read at all atoms at once."""
    mids, _, weights = node_atoms(measure, off, length, mass, gen, depth)
    center = off + length / 2.0
    phis = bump((mids - center) / length)
    fv = 1.0 if f is None else f(mids)
    return float(np.sum(weights * phis * fv)) / length**measure.m


def _f_lives(nonzero, f_depth: int, g: int, idx) -> np.ndarray:
    """Whether f (nonzero = flatnonzero(f.values), leaf depth f_depth) is nonzero
    on the generation-g node of each path idx; c_J(f) is exactly 0 on a node
    where f vanishes, since the bump is supported inside the node.  idx is an
    object array past generation 31, its leaf ranges fit int64."""
    span = 4 ** max(f_depth - g, 0)
    lo = (idx * span if g <= f_depth else idx // 4 ** (g - f_depth)).astype(np.int64)
    return np.searchsorted(nonzero, lo + span) > np.searchsorted(nonzero, lo)


def _nodes(idx, alive, off, length, mass):
    """Each distinct node that holds a point where alive is set, in node
    order: (node index, positions of its points, offset, length, mass)."""
    live = np.flatnonzero(alive)
    live = live[np.argsort(idx[live], kind="stable")]
    nodes, first = np.unique(idx[live], return_index=True)
    for node, pts in zip(nodes.tolist(), np.split(live, first[1:])):
        i = pts[0]
        yield node, pts, float(off[i]), float(length[i]), float(mass[i])


def conical_value(kernel, measure, f, x, alpha: float, quad: QuadratureConfig):
    """S_alpha f(x) over the kernel's active bands up to the truncation generation.

    x is a scalar (float result) or an array.  All points walk the tree
    together (CantorMeasure.descend); each node's coefficient and strip
    atoms are computed once for the points it holds, and its tails in row
    blocks of at most POINT_BLOCK (x, atom) pairs.  For apertures <= 2
    only nodes containing x contribute (strips of other nodes are at
    distance >= 2 L from x), so the walk is exhaustive; wider apertures are
    refused with InvalidParams.  Points on nodes where the LeafFunction f
    vanishes are dropped before the nodes are split out.
    """
    _check_collapse_aperture(alpha)
    if not isinstance(kernel, CantorKernel):
        raise InvalidParams("conical_value is defined for the Cantor kernel")
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    total = np.zeros(xs.shape)
    depth = quad.point_atom_depth()
    nonzero = np.flatnonzero(f.values) if isinstance(f, LeafFunction) else None
    walk = measure.descend(xs, min(quad.trunc_generation, measure.depth - 1))
    for g, off, length, mass, idx, alive in walk:
        if nonzero is not None:
            alive = alive & _f_lives(nonzero, f.depth, g, idx)
        for node, pts, o, ln, ms in _nodes(idx, alive, off, length, mass):
            if nonzero is not None and g > f.depth:  # below leaf resolution f is constant
                fl = float(f.values[node // 4 ** (g - f.depth)])
                c = fl * _node_coefficient(measure, None, o, ln, ms, g, depth)
            else:
                c = _node_coefficient(measure, f, o, ln, ms, g, depth)
            if c == 0.0:
                continue
            L_abs = measure.geometry[g + 1].L * ln
            mids, weights = strip_atoms(measure, o, ln, ms, g, min(3, measure.depth - g - 1))
            rows = max(1, POINT_BLOCK // len(mids))
            for k in range(0, len(pts), rows):
                p = pts[k:k + rows]
                tails = _band_tail_weight(
                    _distances(xs[p], mids), L_abs / 2.0, L_abs, alpha, measure.m
                )
                # Row sums, each row's bits its own; tails @ weights adds in BLAS order.
                total[p] += c * c * (weights * tails).sum(axis=1)
    out = np.sqrt(total).reshape(x.shape)
    return out if out.ndim else float(out)


def vertical_value(kernel, measure, f, x, quad: QuadratureConfig):
    """V f(x): the t-only square integral at the point x, a scalar (float
    result) or an array of any shape.

    Cantor kernel: the points walk down the tree together.  Log-product
    kernel (demo profile, f = 1): the integral over [e^-A(x), 1] of
    |theta_t 1(x)|^2 dt/t, by _vertical_sq at lnL = 0, the depth-0 row of
    ci_profile's sweep; points outside (0, 1) read 0.
    """
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    total = np.zeros(xs.shape)
    if isinstance(kernel, CantorKernel):
        depth = quad.point_atom_depth()
        walk = measure.descend(xs, min(quad.trunc_generation + 1, measure.depth))
        for (g, off, length, mass, idx, _), (_, _, _, _, child, alive) in pairwise(walk):
            # x lies in the strip of its generation-g node when it went on to
            # child 1 or 2 (the outer gaps are nonempty); where a node is
            # shorter than the float spacing at x, the first match decides.
            digit = child % 4
            strip = alive & ((digit == 1) | (digit == 2))
            for _, pts, o, ln, ms in _nodes(idx, strip, off, length, mass):
                c = _node_coefficient(measure, f, o, ln, ms, g, depth)
                total[pts] += c * c * LN2
    elif isinstance(kernel, LogProductKernel):
        inside = np.flatnonzero((xs > 0.0) & (xs < 1.0))
        p = xs[inside]
        zone = np.empty((2, CI_BLOCK_ROWS, max(24, quad.t_steps_per_band)))
        sq, mask = np.empty(p.size), np.empty(p.size, dtype=bool)
        A = kernel.f.exponent_batch(p).astype(float)
        _vertical_sq(p, A, _ln_sat(p), 0.0, zone, sq, mask)
        total[inside] = sq
    else:
        raise InvalidParams("vertical_value supports the Cantor and log-product kernels")
    out = np.sqrt(total).reshape(x.shape)
    return out if out.ndim else float(out)


# -- L2 operator ratio ----------------------------------------------------------


def _node_coefficients(measure: CantorMeasure, fs: list[LeafFunction], n: int) -> list[np.ndarray]:
    """c_J(f) for every generation-n node J, per f in fs, vectorized.

    Atoms live at depth f.depth + 2 (at most 10); node sums are contiguous
    reshapes because the leaf order is the base-4 path order.  The atoms'
    bump table is built once per atom depth for all of fs.
    """
    sn, ln_, _ = measure.leaf_table(n)
    tables, out = {}, []
    for f in fs:
        A = min(f.depth + 2, 10)
        if A not in tables:
            starts, lens, masses = measure.leaf_table(A)
            blocks = 4 ** (A - n)
            centers, widths = np.repeat(sn + ln_ / 2.0, blocks), np.repeat(ln_, blocks)
            tables[A] = masses, bump((starts + lens / 2.0 - centers) / widths), blocks
        masses, phis, blocks = tables[A]
        fv = np.repeat(f.values, 4 ** (A - f.depth))
        integ = (masses * fv * phis).reshape(4**n, blocks).sum(axis=1)
        out.append(integ / ln_**measure.m)
    return out


def l2_operator_ratio(measure: CantorMeasure, f_samples: list[LeafFunction],
                      alpha: float, quad: QuadratureConfig):
    """max ||S f||^2 / ||f||^2 over leaf-vector samples, with the witness.

    ||S f||^2 = sum_n w(n, alpha) sum_J mu(J) c_J(f)^2; for generations at or
    below the leaf depth, c_J = f_leaf * beta(n) exactly, so those terms
    reduce to g(n, alpha) ||f||^2.  All samples share each generation's bump table.
    """
    _check_collapse_aperture(alpha)
    ctx = CantorSquareContext(measure, quad)
    N = quad.trunc_generation
    fsq = [f.l2_norm_sq() for f in f_samples]
    depths = [min(f.depth, N + 1) for f in f_samples]
    totals = [0.0] * len(f_samples)
    for n in range(max((D for D, q in zip(depths, fsq) if q != 0.0), default=0)):
        live = [i for i, (q, D) in enumerate(zip(fsq, depths)) if q != 0.0 and n < D]
        _, _, mn = measure.leaf_table(n)
        w = ctx.band_weight(n, alpha)
        for i, c in zip(live, _node_coefficients(measure, [f_samples[i] for i in live], n)):
            totals[i] += w * float(np.sum(mn * c ** 2))
    ratios = []
    for fq, D, total in zip(fsq, depths, totals):
        if fq == 0.0:
            ratios.append(0.0)
            continue
        for n in range(D, N + 1):
            [(g, _)] = ctx.g_term(n, (alpha,))
            total += g * fq
        ratios.append(total / fq)
    best = max(ratios, default=0.0)
    witness = f_samples[ratios.index(best)] if best > 0.0 else None  # the first at the max
    return best, witness, ratios


# -- testing functional -----------------------------------------------------------


@dataclass
class TestingResult:
    """Per-cube arrays of the testing functional, row i for cube i.

    cubes is (n, 2) of (a, b) floats; degenerate marks the cubes with
    not b > a in floats (a + len == a), whose mu(3R) reads 0.  ratio is 0
    where mu(3R) is not positive.
    """

    cubes: np.ndarray
    box_integral: np.ndarray
    mass_3r: np.ndarray
    degenerate: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        num, den = self.box_integral, self.mass_3r
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    @property
    def sup_ratio(self) -> float:
        return float(self.ratio.max())


def testing_functional(measure, nodes, quad: QuadratureConfig) -> TestingResult:
    """sup over cubes R of mu(3R)^-1 * box integral of |theta_t 1|^2 for
    the Cantor kernel, the cubes R being construction nodes.

    nodes are integer (g, i) pairs with 0 <= g <= min(depth, 31) (int64
    holds 4**31) and 0 <= i < 4**g in leaf_table(g)'s order; anything else
    is InvalidParams.  theta_t 1 is beta(n) on each generation-n node J's
    band, J's middle children x (L_J / 2, L_J).  The bands of the nodes
    inside R give mass(R) times the tail sum_{n >= g} g_V(n) of
    vertical_norm_series to N = min(trunc_generation, depth - 1), 0 past N;
    an ancestor J whose middle child holds R adds beta^2 mass(R)
    log(len(R) / (L_J / 2)) if len(R) > L_J / 2 (at C = 4 the generation-1
    middle children are L_J long, at the defaults under 0.01 L_J).  mu(3R),
    for the ratio, is one interval_masses call.
    """
    try:
        nodes = np.asarray(nodes)
    except ValueError as e:  # ragged
        raise InvalidParams(f"nodes must be pairs: {e}") from None
    if not nodes.size:
        raise EmptyCubeList("testing functional needs at least one cube")
    top, ok = min(measure.depth, 31), nodes.dtype.kind in "iu" and nodes.shape[1:] == (2,)
    g, i = nodes.astype(np.int64).T if ok else (-1, 0)  # (-1, 0): no node, refused below
    if not np.all((0 <= g) & (g <= top) & (0 <= i) & (i < 4 ** np.clip(g, 0, top))):
        raise InvalidParams("Cantor cubes are construction nodes: integer (generation g, "
                            f"index i) pairs with 0 <= g <= {top} and 0 <= i < 4**g")
    N, ctx = min(quad.trunc_generation, measure.depth - 1), CantorSquareContext(measure, quad)
    a, length, mass = np.zeros(g.size), np.ones(g.size), np.ones(g.size)
    middle = []  # (h, rows, L_J): the nodes in a middle child of their generation-h ancestor J
    for k in range(1, g.max() + 1):  # one base-4 digit a step, split as in leaf_table
        geo, on = measure.geometry[k], np.flatnonzero(g >= k)
        d = (i[on] >> 2 * (g[on] - k)) & 3
        middle.append((k - 1, on[d % 3 > 0], geo.L * length[on[d % 3 > 0]]))
        kids = geo.split(a[on], length[on], mass[on])
        a[on], length[on], mass[on] = (v.reshape(-1, 4)[np.arange(on.size), d] for v in kids)
    terms = vertical_norm_series(measure, N, quad).terms
    boxes = mass * np.array([terms[n:].sum() for n in range(g.max() + 1)])[g]
    for h, rows, L in middle[:N + 1]:  # J's band under t < len(R) <= L_J; log 1 = 0 if none
        ratio = np.divide(length[rows], L / 2, out=np.ones_like(L), where=length[rows] > L / 2)
        boxes[rows] += ctx.beta(h) ** 2 * mass[rows] * np.log(ratio)
    b = a + length
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    m3 = measure.interval_masses(mid - 3 * half, mid + 3 * half)
    return TestingResult(np.column_stack((a, b)), boxes, m3, ~(b > a))


def _ci_segment_table(f, ends: np.ndarray, extra: np.ndarray):
    """Segment decomposition for the C_I sweep between the first and last of
    ends, a run of consecutive f.breakpoints(), as floats.

    Breakpoints: every demo piece endpoint j/D on the lattice 1/D,
    D = 3 * 2**30 for N = 4 (not all dyadic: |E_3| = 1/1536; j / D is one
    correctly rounded division of exact doubles, so it equals
    float(Fraction(j, D))), merged with the sorted points of extra from the
    first end up to, not including, the last: every depth-max_depth cube
    boundary (so segments never straddle a cube at any shallower level) and
    geometric subdivision points near 0 and 1 (the saturation scale
    min(x, 1-x) varies fast there).  Runs that share their end breakpoints
    tile [0, 1] with the segments of one global sorted table.  The
    per-segment exponent A is evaluated exactly on the double segment
    midpoint by f.exponent_batch.
    """
    ends = ends / f.lattice
    inside = extra[np.searchsorted(extra, ends[0]):np.searchsorted(extra, ends[-1])]
    bp = _sorted_unique(np.concatenate([ends, inside]))
    mids = (bp[:-1] + bp[1:]) / 2.0
    return bp, mids, f.exponent_batch(mids).astype(float)


def _ln_sat(x: np.ndarray) -> np.ndarray:
    """ln(min(x, 1 - x) / 2) elementwise (the argument floored at 1e-300),
    in one new array: theta_t 1(x) is saturated for t up to its exp."""
    ln_sat = np.subtract(1.0, x)
    np.minimum(x, ln_sat, out=ln_sat)
    np.divide(ln_sat, 2.0, out=ln_sat)
    np.maximum(ln_sat, 1e-300, out=ln_sat)
    return np.log(ln_sat, out=ln_sat)


def _vertical_sq(x, A, ln_sat, lnL: float, zone, out, mask) -> tuple[int, int]:
    """out = integral over [e^-A, e^lnL] of |theta_t 1(x)|^2 dt/t, the
    log-product kernel's theta-integral (mu = dx), elementwise in x in
    [0, 1]; A is the float exponent A(x), ln_sat is _ln_sat(x), mask scratch.

    theta_t 1(x) is exactly the full phi_v mass 3 once t <= min(x, 1-x)/2,
    so the part below ln sat is 9 times a log length.  The boundary zone
    [max(ln sat, -A), lnL] is a midpoint rule in log t with zone.shape[2]
    steps (theta_unit, exact on [0, 1]), in blocks of CI_BLOCK_ROWS rows
    whose t and theta live in zone: a block fits in one core's L2 cache, and
    each row's mean is reduced on its own, so no row's digits depend on the
    others.  Returns the zone's element (rows x steps) and block counts.
    """
    np.minimum(ln_sat, lnL, out=out)
    np.add(out, A, out=out)
    np.maximum(0.0, out, out=out)
    np.multiply(9.0, out, out=out)
    np.less(ln_sat, lnL, out=mask)
    mask &= A > -lnL  # -A < lnL, without a negated copy of A
    if not mask.any():
        return 0, 0
    steps = zone.shape[2]
    u = (np.arange(steps) + 0.5) / steps
    rows, blocks = np.flatnonzero(mask), 0
    for i in range(0, rows.size, CI_BLOCK_ROWS):
        blk = rows[i:i + CI_BLOCK_ROWS]
        lo = np.maximum(ln_sat[blk], -A[blk])
        span = lnL - lo
        t, theta = zone[0, :blk.size], zone[1, :blk.size]
        np.multiply(span[:, None], u, out=t)
        np.exp(np.add(lo[:, None], t, out=t), out=t)
        theta_unit(t, x[blk, None], out=theta)
        out[blk] += span * np.mean(np.square(theta, out=theta), axis=1)
        blocks += 1
    return rows.size * steps, blocks


def ci_profile(kernel: LogProductKernel, max_depth: int, quad: QuadratureConfig) -> dict:
    """C_I / len(I) for every dyadic I in [0,1] down to max_depth.

    C_I is the integral over I of _vertical_sq at lnL = ln len(I) (which
    vertical_value reads at lnL = 0), with max(24, t_steps_per_band) steps,
    by the midpoint rule on a segment table on whose segments A(x) is
    constant.  The zone buffer is made once per call: fresh 256 KB arrays
    per block cost the first demo N = 4 sweep of a new process about 56,000
    page faults.

    The segments are swept in chunks of SEGMENT_CHUNK breakpoint intervals: each
    chunk builds its segment table once, runs every depth on it and is
    dropped, so no array spans the whole table.  Each depth adds its terms to
    its 2**d boxes with np.add.at in segment order, the additions one
    np.bincount over the whole table makes, so chunking moves no digit
    either.  x = 1 (the last segment's midpoint rounds to it) counts in the
    last cube.  Returns the sup ratio, the per-depth sups, the witness cube
    and, for stdout, the zone's element (rows x steps) and block counts; a
    block never spans two chunks.
    """
    f = kernel.f
    oct_pts = 2.0 ** (-(np.arange(1, 481)) / 8.0)
    extra = _sorted_unique(np.concatenate([
        np.arange(2**max_depth + 1) / 2**max_depth,
        oct_pts,
        1.0 - oct_pts,
    ]))
    boxes = [np.zeros(2**d) for d in range(max_depth + 1)]
    zone = np.empty((2, CI_BLOCK_ROWS, max(24, quad.t_steps_per_band)))  # t and theta of one row block
    elements = blocks = 0
    ends = f.breakpoints()
    for start in range(0, ends.size - 1, SEGMENT_CHUNK):
        bp, mids, A = _ci_segment_table(f, ends[start:start + SEGMENT_CHUNK + 1], extra)
        widths = np.diff(bp)
        del bp
        # One array per segment of the chunk for each of ln sat, the inner
        # integral and the cube index; every depth reuses them through out=
        # (the same ufuncs on the same operands, so the same bits).
        ln_sat = _ln_sat(mids)
        inner = np.empty(mids.size)
        cube = np.empty(mids.size, dtype=int)
        mask = np.empty(mids.size, dtype=bool)
        for d, box in enumerate(boxes):
            ell = 0.5**d
            # min(floor(mids / ell), 2**d - 1) as int, with inner as the float scratch.
            np.copyto(cube, np.floor(np.divide(mids, ell, out=inner), out=inner), casting="unsafe")
            np.minimum(cube, box.size - 1, out=cube)
            e, b = _vertical_sq(mids, A, ln_sat, math.log(ell), zone, inner, mask)
            elements, blocks = elements + e, blocks + b
            np.add.at(box, cube, np.multiply(widths, inner, out=inner))
    per_depth, sup, witness = {}, 0.0, (0, 0)
    for d, box in enumerate(boxes):
        ratios = box / 0.5**d
        k = int(np.argmax(ratios))
        per_depth[d] = float(ratios[k])
        if ratios[k] > sup:
            sup = float(ratios[k])
            witness = (d, k)
    return {"sup": sup, "per_depth": per_depth, "witness": witness,
            "elements": elements, "blocks": blocks}


# -- weak (1,1) -------------------------------------------------------------------


@dataclass
class Weak11Result:
    sup_value: float
    witness_lambda: float
    l1_norm: float


def weak11_functional(kernel, measure, f: LeafFunction, lambda_grid,
                      quad: QuadratureConfig) -> Weak11Result:
    """sup over lambda of lambda * mu{S f > lambda} / ||f||_1, at aperture 1.

    S f is evaluated at leaf resolution: one value per validation-depth leaf,
    level sets measured by summing leaf masses.  Finer level-set structure is
    below truncation and intentionally out of reach.
    """
    if not isinstance(kernel, CantorKernel):
        raise InvalidParams("weak11_functional is defined for the Cantor kernel")
    l1 = f.l1_norm()
    if l1 == 0.0:
        return Weak11Result(0.0, 0.0, 0.0)
    starts, lens, masses = measure.leaf_table(f.depth)
    mids = starts + lens / 2.0
    values = conical_value(kernel, measure, f, mids, 1.0, quad)
    sup_value, witness = 0.0, 0.0
    for lam in lambda_grid:
        lam = float(lam)
        v = lam * float(np.sum(masses[values > lam])) / l1
        if v > sup_value:
            sup_value, witness = v, lam
    return Weak11Result(sup_value, witness, l1)
