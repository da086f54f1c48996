"""Kernel families s_t(x,y), their transforms, and size/continuity samplers.

Two concrete kernels:

* CantorKernel: active when x lies in the two middle children of some node I
  of the construction tree and t is in the node's band [L_I/2, L_I]; there it
  equals a smooth bump adapted to I over len(I)**m.  It is deliberately
  discontinuous in x across strip boundaries -- no first-variable regularity
  is ever used.
* LogProductKernel: phi_{V,t}(x - y) for x in [0,1] and f(x) <= t <= 1, zero
  otherwise, with m = alpha = 1.

Every kernel's evaluate(t, x, y) returns s_t on the broadcast shape of its
three arguments, or a float when all three are scalars; it walks the tree or
reads exponents on the broadcast shape of (t, x) alone, so (t, x) columns
against rows of y are walked once each.  The Cantor kernel walks them down
the tree together (CantorMeasure.descend) and takes x to be in a node's strip
when descend's first-match rule sends it on to child 1 or 2; the log-product
kernel takes its exponents from LogProductFn.exponent_batch.  Powers, squares
and logs are numpy ufuncs on arrays, also for scalar arguments, which reach
them as 0-d or masked 1-d arrays.  A ufunc gives each element the same bits
whatever its position or the array's length, so a batch value equals the
one-point value bit for bit; a Python float's or numpy scalar's ** calls libm
instead, which can differ in the last place.  locate and LogProductFn.exponent
stay as the one-point oracles.

The size and continuity checkers are samplers, not proofs: they stratify
over the kernels' active bands, add adversarial edge points, and report the
worst observed ratio with its witness.  sample_active(rng, n) returns
float64 arrays (t, x, nodes), nodes (n, 2) of (offset, length) or None.  A
checker works through its actives in blocks of at most POINT_BLOCK points:
each block draws its y in one stream-exact sample_y call (_branch_draws; the
blocks' calls chain to the one-call stream), evaluates its points and folds
them into the running maxima.

The stream premise: rng.random(k) turns k 64-bit words W into (W >> 11) 2^-53,
so W >> 11 = double * 2^53, and leaves the held 32-bit half-word alone;
rng.integers(0, 4) is the top two bits of the held half-word, else of a new
word's low half, whose high half it holds (Lemire's method never rejects a
power-of-two range).  CantorKernel.sample_active reads a block's words in
per-point order, then redraws the words used and sets the held half-word.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .errors import InvalidParams, NegativeRadius, WrongProfile
from .logproduct import LogProductFn
from .measures import CantorMeasure, NodeGeometry
from .rng import derive_rng

__all__ = [
    "bump",
    "phi_v",
    "phi_v_antiderivative",
    "theta_unit",
    "ActiveRegion",
    "CantorKernel",
    "LogProductKernel",
    "TildeKernel",
    "StepKernel",
    "node_atoms",
    "strip_atoms",
    "check_size_condition",
    "check_holder_condition",
    "ConditionReport",
    "HolderReport",
]


# -- profiles -------------------------------------------------------------------


def _broadcast(*args):
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))


def bump(u):
    """cos^2(pi u) on [-1/2, 1/2]: even, vanishing at the endpoints, peak 1 at 0."""
    u = np.asarray(u, dtype=float)
    # np.square, not **: a numpy scalar's ** calls libm pow.
    out = np.where(np.abs(u) <= 0.5, np.square(np.cos(np.pi * u)), 0.0)
    return out if out.ndim else float(out)


def phi_v(z):
    """1 on [-1,1], C^1 smoothstep ramp to 0 on [1,2], even, support [-2,2]."""
    z = np.abs(np.asarray(z, dtype=float))
    u = np.clip(z - 1.0, 0.0, 1.0)
    ramp = 1.0 - 3.0 * np.square(u) + 2.0 * np.power(u, 3.0)
    out = np.where(z <= 2.0, ramp, 0.0)
    return out if out.ndim else float(out)


def _phi_v_half_integral(z, out=None):
    """integral of phi_v over [0, z] for z >= 0 (phi_v is even): min(z, 1)
    plus the ramp u - u^3 + u^4/2 at u = z - 1 on 1 < z < 2, and 1/2 past it.
    out, if given, may be z itself: the masks and the ramp are read first."""
    z = np.asarray(z, dtype=float)
    top, on = z >= 2.0, (z > 1.0) & (z < 2.0)
    u = z[on] - 1.0
    out = np.minimum(z, 1.0, out=np.empty_like(z) if out is None else out)  # an array also for 0-d z
    out[top] = 1.5
    out[on] += u - u**3 + u**4 / 2.0
    return out


def phi_v_antiderivative(z):
    """Phi(z) = integral of phi_v over (-inf, z]; Phi(inf) = 3."""
    z = np.asarray(z, dtype=float)
    out = 1.5 + np.sign(z) * _phi_v_half_integral(np.abs(z))
    return out if out.ndim else float(out)


def theta_unit(t, x, out=None):
    """theta_t 1_[0,1](x) = Phi(x/t) - Phi((x-1)/t), bit for bit, for 0 <= x <= 1
    and t > 0 only: there x/t >= 0, fl(x-1) = -fl(1-x) and sign(z) * h = +-h.

    With out, a float array of the broadcast shape (t then being one too),
    theta is written into out and t is used as scratch, so no array of that
    shape is allocated; without it, both are made here."""
    if out is None:
        shape = np.broadcast(t, x).shape
        t, out = np.array(np.broadcast_to(t, shape), dtype=float), np.empty(shape)
    h = np.add(1.5, _phi_v_half_integral(np.divide(x, t, out=out), out=out), out=out)
    g = np.subtract(1.5, _phi_v_half_integral(np.divide(1.0 - x, t, out=t), out=t), out=t)
    np.subtract(h, g, out=out)
    return out if out.ndim else float(out)


# -- Cantor kernel ----------------------------------------------------------------


@dataclass(frozen=True)
class ActiveRegion:
    """The unique node I with x in its middle strip and t in [L_I/2, L_I]."""

    generation: int  # local generation of I (0 = root)
    offset: float
    length: float
    mass: float
    t_lo: float
    t_hi: float


class CantorKernel:
    """s_t(x,y) = bump_I(y) / len(I)**m on the active strip/band pairs, else 0.

    Constant in x across the active strip, so it carries no x-regularity;
    the declared exponents are (m, alpha=1).
    """

    alpha = 1.0

    def __init__(self, measure: CantorMeasure):
        self.measure = measure
        self.m = measure.m

    def locate(self, x: float, t: float) -> Optional[ActiveRegion]:
        """Walk x's node chain; bands decrease strictly, so at most one hit.

        Each step takes the first child with c_off <= x <= c_off + c_len,
        descend's rule; x is in the strip when that child is 1 or 2.
        """
        meas = self.measure
        off, length, mass = 0.0, 1.0, 1.0
        if not (0.0 <= x <= 1.0) or t <= 0.0:
            return None
        for g in range(0, meas.depth):
            geo = meas.geometry[g + 1]
            L_abs = geo.L * length
            if t > L_abs:
                return None
            for j in range(4):
                coff = off + geo.child_offsets[j] * length
                clen = geo.child_lengths[j] * length
                if coff <= x <= coff + clen:
                    break
            else:
                return None  # x is in a gap
            if t >= L_abs / 2.0:
                return ActiveRegion(g, off, length, mass, L_abs / 2.0, L_abs) if j in (1, 2) else None
            off, length, mass = coff, clen, mass * geo.child_masses[j]
        return None

    def evaluate(self, t, x, y):
        """s_t(x, y) elementwise; each (t, x) walks x's node chain as in locate."""
        t, x = _broadcast(t, x)
        meas = self.measure
        # The active node per (t, x); it has L_abs >= t > 0, so length 0 marks none.
        node_off, node_len = np.zeros(t.shape), np.zeros(t.shape)
        pending = (0.0 <= x) & (x <= 1.0) & (t > 0.0)
        walk = meas.descend(x, meas.depth)
        for (g, off, length, _, _, alive), (_, _, _, _, child, on_tree) in pairwise(walk):
            L_abs = meas.geometry[g + 1].L * length
            pending &= alive & ~(t > L_abs)
            band = pending & (t >= L_abs / 2.0)
            digit = child % 4
            hit = band & on_tree & ((digit == 1) | (digit == 2))
            node_off[hit], node_len[hit] = off[hit], length[hit]
            pending &= ~band
            if not pending.any():
                break
        on, off, ln, y = np.broadcast_arrays(node_len > 0.0, node_off, node_len, y)
        out = np.zeros(on.shape)
        out[on] = bump((y[on] - (off[on] + ln[on] / 2.0)) / ln[on]) / ln[on]**self.m
        return out if out.ndim else float(out)

    def sample_active(self, rng: np.random.Generator, n: int):
        """Stratified (t, x, nodes) over strips and bands, plus edge points: per
        generation g, blocks of at most SAMPLE_BLOCK points, each read from one
        stream-exact draw of ceil(g/2) + 5 words a point (module docstring)."""
        meas = self.measure
        gens = range(0, min(meas.depth, 6))
        ts, xs, nodes = array("d"), array("d"), array("d")
        per = max(1, n // max(1, len(gens)))
        for g in gens:
            path, geo = [meas.geometry[k] for k in range(1, g + 1)], meas.geometry[g + 1]
            for start in range(0, per, SAMPLE_BLOCK):
                count = min(SAMPLE_BLOCK, per - start)
                state = rng.bit_generator.state
                has, held = state["has_uint32"], state["uinteger"] << 21  # held as W >> 11
                d, i = rng.random(count * ((g + 1) // 2 + 5)).tolist(), 0
                for _ in range(count):
                    # Random node at generation g via a random child path.
                    off, length = 0.0, 1.0
                    for step in path:
                        if not has:  # W >> 11 of a new word W; its high half is then held
                            held, i = int(d[i] * 2.0**53), i + 1
                        j, has = (held >> 51 if has else held >> 19 & 3), 1 - has
                        off += step.child_offsets[j] * length
                        length *= step.child_lengths[j]
                    L_abs = geo.L * length
                    j = 1 if d[i] < 0.5 else 2
                    lo = off + geo.child_offsets[j] * length
                    hi = lo + geo.child_lengths[j] * length
                    u, i = d[i + 1], i + 2
                    if u < 0.15:
                        x = lo  # strip edge
                    elif u < 0.3:
                        x = hi
                    else:
                        x, i = lo + (hi - lo) * d[i], i + 1  # rng.uniform(lo, hi), bit for bit
                    v, i = d[i], i + 1
                    if v < 0.15:
                        t = L_abs / 2.0  # band edge
                    elif v < 0.3:
                        t = L_abs
                    else:
                        a, b = math.log(L_abs / 2.0), math.log(L_abs)
                        t, i = math.exp(a + (b - a) * d[i]), i + 1
                    ts.append(t), xs.append(x), nodes.extend((off, length))
                rng.bit_generator.state = state
                rng.random(i)
                rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": has, "uinteger": held >> 21}
        return np.frombuffer(ts), np.frombuffer(xs), np.frombuffer(nodes).reshape(-1, 2)

    def sample_y(self, rng: np.random.Generator, t, x, nodes):
        """The bump's support edges (u < 0.2, 0.4), else uniform on the node."""
        off, length = nodes.T
        u, w = _branch_draws(rng, len(off), 0.4)
        end = length + off
        return np.where(u < 0.2, off, np.where(u < 0.4, off + length, off + (end - off) * w))


class LogProductKernel:
    """s_t(x,y) = phi_{V,t}(x-y) when x in [0,1] and f(x) <= t <= 1, else 0."""

    def __init__(self, f: LogProductFn):
        if f.profile != "demo":
            raise WrongProfile("the log-product kernel needs the demo profile")
        self.f = f
        self.m = 1.0
        self.alpha = 1.0

    def active(self, x, t):
        """x in [0,1] and f(x) <= t <= 1, elementwise over broadcast x, t."""
        x, t = _broadcast(x, t)
        xf, tf = x.ravel(), t.ravel()
        on = (0.0 <= xf) & (xf <= 1.0) & (0.0 < tf) & (tf <= 1.0)
        i = np.flatnonzero(on)
        # Comparison in log space: t >= e^-A  <=>  ln t >= -A (A exact integer).
        on[i] = np.log(tf[i]) >= -self.f.exponent_batch(xf[i])
        on = on.reshape(x.shape)
        return on if on.ndim else bool(on)

    def evaluate(self, t, x, y):
        t, x = _broadcast(t, x)
        on, t, x, y = np.broadcast_arrays(self.active(x, t), t, x, y)
        out = np.zeros(t.shape)
        out[on] = phi_v((x[on] - y[on]) / t[on]) / t[on]
        return out if out.ndim else float(out)

    def sample_active(self, rng: np.random.Generator, n: int):
        """(t, x, None) with x uniform and ln t uniform on [ln t_lo, 0], where
        t_lo = max(e^-min(A(x), 30), 1e-9).

        Each row of draws is (x, u), the order of rng.random() followed by
        rng.uniform(lo, 0.0), which computes lo + (0.0 - lo) * u; lo = ln t_lo
        is taken once per distinct A.
        """
        x, u = rng.random((n, 2)).T
        A = self.f.exponent_batch(x).tolist()
        lo = {a: math.log(max(math.exp(-min(a, 30)), 1e-9)) for a in set(A)}
        t = np.fromiter((math.exp(lo[a] + (0.0 - lo[a]) * v) for a, v in zip(A, u.tolist())), float, n)
        return t, x, None

    def sample_y(self, rng: np.random.Generator, t, x, nodes):
        """Support edge x + 2t (u < 0.2), plateau edge x - t (u < 0.3), else near x."""
        u, w = _branch_draws(rng, len(t), 0.3)
        lo = -2.5 * t
        return np.where(u < 0.2, x + 2.0 * t, np.where(u < 0.3, x - t, x + (lo + (2.5 * t - lo) * w)))


class TildeKernel:
    """(mu(B(x,t)) / t**m)**(1/2) * s_t(x,y); declared exponents unchanged."""

    def __init__(self, base, measure):
        self.base = base
        self.measure = measure
        self.m = base.m
        self.alpha = base.alpha

    def factor(self, t, x):
        """(mu(B(x,t)) / t**m)**(1/2), elementwise over broadcast t > 0, x."""
        t, x = _broadcast(t, x)
        if np.any(t < 0.0):
            raise NegativeRadius(f"radius {t[t < 0.0][0]} < 0")
        if not np.all(t > 0.0):
            raise InvalidParams(f"the tilde factor needs t > 0, got {t[~(t > 0.0)][0]}")
        mass = self.measure.interval_masses((x - t).ravel(), (x + t).ravel()).reshape(t.shape)
        out = np.sqrt(mass / t**self.m)
        return out if out.ndim else float(out)

    def evaluate(self, t: float, x: float, y):
        return self.factor(t, x) * self.base.evaluate(t, x, y)

    def sample_active(self, rng, n):
        return self.base.sample_active(rng, n)

    def sample_y(self, rng, t, x, nodes):
        return self.base.sample_y(rng, t, x, nodes)


class StepKernel:
    """Adversarial fixture: piecewise constant in y, hence not Hoelder."""

    alpha = 1.0

    def __init__(self, m: float = 0.4):
        self.m = m

    def evaluate(self, t, x, y):
        t, x, y = _broadcast(t, x, y)
        on = (np.abs(x - y) <= 2.0 * t) & (y >= x)
        out = np.zeros(t.shape)
        out[on] = t[on]**self.alpha / t[on]**(self.m + self.alpha)
        return out if out.ndim else float(out)

    def sample_active(self, rng, n):
        """Rows (u, x) of draws as rng.uniform(lo, 0.0) and rng.random() take them."""
        lo = math.log(0.05)
        u, x = rng.random((n, 2)).T
        return np.array([math.exp(lo + (0.0 - lo) * v) for v in u.tolist()]), x, None

    def sample_y(self, rng, t, x, nodes):
        """The step x (u < 0.25), support edge x + 2t (u < 0.5), else near x."""
        u, w = _branch_draws(rng, len(t), 0.5)
        lo = -2.0 * t
        return np.where(u < 0.25, x, np.where(u < 0.5, x + 2.0 * t, x + (lo + (2.0 * t - lo) * w)))


# -- theta quadrature ---------------------------------------------------------------


# Below the truncation depth a node splits into four equal quarters.
_QUARTERS = NodeGeometry(child_offsets=(0.0, 0.25, 0.5, 0.75),
                         child_lengths=(0.25,) * 4, child_masses=(0.25,) * 4, L=0.25)


def node_atoms(measure: CantorMeasure, off: float, length: float, mass: float,
               local_gen: int, extra_depth: int):
    """(midpoints, widths, weights) of the measure restricted to one node.

    Expands the subdivision tree extra_depth more levels; below the
    truncation depth leaves split uniformly (mass proportional to length),
    matching the measure's below-truncation convention.
    """
    offs, lens, mas = np.array([off]), np.array([length]), np.array([mass])
    for k in range(local_gen + 1, local_gen + extra_depth + 1):
        offs, lens, mas = measure.geometry.get(k, _QUARTERS).split(offs, lens, mas)
    return offs + lens / 2.0, lens, mas


def strip_atoms(measure: CantorMeasure, off: float, length: float, mass: float,
                gen: int, extra: int):
    """(midpoints, weights) of the measure on the two middle children (the
    strip) of a generation-gen node, each expanded by node_atoms."""
    geo = measure.geometry[gen + 1]
    parts = [
        node_atoms(measure, off + geo.child_offsets[j] * length, geo.child_lengths[j] * length,
                   mass * geo.child_masses[j], gen + 1, extra)
        for j in (1, 2)
    ]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[2] for p in parts])


# -- condition checkers ----------------------------------------------------------


@dataclass
class ConditionReport:
    worst_ratio: float
    witness: tuple[float, float, float]
    n_samples: int


@dataclass
class HolderReport:
    worst_ratio: float
    witness: tuple[float, float, float, float]
    per_scale: list[tuple[float, float]]  # (separation scale, worst ratio at that scale)
    per_scale_anchored: list[tuple[float, float]]  # pairs with (t, x, y) held fixed
    n_samples: int

    @property
    def scale_growth(self) -> float:
        """Anchored worst-ratio growth across the finest two separation decades.

        Anchored pairs keep (t, x, y) fixed while |y-z| shrinks, so the
        (t + |x-y|) factor is scale-independent and a genuine Hoelder
        violation shows the full 10x growth per decade.
        """
        usable = [r for _, r in self.per_scale_anchored if r > 0]
        if len(usable) < 2:
            return 0.0
        return usable[-1] / usable[-2]

    @property
    def looks_unbounded(self) -> bool:
        """Heuristic flag: ratios grew close to 10x per decade of separation."""
        return self.scale_growth >= 8.0


def _branch_draws(rng: np.random.Generator, n: int, cut: float):
    """(u, w) over n points as per-point draws take them: u = rng.random(), then
    w = rng.random() only where u >= cut (0 elsewhere); a sampler's uniform is
    lo + (hi - lo) * w, as rng.uniform(lo, hi) computes it.  rng.random(k) gives
    k scalar calls' doubles and never touches the buffered 32-bit word, so 2n
    draws, a restored state and the p draws used leave rng where they would."""
    if n == 0:
        return np.empty(0), np.empty(0)
    state = rng.bit_generator.state
    buf = rng.random(2 * n)
    # Position k holds a u unless it follows a u >= cut: in each run of doubles
    # >= cut, u and w alternate from its start.  The n-th u is at 2n - 2 or before.
    k = np.arange(2 * n)
    run_start = np.maximum.accumulate(np.where(np.concatenate(([True], buf[:-1] < cut)), k, 0))
    pos = np.flatnonzero((k - run_start) % 2 == 0)[:n]
    u = buf[pos]
    drawn = u >= cut
    w = np.where(drawn, buf[pos + 1], 0.0)
    rng.bit_generator.state = state
    rng.random(int(pos[-1] + 1 + drawn[-1]))
    return u, w


def _sample_points(kernel, rng, actives, per: int):
    """The actives' t and x as (n, 1) columns and their sampled y as (n, per),
    drawn in the order of the actives by one sample_y call."""
    t, x, nodes = (None if a is None else np.repeat(a, per, axis=0) for a in actives)
    return actives[0][:, None], actives[1][:, None], kernel.sample_y(rng, t, x, nodes).reshape(-1, per)


# Points per block of the checkers: a value depends on its own point only and
# sample_y calls chain, so blocks bound the working set without moving a bit.
POINT_BLOCK = 8192
SAMPLE_BLOCK = 512  # points per stream-exact draw of CantorKernel.sample_active


def _active_blocks(actives, points_per_active: int):
    """The actives (t, x, nodes) in slices of at most POINT_BLOCK points."""
    step = max(1, POINT_BLOCK // points_per_active)
    for k in range(0, len(actives[0]), step):
        yield tuple(None if a is None else a[k:k + step] for a in actives)


def _ratios(v, t, x, y, scale, m: float, alpha: float) -> np.ndarray:
    """v (t + |x-y|)^(m+alpha) / scale^alpha where v != 0, else 0, over the
    broadcast shape; v may be a scalar (a duck-typed kernel's answer)."""
    v, t, x, y, scale = np.broadcast_arrays(v, t, x, y, scale)
    out = np.zeros(v.shape)
    nz = v != 0.0
    out[nz] = v[nz] * (t[nz] + np.abs(x[nz] - y[nz]))**(m + alpha) / scale[nz]**alpha
    return out


def _worst(ratios: np.ndarray, *point):
    """The first largest ratio and its point (broadcast coordinates), as a strict
    > scan from 0 finds them; 0 and the zero point when no ratio is positive."""
    if not (ratios > 0.0).any():
        return 0.0, (0.0,) * len(point)
    k = int(np.argmax(ratios))
    return float(ratios.flat[k]), tuple(float(np.broadcast_to(c, ratios.shape).flat[k]) for c in point)


def check_size_condition(kernel, n_samples: int, seed: int) -> ConditionReport:
    """Worst |s_t(x,y)| (t + |x-y|)^(m+alpha) / t^alpha over stratified samples."""
    rng = derive_rng(seed, "size-condition")
    actives = kernel.sample_active(rng, n_samples)
    worst, witness = 0.0, (0.0,) * 3
    for block in _active_blocks(actives, 3):
        t, x, y = _sample_points(kernel, rng, block, 3)
        ratios = _ratios(np.abs(kernel.evaluate(t, x, y)), t, x, y, t, kernel.m, kernel.alpha)
        w, point = _worst(ratios, t, x, y)
        if w > worst:  # strict: the first largest ratio across blocks
            worst, witness = w, point
    return ConditionReport(worst_ratio=worst, witness=witness, n_samples=len(actives[0]) * 3)


def check_holder_condition(kernel, n_samples: int, seed: int) -> HolderReport:
    """Worst |s_t(x,y) - s_t(x,z)| (t + |x-y|)^(m+alpha) / |y-z|^alpha.

    Pairs satisfy |y - z| < t/2 and are stratified over separation scales
    t/2 * 10^-j so a genuinely non-Hoelder kernel shows ratio growth as the
    separation shrinks.
    """
    rng = derive_rng(seed, "holder-condition")
    scales = [0.4 * 10.0**-j for j in range(4)]
    n_scales = len(scales)
    actives = kernel.sample_active(rng, max(1, n_samples // n_scales))
    worst, witness = 0.0, (0.0,) * 4
    per_scale = per_anchor = np.zeros(n_scales)
    for block in _active_blocks(actives, n_scales * 5):
        # One sampled center y0 per active; reused across scales so per-scale
        # worst ratios are comparable and growth is detectable.
        t, x, y0 = (a[:, :, None] for a in _sample_points(kernel, rng, block, 1))
        delta = t * np.array(scales)[None, :, None]  # < t/2 by construction
        half = delta / 2
        # Per (active, scale), five pairs in this order: three anchored pairs keep
        # the evaluation point fixed; two moving pairs straddle the sampled point
        # and x, where x-anchored kernel features (steps, plateau edges) live.
        y = np.concatenate(np.broadcast_arrays(y0, y0, x, y0 + half, x + half), axis=2)
        z = np.concatenate(
            np.broadcast_arrays(y0 + delta, y0 - delta, x - delta, y0 - half, x - half), axis=2
        )
        dv = np.abs(kernel.evaluate(t, x, y) - kernel.evaluate(t, x, z))
        ratios = _ratios(dv, t, x, y, delta, kernel.m, kernel.alpha)
        by_scale = ratios.reshape(-1, n_scales, 5)
        per_scale = np.maximum(per_scale, by_scale.max(axis=(0, 2), initial=0.0))
        per_anchor = np.maximum(per_anchor, by_scale[:, :, :3].max(axis=(0, 2), initial=0.0))
        w, point = _worst(ratios, t, x, y, z)
        if w > worst:
            worst, witness = w, point
    return HolderReport(
        worst_ratio=worst,
        witness=witness,
        per_scale=[(s, float(r)) for s, r in zip(scales, per_scale)],
        per_scale_anchored=[(s, float(r)) for s, r in zip(scales, per_anchor)],
        n_samples=len(actives[0]) * n_scales * 5,
    )
