"""Counterexample function f = prod f_n built from equally spaced set families.

Each factor is e**(-a_n) on a union E_n of 2**k_exp equally spaced pieces and
1 elsewhere, so ln(1/f(t)) is the integer A(t) = sum a_n * 1_{E_n}(t).  All
set queries (membership, overlaps, piece counts, Carleson bounds) run on exact
integer numerators over one common denominator, shifted by k_n's exponent;
pieces are never enumerated, so k_n may be an astronomically large power of
two.  A piece count is built only when a caller asks for it
(`SpacedSetFamily.overlap`); for the paper profile it has up to 24 million
bits, so measure-only callers use `SpacedSetFamily.overlap_measure`.

Two parameter profiles:

* "paper": a_n = (n * 2**n)**n, k_n chosen so 2/k_n <= exp(-sum_{j<=n} a_j).
  All per-factor inequalities are exact; capped at N = 4 because the k_5
  exponent (~1.5e11 bits) exceeds any practical budget.
* "demo": a_n = n, mass budget |E_n| a_n = 8**-n, same spacing rule for k_n.
  The slow exponent growth keeps every breakpoint enumerable (k_4 = 2**16),
  which the direct Carleson integrals and exact moment sweeps need.  Every
  piece endpoint lies on the lattice (1/D)Z with D = 3 * 2**30 for N = 4, so
  the breakpoints (deduplicated in place by sorting) and the chunked moment
  sweep run on int64 numerators over D, while `exponent` and `_segments` stay
  exact rational references.  The fast-decaying budget makes the truncated
  Carleson profile stabilize within a few percent by N = 2, so per-interval
  checks are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import (
    DegenerateInterval,
    ExponentOverflow,
    InvalidParams,
    OutOfDomain,
    QuadratureBudgetExceeded,
    WrongProfile,
)

__all__ = [
    "SpacedSetFamily",
    "LogProductFn",
    "build_logproduct",
    "eval_f",
    "carleson_log_bound",
    "lp_divergence_witness",
    "log_moments",
    "LOG2E_HI",
]

Rational = Union[Fraction, int]

# Certified rational upper bound: log2(e) < LOG2E_HI.
# log2(e) = 1.4426950408889634074...
LOG2E_HI = Fraction(14426950408889635, 10**16)
SEGMENT_CHUNK = 16384  # breakpoint intervals per chunk of log_moments and sqfn.ci_profile (128 KB per segment array)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class SpacedSetFamily:
    """k = 2**k_exp pieces of length total_measure/k, piece i at [i/k, i/k + len]."""

    n: int
    a_n: int
    total_measure: Fraction
    k_exp: int

    @property
    def piece_length(self) -> Fraction:
        return self.total_measure / (1 << self.k_exp)

    def contains(self, t: Rational) -> bool:
        """Membership by integer residue arithmetic; closed pieces."""
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise OutOfDomain(f"t={t} outside [0,1]")
        p, q = t.numerator, t.denominator
        if p == q:  # t = 1 lies beyond the last piece unless |E| = 1
            return self.total_measure == 1
        # t*k - floor(t*k) <= total_measure, cleared of denominators.
        r = (p << self.k_exp) % q
        return r * self.total_measure.denominator <= q * self.total_measure.numerator

    def _pieces_met(self, A: int, B: int, E: int) -> tuple[int, int]:
        """First and last index of the pieces meeting [A/E, B/E] (empty if first > last)."""
        tn, td = self.total_measure.numerator, self.total_measure.denominator
        # Piece i meets [a,b] iff i/k <= b and i/k + |E|/k >= a.
        i_min = -((tn * E - (A * td << self.k_exp)) // (td * E))
        return max(0, i_min), min((1 << self.k_exp) - 1, (B << self.k_exp) // E)

    def overlap_parts(self, A: int, B: int, E: int) -> tuple[int, int]:
        """|E ∩ [A/E, B/E]| as an unreduced (numerator, denominator) pair."""
        tn, td = self.total_measure.numerator, self.total_measure.denominator
        if E & (E - 1) == 0 and E.bit_length() - 1 <= self.k_exp:
            # Both ends dyadic no finer than 1/k: the equally spaced pieces tile
            # each dyadic cell of the piece lattice, so |E ∩ [a,b]| = |E| (b - a).
            return tn * (B - A), td * E
        i_min, i_max = self._pieces_met(A, B, E)
        if i_min > i_max:
            return 0, 1
        # Over W = E td k, [a, b] = [A td k, B td k] and piece i = [i td E, i td E + tn E].
        a, b, pl = A * td << self.k_exp, B * td << self.k_exp, tn * E
        ends = [min(b, i * td * E + pl) - max(a, i * td * E) for i in (i_min, i_max)]
        if i_min == i_max:
            return max(ends[0], 0), td * E << self.k_exp
        # Interior pieces lie fully inside [a,b] because |E|/k <= 1/k.
        return sum(ends) + (i_max - i_min - 1) * pl, td * E << self.k_exp

    def overlap_measure(self, a: Rational, b: Rational) -> Fraction:
        """Exact |E ∩ [a,b]|, without building the piece count."""
        return Fraction(*self.overlap_parts(*_span(a, b)))

    def overlap(self, a: Rational, b: Rational) -> tuple[Fraction, int]:
        """Exact |E ∩ [a,b]| and the number of pieces met.

        The count is an integer of up to k_exp bits; callers that need only
        the measure use overlap_measure.
        """
        A, B, E = _span(a, b)
        piece = Fraction(*self.overlap_parts(A, B, E))
        if A == B:
            return piece, 0
        if E & (E - 1) == 0 and E.bit_length() - 1 <= self.k_exp:  # (b - a) k, +1 if b < 1
            return piece, ((B - A) << (self.k_exp - E.bit_length() + 1)) + (B < E)
        i_min, i_max = self._pieces_met(A, B, E)
        return piece, (int(piece > 0) if i_min == i_max else max(0, i_max - i_min + 1))


def _parts(x: Rational) -> tuple[int, int]:
    return (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()


def _span(a: Rational, b: Rational) -> tuple[int, int, int]:
    """Validated [a, b] as numerators A, B over one denominator E = lcm."""
    (pa, qa), (pb, qb) = _parts(a), _parts(b)
    if not (0 <= pa and pa * qb <= pb * qa and pb <= qb):
        raise OutOfDomain(f"[{Fraction(pa, qa)}, {Fraction(pb, qb)}] not inside [0,1]")
    E = math.lcm(qa, qb)
    return pa * (E // qa), pb * (E // qb), E


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-D array by sorting (numpy 2.3+ hashes, ~40x slower here)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


@dataclass
class LogProductFn:
    profile: str
    N: int
    factors: tuple[SpacedSetFamily, ...]
    _breakpoints: Optional[np.ndarray] = None

    def exponent(self, t: Rational) -> int:
        """A(t) = sum of a_n over the families containing t; ln(1/f(t)) exactly."""
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise OutOfDomain(f"t={t} outside [0,1]")
        return sum(F.a_n for F in self.factors if F.contains(t))

    def exponent_budget(self) -> Fraction:
        """sum |E_n| a_n: exactly 1 - 2**-N (paper) or (1 - 8**-N)/7 (demo)."""
        return sum((F.total_measure * F.a_n for F in self.factors), Fraction(0))

    @property
    def lattice(self) -> int:
        """D such that every piece endpoint is j/D: 3 * 2**30 for demo N = 4."""
        if self.profile != "demo":
            raise WrongProfile("the breakpoint lattice needs the demo profile")
        return math.lcm(*(d for F in self.factors
                          for d in (1 << F.k_exp, F.piece_length.denominator)))

    def breakpoints(self) -> np.ndarray:
        """Sorted piece endpoints of every family plus 0 and 1, as int64
        numerators j of j/D over D = self.lattice (demo profile).

        Every family's starts and ends are written into one int64 array,
        which is sorted in place; repeats are then set past D and sorted to
        the end, so no second copy of the points is ever held."""
        D = self.lattice
        if self._breakpoints is None:
            pts = np.empty(2 + 2 * sum(1 << F.k_exp for F in self.factors), dtype=np.int64)
            pts[:2] = 0, D
            i = 2
            for F in self.factors:
                k = 1 << F.k_exp
                starts, ends = pts[i:i + k], pts[i + k:i + 2 * k]
                starts.fill(D // k)
                starts[0] = 0
                np.cumsum(starts, out=starts)  # i * (D // k), exact in int64
                np.add(starts, D // F.piece_length.denominator * F.piece_length.numerator, out=ends)
                i += 2 * k
            pts.sort()
            repeat = pts[1:] == pts[:-1]
            pts[1:][repeat] = D + 1
            pts.sort()
            self._breakpoints = pts[:pts.size - np.count_nonzero(repeat)]
        return self._breakpoints

    def exponent_batch(self, x) -> np.ndarray:
        """A(x) for an array of doubles in [0,1], equal to exponent(Fraction(x)).

        Since k_n = 2**k_exp, x * k_n is exact in binary floating point and
        modf gives the exact fractional part; comparing it with the largest
        double <= |E_n| decides t k_n mod 1 <= |E_n| exactly (demo profile).
        """
        if self.profile != "demo":
            raise WrongProfile("the batch exponent needs the demo profile")
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise OutOfDomain("exponent_batch needs points in [0,1]")
        A = np.zeros(x.shape, dtype=np.int64)
        for F in self.factors:
            frac = np.modf(np.ldexp(x, F.k_exp))[0]
            inside = frac <= _float_floor(F.total_measure)
            if F.total_measure != 1:  # t = 1 lies beyond the last piece
                inside &= x < 1.0
            A += F.a_n * inside
        return A


def _float_floor(q: Fraction) -> float:
    """The largest double <= q."""
    d = float(q)
    return d if Fraction(d) <= q else math.nextafter(d, -math.inf)


def eval_f(f: LogProductFn, t: Rational) -> tuple[int, float]:
    """Exact integer exponent A(t) and the double e**-A (0.0 on underflow)."""
    a = f.exponent(t)
    try:
        val = math.exp(-a)
    except OverflowError:
        val = 0.0
    return a, val


def build_logproduct(profile: str, N: int) -> LogProductFn:
    if N < 1:
        raise InvalidParams(f"N must be >= 1, got {N}")
    factors = []
    if profile == "paper":
        if N > 4:
            raise ExponentOverflow(
                "paper profile capped at N=4; the k_5 exponent needs ~1.5e11 bits"
            )
        a_cum = 0
        for n in range(1, N + 1):
            a_n = (n * 2**n) ** n
            a_cum += a_n
            # 2/k_n <= exp(-sum a_j) guaranteed through the certified log2(e) bound.
            k_exp = _ceil(1 + LOG2E_HI * a_cum)
            factors.append(
                SpacedSetFamily(n=n, a_n=a_n, total_measure=Fraction(1, 2**n * a_n), k_exp=k_exp)
            )
    elif profile == "demo":
        if N > 4:
            raise ExponentOverflow(
                "demo profile capped at N=4; beyond that the pieces are not enumerable"
            )
        a_cum = 0
        for n in range(1, N + 1):
            a_n = n
            a_cum += a_n
            k_exp = _ceil(1 + LOG2E_HI * a_cum)
            factors.append(
                SpacedSetFamily(n=n, a_n=a_n, total_measure=Fraction(1, 8**n * a_n), k_exp=k_exp)
            )
    else:
        raise InvalidParams(f"unknown profile {profile!r}")
    return LogProductFn(profile=profile, N=N, factors=tuple(factors))


@dataclass(frozen=True)
class CarlesonLogBound:
    cutoff: int
    bound: Fraction


def carleson_log_bound(f: LogProductFn, a: Rational, b: Rational) -> CarlesonLogBound:
    """Exact upper bound U(I) = sum_{n > N_I} a_n |E_n ∩ I| of the Carleson integral.

    N_I is the largest N with a certified len(I) <= exp(-sum_{n<=N} a_n); the
    certification compares against 2**-ceil(A * LOG2E_HI) = 2**-(k_N - 1)
    (the spacing rule of build_logproduct), which is at most one binary digit
    conservative, so the resulting bound always dominates the true integral.
    Both steps run on integer numerators over one denominator; only the
    final bound is reduced to a Fraction.
    """
    (pa, qa), (pb, qb) = _parts(a), _parts(b)
    if pb * qa <= pa * qb:
        raise DegenerateInterval(f"interval [{Fraction(pa, qa)}, {Fraction(pb, qb)}] has no length")
    A, B, E = _span(a, b)
    cutoff = 0
    for F in f.factors:
        if (B - A) << (F.k_exp - 1) > E:  # len(I) > 2**-(k_n - 1)
            break
        cutoff = F.n
    total, den = 0, 1  # sum of a_n |E_n ∩ I| as one unreduced fraction
    for F in f.factors:
        if F.n > cutoff:
            n, d = F.overlap_parts(A, B, E)
            total, den = total * d + F.a_n * n * den, den * d
    return CarlesonLogBound(cutoff=cutoff, bound=Fraction(total, den))


def _exact_nth_root(value: int, n: int) -> int:
    """Integer r with r**n == value; raises if value is not a perfect power."""
    r = round(value ** (1.0 / n))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**n == value:
            return cand
    raise InvalidParams(f"{value} is not a perfect {n}-th power")


def lp_divergence_witness(f: LogProductFn, n: int) -> Fraction:
    """|E_n| * a_n**(1 + 1/n), exact; the witness of the L^p blow-up, >= n."""
    if f.profile != "paper":
        raise WrongProfile("divergence witness is defined for the paper profile")
    if not (1 <= n <= f.N):
        raise OutOfDomain(f"n={n} outside 1..{f.N}")
    F = f.factors[n - 1]
    root = _exact_nth_root(F.a_n, n)
    return F.total_measure * F.a_n * root


def _segments(f: LogProductFn, a: Fraction, b: Fraction, budget: int):
    """(lo, hi, A) pieces of the exponent A(t) on [a,b], exact endpoints."""
    bp = f.breakpoints()
    D = f.lattice
    # The breakpoints strictly inside (a, b): a < j/D < b.
    i = int(np.searchsorted(bp, _floor(a * D), side="right"))
    j = int(np.searchsorted(bp, _ceil(b * D), side="left"))
    if j - i + 1 > budget:
        raise QuadratureBudgetExceeded(
            f"{j - i + 1} segments exceed the resolution budget {budget}"
        )
    pts = [a] + [Fraction(int(p), D) for p in bp[i:j]] + [b]
    out = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = (lo + hi) / 2
        out.append((lo, hi, f.exponent(mid)))
    return out


def log_moments(f: LogProductFn, ps: tuple[int, ...]) -> dict[int, Fraction]:
    """∫_0^1 (ln 1/f)^p dt = ∫ A(t)^p dt for each p, exact, one segment sweep.

    Segment [j/D, j'/D] has midpoint M/(2D) with M = j + j', which lies in
    E_n iff (M k_n mod 2D) <= |E_n| 2D.  For demo N <= 4, M k_n <= 2D k_4 =
    3 * 2**47, so this is int64 arithmetic.  The sweep takes SEGMENT_CHUNK
    segments at a time and sums the level-set widths of A as integers across
    the chunks, so the chunking moves no digit; only the final sums are
    Fractions.
    """
    bp = f.breakpoints()
    D = f.lattice
    rules = [(F.a_n, 1 << F.k_exp, _floor(F.total_measure * 2 * D)) for F in f.factors]
    levels: dict[int, int] = {}
    for i in range(0, bp.size - 1, SEGMENT_CHUNK):
        ends = bp[i:i + SEGMENT_CHUNK + 1]
        M = ends[:-1] + ends[1:]
        A = np.zeros(M.size, dtype=np.int64)
        for a_n, k, cut in rules:
            A += a_n * ((M * k) % (2 * D) <= cut)
        widths = np.diff(ends)
        for v in _sorted_unique(A).tolist():
            levels[v] = levels.get(v, 0) + int(widths[A == v].sum())
    return {p: Fraction(sum(w * v**p for v, w in levels.items()), D) for p in ps}
