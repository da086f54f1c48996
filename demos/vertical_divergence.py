#!/usr/bin/env python3
"""Vertical square function divergence.

The same measure and kernel whose aperture-1 conical square function is
bounded on L2 have an unbounded vertical square function: the vertical
norm series of the constant function has per-generation terms exactly
beta(n)^2 * 2/(C(n+1)) * ln 2, a harmonic tail.  The aperture-2 conical
series is dominated termwise by the vertical one, which is how the
divergence transfers.
"""

from nhsq import (
    CantorMeasure,
    CantorParams,
    QuadratureConfig,
    conical_norm_series,
    vertical_norm_series,
)

M, C, N = 0.4, 16.0, 40

measure = CantorMeasure(CantorParams(m=M, C=C, depth=N + 2))
quad = QuadratureConfig(32, 6, 1e-3, N)

sv = vertical_norm_series(measure, N, quad)
[s2] = conical_norm_series(measure, [2.0], N, quad)

print(f"{'n':>4} {'g_V(n)*C(n+1)':>16} {'partial sum':>12} {'S2 term / V term':>18}")
pv = sv.partial_sums
for n in (0, 2, 5, 10, 20, 30, 40):
    print(f"{n:>4} {sv.terms[n] * C * (n + 1):>16.6f} {pv[n]:>12.6f} "
          f"{s2.terms[n] / sv.terms[n]:>18.4f}")

c_fit = min(sv.terms[n] * C * (n + 1) for n in range(2, N + 1))
dom = max(s2.terms[n] / sv.terms[n] for n in range(N + 1))
print()
print(f"fitted harmonic constant c' = {c_fit:.4f} > 0: the series dominates")
print(f"c' * sum 1/(C(n+1)) and therefore diverges with the truncation.")
print(f"termwise domination: g(n,2) <= {dom:.4f} * g_V(n) at every generation.")
