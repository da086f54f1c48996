#!/usr/bin/env python3
"""Kernels, their size and continuity conditions, and the growth bound.

The Cantor kernel is a bump over len(I)^m switched on only when x sits in
the middle strip of a node I and t in the band [L_I/2, L_I]; it is
deliberately discontinuous in x, yet passes the size and y-continuity
sampling checks with flat per-scale ratios.  A genuinely non-Hoelder step
fixture is caught by the same checker: its anchored ratios grow by exactly
a factor 10 per separation decade.
"""

from nhsq import (
    CantorKernel,
    CantorMeasure,
    CantorParams,
    LogProductKernel,
    StepKernel,
    TildeKernel,
    build_logproduct,
    check_holder_condition,
    check_size_condition,
    growth_constant,
)
from nhsq.measures import LebesgueInterval

measure = CantorMeasure(CantorParams(m=0.4, C=16.0, depth=10))
kc = CantorKernel(measure)
kv = LogProductKernel(build_logproduct("demo", 3))

geo = measure.geometry[1]
x_strip = geo.child_offsets[1] + geo.child_lengths[1] / 2
print("Cantor kernel spot values:")
print(f"  strip interior, t = L, y = 1/2: {kc.evaluate(geo.L, x_strip, 0.5):.4f}")
print(f"  just outside the strip:        {kc.evaluate(geo.L, geo.child_offsets[1] - 1e-12, 0.5):.4f}")
print(f"  central gap, any t:            {kc.evaluate(geo.L * 0.7, 0.5, 0.5):.4f}")
tk = TildeKernel(kc, measure)
print(f"  tilde factor^2 at the strip:   {tk.factor(geo.L, x_strip)**2:.4f} (<= 1/(n+1))")

print("\ncondition checkers (10^4 stratified samples):")
for name, k in (("cantor", kc), ("log-product", kv), ("step fixture", StepKernel(m=0.4))):
    size = check_size_condition(k, 10_000, seed=5)
    hold = check_holder_condition(k, 10_000, seed=5)
    flag = "NON-HOELDER" if hold.looks_unbounded else "ok"
    print(f"  {name:>12}: size ratio {size.worst_ratio:8.3f}, "
          f"continuity ratio {hold.worst_ratio:10.3f}, "
          f"growth/decade {hold.scale_growth:7.3f}  [{flag}]")

print("\ngrowth bound mu(J) <= K len(J)^m:")
est = growth_constant(measure, 0.4, 100_000, seed=20250808)
print(f"  Cantor measure, 1e5 intervals: sup ratio {est.max_ratio:.4f} "
      f"at J = [{est.witness[0]:.6f}, {est.witness[1]:.6f}]")
leb = growth_constant(LebesgueInterval(0, 1), 1.0, 10_000, seed=1)
print(f"  Lebesgue on [0,1] with m = 1:  sup ratio {leb.max_ratio:.4f}")
