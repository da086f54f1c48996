#!/usr/bin/env python3
"""Random dyadic grids, good cubes, stopping times, martingale differences.

A shifted grid translates the standard dyadic lattice by an independent
random bit per scale.  A cube is bad when a much larger cube's boundary
comes too close; goodness depends only on the shift bits at coarser scales,
so its probability is cube-independent.  Stopping times then carve a cube
into layers where an accretive function's averages stay usable, and the
b-adapted martingale differences reconstruct any function exactly.
"""

import numpy as np

from nhsq import (
    Cube,
    GoodnessParams,
    LebesgueInterval,
    ShiftedGrid,
    build_stopping,
    carleson_packing,
    estimate_pi_good,
    martingale_decompose,
)

params = GoodnessParams.from_exponents(0.4, 1.0, ensure_positive=True)
print(f"goodness parameters: gamma = {params.gamma:.4f}, r = {params.r}")
est = estimate_pi_good(0.4, 1.0, trials=500, seed=3, cutoff=params.r + 4)
print(f"pi_good estimates at two base cubes: {est.estimates} "
      f"(pooled SE {est.pooled_se:.4f}, spread {est.spread_in_se:.2f} SE)")

print("\nstopping times on [0,1) with the off-center sign system:")
lb = LebesgueInterval(0, 1)
grid = ShiftedGrid(0, 8, (0,) * 8)
root = Cube(0, 0)
n_leaves = 256


def flip_b(cube):
    s, ln = grid.cube_units(cube)
    v = np.zeros(n_leaves)
    if ln < 16:
        v[s:s + ln] = 1.0
        return v
    flip = s + (5 * ln) // 16
    v[s:flip] = 1.0
    v[flip:s + ln] = -1.0
    return v


forest = build_stopping(lb, flip_b, root, c=0.25, max_depth=8, grid=grid)
for j, layer in enumerate(forest.layers):
    cubes = ", ".join(f"[{grid.cube_interval(q)[0]:.4f}, {grid.cube_interval(q)[1]:.4f})"
                      for q in layer)
    print(f"  layer D^{j}: {cubes}")
tau = forest.max_packing_fraction()
print(f"  worst packing fraction tau-hat = {tau:.4f} < 1")
print(f"  Carleson packing at the root: {carleson_packing(forest, lb, root):.4f} "
      f"<= 1/(1-tau)+1 = {1 / (1 - tau) + 1:.4f}")

print("\nmartingale differences (b-adapted):")
rng = np.random.default_rng(9)
f = rng.normal(size=n_leaves)
mc = martingale_decompose(lb, forest, f, depth=8)
print(f"  cubes carrying a difference: {len(mc.cubes)}")
print(f"  reconstruction max error: {np.max(np.abs(mc.reconstruction()[0] - f)):.2e}")
worst_mean = max(abs(mc.integral(q)[0]) for q in mc.cubes if q != root)
print(f"  worst |mean| of a non-top difference: {worst_mean:.2e}")
fsq = float(np.sum(f**2 * mc.leaf_masses))
print(f"  energy ratio sum ||Delta_Q f||^2 / ||f||^2 = {mc.energy()[0] / fsq:.4f}")
