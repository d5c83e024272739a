"""The radially weighted measure over every supported region kind."""

import math

import numpy as np

from orliczval import (
    Annulus,
    AxisBox,
    OriginBall,
    Polytope,
    Region,
    ShiftedBall,
    estimate_weighted_measure,
    unit_ball_volume,
)

print("=== closed forms for radial sets ===")
disk = Region([OriginBall(2, 1.0)])
m = disk.weighted_measure()
print(f"unit disk: mu = {m.value:.15f} (exact 2*pi/3 = {2 * math.pi / 3:.15f}),"
      f" error bound {m.error_bound:.1e}")

ring = Region([Annulus(3, 1.0, 2.0)])
m = ring.weighted_measure()
exact = 3.0 * unit_ball_volume(3) * (2.0 ** 4 - 1.0) / 4.0
print(f"3D shell [1,2): mu = {m.value:.15f} (exact {exact:.15f})")

print()
print("=== 2D polygons are exact, 3D boxes and polytopes reduce to facets ===")
tri = Region([Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])])
m = tri.weighted_measure()
mc, sd = estimate_weighted_measure(tri, samples=400_000,
                                   rng=np.random.default_rng(0))
print(f"unit triangle: closed form {m.value:.12f} (error bound {m.error_bound:.1e})")
print(f"  Monte Carlo  {mc:.12f} +- {sd:.1e} "
      f"({abs(mc - m.value) / sd:.2f} sigma)")

box = Region([AxisBox([0.2, -0.3, 0.1], [1.0, 0.5, 0.9])])
m = box.weighted_measure(abs_tol=1e-10)
mc, sd = estimate_weighted_measure(box, samples=400_000,
                                   rng=np.random.default_rng(1))
print(f"3D box: facet reduction {m.value:.12f} (error bound {m.error_bound:.1e})")
print(f"  Monte Carlo  {mc:.12f} +- {sd:.1e} "
      f"({abs(mc - m.value) / sd:.2f} sigma)")

tet = Region([Polytope([[-0.2, -0.1, -0.3], [0.9, 0.0, 0.1],
                        [0.1, 0.8, 0.0], [0.0, 0.2, 0.7]])])
m = tet.weighted_measure(abs_tol=1e-10)
mc, sd = estimate_weighted_measure(tet, samples=400_000,
                                   rng=np.random.default_rng(2))
print(f"3D tetrahedron around the origin: facet reduction {m.value:.12f} "
      f"(error bound {m.error_bound:.1e})")
print(f"  Monte Carlo  {mc:.12f} +- {sd:.1e} "
      f"({abs(mc - m.value) / sd:.2f} sigma)")

print()
print("=== shifted balls reduce to one integral over their sphere ===")
ball = ShiftedBall(2, 0.5, 3.0)  # radius 0.5, centred at 3*e_1
m = Region([ball]).weighted_measure()
# center value times volume brackets the truth within r per unit volume
lam = unit_ball_volume(2) * 0.5 ** 2
print(f"ball at distance 3, radius 0.5: mu = {m.value:.12f}")
print(f"  midpoint bracket [{(3 - 0.5) * lam:.6f}, {(3 + 0.5) * lam:.6f}]")

print()
print("=== moments ===")
sq = Region([Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])])
print(f"unit square moment = {sq.moment()} (exact (1/2, 1/2))")
print(f"origin-centred shell moment = {ring.moment()} (zero by symmetry)")
