"""The moment valuation is a lattice valuation and transforms covariantly."""

import numpy as np

from orliczval import (
    AxisBox,
    PolynomialComposer,
    Polytope,
    Region,
    SimpleFunction,
    check_covariance,
    check_valuation_identity,
    lattice_max_min,
    psi,
    random_unimodular,
    shear,
)

xi = PolynomialComposer([1.0, -0.5, 0.25])

print("=== psi on overlapping box functions ===")
f = SimpleFunction(2, [(2.0, Region([AxisBox([0.0, 0.0], [2.0, 2.0])]))])
g = SimpleFunction(2, [(1.0, Region([AxisBox([1.0, 1.0], [3.0, 3.0])]))])
print(f"psi(f)     = {psi(xi, f)}")
print(f"psi(g)     = {psi(xi, g)}")
hi, lo = lattice_max_min(f, g)
print(f"psi(f v g) = {psi(xi, hi)}")
print(f"psi(f ^ g) = {psi(xi, lo)}")
res = check_valuation_identity(xi, f, g)
print(f"identity residual psi(v) + psi(^) - psi(f) - psi(g) = {res}")

print()
print("=== the same through the refinement algebra on polygons ===")
p = SimpleFunction(2, [(1.5, Region([Polytope([[0, 0], [2, 0], [0, 2]])]))])
q = SimpleFunction(2, [(-1.0, Region([Polytope([[1, 1], [3, 1], [1, 3]])]))])
res = check_valuation_identity(xi, p, q)
print(f"triangle pair residual = {res}")

print()
print("=== covariance under volume-preserving maps ===")
tri = SimpleFunction(2, [(2.0, Region([Polytope([[0, 0], [1, 0], [0, 1]])]))])
theta = shear(2, 0, 1, 1.5)
print(f"shear by 1.5: residual = {check_covariance(xi, tri, theta)}")

rng = np.random.default_rng(5)
worst = 0.0
for _ in range(25):
    theta = random_unimodular(2, rng)
    worst = max(worst, float(np.max(np.abs(check_covariance(xi, tri, theta)))))
print(f"25 random shear products: worst residual = {worst:.3e}")

print()
print("=== moments move with the map, values do not ===")
theta = shear(2, 0, 1, 2.0)  # every map is a plain (n, n) matrix
moved = psi(xi, tri)
print(f"theta @ psi(h) = {theta @ moved}")
