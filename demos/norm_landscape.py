"""Modular, gauge norm, dual-infimum norm, and how they relate."""

import math

import numpy as np

from orliczval import (
    ExpYoung,
    OriginBall,
    PowerYoung,
    Region,
    SimpleFunction,
    indicator_norm,
    luxemburg_norm,
    modular,
    norm_report,
    orlicz_norm,
)

disk = Region([OriginBall(2, 1.0)])
h = SimpleFunction.indicator(disk, 3.0)
phi = PowerYoung(2.0)
mu = disk.weighted_measure().value

print("=== the three numbers for 3 * indicator(unit disk), phi = t^2/2 ===")
print(f"modular   = {modular(phi, h):.12f}  (exact 9*mu/2 = {4.5 * mu:.12f})")
print(f"luxemburg = {luxemburg_norm(phi, h, rel_tol=1e-12):.12f}  "
      f"(exact 3*sqrt(mu/2) = {3 * math.sqrt(mu / 2):.12f})")
print(f"orlicz    = {orlicz_norm(phi, h):.12f}  "
      f"(exact 3*sqrt(2*mu) = {3 * math.sqrt(2 * mu):.12f})")

print()
print("=== the dual-infimum objective is unimodal in k ===")
for k in np.geomspace(0.05, 2.0, 9):
    val = (1.0 + modular(phi, h.scale(k))) / k
    print(f"  k = {k:7.4f}   (1 + modular(k*h))/k = {val:10.5f}")
k_star = 1.0 / (3.0 * math.sqrt(mu / 2.0))
print(f"minimum at k* = 1/luxemburg = {k_star:.5f}")

print()
print("=== norm equivalence: luxemburg <= orlicz <= 2 * luxemburg ===")
for phi in (PowerYoung(1.5), PowerYoung(2.0), PowerYoung(5.0),
            ExpYoung(1.0, 1.0)):
    rep = norm_report(phi, h)
    print(f"{phi!r}: ratio = {rep['ratio']:.6f}  "
          f"(modular at gauge norm = {rep['modular_at_luxemburg']:.9f})")
print("single-atom functions under power gauges sit exactly at ratio 2")

print()
print("=== indicator norms in closed form ===")
for radius in (0.5, 1.0, 2.0):
    region = Region([OriginBall(2, radius)])
    closed = indicator_norm(PowerYoung(2.0), region)
    direct = orlicz_norm(PowerYoung(2.0), SimpleFunction.indicator(region))
    print(f"  radius {radius}: closed {closed:.12f}  minimised {direct:.12f}")
