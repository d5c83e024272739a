"""Gauge families, conjugation, and the doubling condition."""

import numpy as np

from orliczval import (
    ConjugatePair,
    DensityYoung,
    ExpYoung,
    LogYoung,
    PowerYoung,
    delta2_report,
)

print("=== power family and its conjugate ===")
phi = PowerYoung(3.0)
conj = phi.conjugate()
print(f"phi(t) = t^3/3, conjugate exponent q = {conj.p}")
print(f"double conjugate returns p = {conj.conjugate().p}")

ts = np.linspace(0.0, 4.0, 9)
print("t, phi(t), phi*(t):")
for t in ts:
    print(f"  {t:4.1f}  {float(phi.eval(t)):10.5f}  {float(conj.eval(t)):10.5f}")

print()
print("=== Young inequality: s*t <= phi(s) + phi*(t) ===")
rng = np.random.default_rng(1)
worst = 0.0
pair = ConjugatePair(phi)
for _ in range(200):
    s, t = rng.uniform(0.0, 5.0, size=2)
    gap = pair.gap(s, t)
    worst = min(worst, gap)
print(f"minimum gap over 200 random pairs: {worst:.3e} (never negative)")

# equality exactly on the density graph t = phi'(s)
s = 1.7
t_eq = float(phi.density(s))
print(f"gap at the density graph point ({s}, {t_eq:.5f}): "
      f"{pair.gap(s, t_eq):.3e}")

print()
print("=== exp and log are conjugate to each other ===")
e = ExpYoung(2.0, 0.5)
print(f"conjugate of ExpYoung(2, 0.5) is {e.conjugate()!r}")
print(f"and back: {e.conjugate().conjugate()!r}")

pair = ConjugatePair(LogYoung(1.0, 1.0))
rep = pair.check(np.linspace(0.1, 5.0, 40))
print(f"pair duality on a grid: ok={rep['ok']}, "
      f"worst equality gap {rep['worst_equality_gap']:.3e}")

print()
print("=== doubling condition ===")
for phi in (PowerYoung(2.0), ExpYoung(1.0, 1.0)):
    rep = delta2_report(phi)
    print(f"{phi!r}: holds={rep['holds']} kind={rep['kind']} "
          f"constant={rep['constant']}")

print()
print("=== sampled density round trip ===")
samples = [[0.0, 0.0], [1.0, 2.0], [2.0, 5.0], [3.0, 9.0]]
d = DensityYoung(samples)
back = d.conjugate().conjugate()
ts = np.linspace(0.0, 3.0, 7)
err = np.max(np.abs(np.asarray(d.eval(ts)) - np.asarray(back.eval(ts))))
print(f"phi** == phi on the sample range, max error {float(err):.3e}")
