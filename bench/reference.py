"""Independent reference values for the benchmark's correctness checks.

Nothing here calls ``orliczval``: every value is computed from the
JSON specs with textbook formulas (closed-form ball volumes, shoelace
sums, Sutherland-Hodgman clipping, Gauss-Legendre quadrature in polar
angle), so a defect in the library cannot cancel in its own check.
"""

from __future__ import annotations

import math

import numpy as np


def ball_volume(n, r):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n


def radial_interval(part):
    if part["kind"] == "origin_ball":
        return 0.0, part["radius"]
    return part["inner"], part["outer"]


# -- Lebesgue measure of a part and of pairwise intersections --------------

def part_volume(part, dim):
    kind = part["kind"]
    if kind in ("origin_ball", "annulus"):
        lo, hi = radial_interval(part)
        return ball_volume(dim, hi) - ball_volume(dim, lo)
    if kind == "axis_box":
        return float(np.prod(np.subtract(part["hi"], part["lo"])))
    if kind == "polytope" and dim == 2:
        return polygon_area(part["vertices"])
    if kind == "polytope":
        v = np.asarray(part["vertices"], float)  # tetrahedron
        return abs(float(np.linalg.det(v[1:] - v[0]))) / 6.0
    raise ValueError(kind)


def overlap_volume(p, q, dim):
    """Lebesgue measure of the intersection of two parts of one algebra."""
    if p["kind"] in ("origin_ball", "annulus"):
        (a, b), (c, d) = radial_interval(p), radial_interval(q)
        lo, hi = max(a, c), min(b, d)
        return ball_volume(dim, hi) - ball_volume(dim, lo) if hi > lo else 0.0
    if p["kind"] == "axis_box":
        w = np.minimum(p["hi"], q["hi"]) - np.maximum(p["lo"], q["lo"])
        return float(np.prod(w)) if np.all(w > 0) else 0.0
    return polygon_area(clip_convex(p["vertices"], q["vertices"]))


def support_volume(fn):
    return sum(part_volume(p, fn["dim"]) for t in fn["terms"]
               for p in t["region"]["parts"])


def support_overlap(f, g):
    """Measure of supp f intersected with supp g; parts within f (and g) are disjoint."""
    return sum(overlap_volume(p, q, f["dim"])
               for s in f["terms"] for p in s["region"]["parts"]
               for t in g["terms"] for q in t["region"]["parts"])


# -- planar polygons -------------------------------------------------------

def polygon_area(v):
    v = np.asarray(v, float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_moment(v):
    """Integral of x over a ccw polygon (area times centroid)."""
    v = np.asarray(v, float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    c = x * yn - xn * y
    return np.array([np.sum((x + xn) * c), np.sum((y + yn) * c)]) / 6.0


def polygon_perimeter(v):
    v = np.asarray(v, float)
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def clip_convex(subject, clipper):
    """Sutherland-Hodgman: subject polygon clipped to a ccw convex clipper."""
    out = [tuple(p) for p in subject]
    c = [tuple(p) for p in clipper]
    for i in range(len(c)):
        (ax, ay), (bx, by) = c[i], c[(i + 1) % len(c)]
        side = [(bx - ax) * (py - ay) - (by - ay) * (px - ax) for px, py in out]
        nxt = []
        for j in range(len(out)):
            p, sp = out[j], side[j]
            q, sq = out[(j + 1) % len(out)], side[(j + 1) % len(out)]
            if sp >= 0:
                nxt.append(p)
            if (sp > 0 > sq) or (sp < 0 < sq):
                t = sp / (sp - sq)
                nxt.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        out = nxt
        if not out:
            return []
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def polygon_weighted_measure(v):
    """Integral of |x| over a ccw polygon by Gauss-Legendre in polar angle.

    Each edge [a, b] contributes the signed cone integral
    int r^3/3 dtheta over its angular span, with r(theta) the ray's
    distance to the edge line.  Accurate to rounding when the origin
    stays away from the edges (true for every polygon the covers
    workload generates).
    """
    v = np.asarray(v, float)
    total = 0.0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        cross = a[0] * b[1] - a[1] * b[0]
        if cross == 0.0:
            continue
        ta, tb = math.atan2(a[1], a[0]), math.atan2(b[1], b[0])
        span = (tb - ta + math.pi) % (2.0 * math.pi) - math.pi
        th = ta + 0.5 * span * (_GL_X + 1.0)
        u = np.column_stack((np.cos(th), np.sin(th)))
        e = b - a
        # ray point s*u on line a + t*e:  s = cross(a, e) / cross(u, e)
        s = (a[0] * e[1] - a[1] * e[0]) / (u[:, 0] * e[1] - u[:, 1] * e[0])
        total += 0.5 * span * float(np.sum(_GL_W * s ** 3 / 3.0))
    return total


# -- gauges ----------------------------------------------------------------

def phi(spec, t):
    """Closed-form evaluation of a gauge spec at an array of t >= 0."""
    t = np.asarray(t, float)
    if "density" in spec:
        s, d = np.asarray(spec["density"], float).T
        slope = np.diff(d) / np.diff(s)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * np.diff(s))))
        i = np.clip(np.searchsorted(s, t, side="right") - 1, 0, len(s) - 2)
        dt = t - s[i]
        inside = cum[i] + d[i] * dt + 0.5 * slope[i] * dt * dt
        dt = t - s[-1]
        beyond = cum[-1] + d[-1] * dt + 0.5 * spec["tail_slope"] * dt * dt
        return np.where(t <= s[-1], inside, beyond)
    p = spec["params"]
    if spec["family"] == "power":
        return p["scale"] * t ** p["p"] / p["p"]
    u = p["rate"] * t
    if spec["family"] == "exp":
        return p["scale"] * (np.expm1(u) - u)
    return p["scale"] * ((1.0 + u) * np.log1p(u) - u)
