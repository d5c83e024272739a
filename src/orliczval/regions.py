"""Bounded regions with Lebesgue measure, the |x|-weighted measure, and moments.

A Region is a disjoint union of primitive parts.  Origin-centered balls
and annuli, axis boxes, shifted balls on the first axis, and convex
polytopes cover everything the valuation machinery needs.  Each part
knows its weighted measure with an explicit error bound: in closed form
for radial sets and 2D polygons, by Euler's facet reduction with Gauss
rules for boxes in dimension >= 3 and 3D polytopes (see ``facets``), and
by a 1D radial quadrature for shifted balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import (
    AccuracyError,
    CapabilityError,
    DisjointnessError,
    DomainError,
)
from .facets import box_weighted_measure, hull_weighted_measure
from .polytopes import (
    Polytope,
    intersect_polygons,
    polygon_area,
    polygon_weighted_measure,
    subtract_polygon,
)


def unit_ball_volume(n):
    """Volume of the n-dimensional unit ball by the two-step recurrence."""
    if n < 1 or n != int(n):
        raise DomainError("dimension must be a positive integer")
    vols = {1: 2.0, 2: math.pi}
    for k in range(3, int(n) + 1):
        vols[k] = 2.0 * math.pi * vols[k - 2] / k
    return vols[int(n)]


def _sin_power_integral(m, alpha):
    # int_0^alpha sin^m t dt for alpha in [0, pi], via the incomplete beta
    if alpha <= 0.0:
        return 0.0
    alpha = min(alpha, math.pi)
    if m == 0:
        return alpha
    if m == 1:
        return 1.0 - math.cos(alpha)
    full = special.beta((m + 1) / 2.0, 0.5)

    def half(a):
        s2 = math.sin(a) ** 2
        return 0.5 * full * special.betainc((m + 1) / 2.0, 0.5, s2)

    if alpha <= math.pi / 2.0:
        return half(alpha)
    return full - half(math.pi - alpha)


def _cap_area(n, alpha):
    # surface area of {u in S^{n-1}: angle(u, pole) <= alpha}
    return (n - 1) * unit_ball_volume(n - 1) * _sin_power_integral(n - 2, alpha)


class OriginBall:
    """Closed ball of given radius centered at the origin."""

    def __init__(self, dim, radius):
        if dim < 2:
            raise DomainError("regions live in dimension >= 2")
        if radius < 0 or not np.isfinite(radius):
            raise DomainError("radius must be finite and nonnegative")
        self.dim = int(dim)
        self.radius = float(radius)

    def to_json(self):
        return {"kind": "origin_ball", "dim": self.dim, "radius": self.radius}

    def __repr__(self):
        return f"OriginBall(dim={self.dim}, radius={self.radius})"


class Annulus:
    """Half-open shell: inner <= |x| < outer."""

    def __init__(self, dim, inner, outer):
        if dim < 2:
            raise DomainError("regions live in dimension >= 2")
        if not (0 <= inner < outer) or not np.isfinite(outer):
            raise DomainError("need 0 <= inner < outer < infinity")
        self.dim = int(dim)
        self.inner = float(inner)
        self.outer = float(outer)

    def to_json(self):
        return {"kind": "annulus", "dim": self.dim,
                "inner": self.inner, "outer": self.outer}

    def __repr__(self):
        return f"Annulus(dim={self.dim}, inner={self.inner}, outer={self.outer})"


class AxisBox:
    """Half-open axis-aligned box prod [lo_i, hi_i)."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, float)
        self.hi = np.asarray(hi, float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DomainError("lo and hi must be equal-length vectors")
        if len(self.lo) < 2:
            raise DomainError("regions live in dimension >= 2")
        if not np.all(self.lo < self.hi) or not np.all(np.isfinite(self.hi)):
            raise DomainError("need lo < hi on every axis, all finite")
        self.dim = len(self.lo)

    def corners_polygon(self):
        (a, b), (c, d) = (self.lo[0], self.hi[0]), (self.lo[1], self.hi[1])
        return np.array([[a, c], [b, c], [b, d], [a, d]])

    def to_json(self):
        return {"kind": "axis_box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    def __repr__(self):
        return f"AxisBox({self.lo.tolist()}, {self.hi.tolist()})"


class ShiftedBall:
    """Ball of radius r centered at offset*e_1."""

    def __init__(self, dim, radius, offset):
        if dim < 2:
            raise DomainError("regions live in dimension >= 2")
        if radius < 0 or not np.isfinite(radius) or not np.isfinite(offset):
            raise DomainError("radius and offset must be finite, radius >= 0")
        self.dim = int(dim)
        self.radius = float(radius)
        self.offset = float(offset)

    @property
    def center(self):
        c = np.zeros(self.dim)
        c[0] = self.offset
        return c

    def to_json(self):
        return {"kind": "shifted_ball", "dim": self.dim,
                "radius": self.radius, "offset": self.offset}

    def __repr__(self):
        return (f"ShiftedBall(dim={self.dim}, radius={self.radius}, "
                f"offset={self.offset})")


_RADIAL = (OriginBall, Annulus)


def _part_dim(part):
    return part.dim


def part_lebesgue(part):
    if isinstance(part, OriginBall):
        return unit_ball_volume(part.dim) * part.radius ** part.dim
    if isinstance(part, Annulus):
        return unit_ball_volume(part.dim) * (part.outer ** part.dim
                                             - part.inner ** part.dim)
    if isinstance(part, AxisBox):
        return float(np.prod(part.hi - part.lo))
    if isinstance(part, ShiftedBall):
        return unit_ball_volume(part.dim) * part.radius ** part.dim
    if isinstance(part, Polytope):
        return part.volume()
    raise DomainError(f"unknown region part {part!r}")


def _radial_weighted(n, inner, outer):
    # integral of |x| over the shell, n*omega_n*(R^{n+1}-r^{n+1})/(n+1)
    w = unit_ball_volume(n)
    return n * w * (outer ** (n + 1) - inner ** (n + 1)) / (n + 1)


def _shifted_ball_weighted(ball, abs_tol):
    n, r, c = ball.dim, ball.radius, abs(ball.offset)
    if r == 0.0:
        return 0.0, 0.0
    if c == 0.0:
        return _radial_weighted(n, 0.0, r), 0.0
    lam = unit_ball_volume(n) * r ** n
    if c >= r and r * lam <= 0.5 * abs_tol:
        # |x| varies by at most r across the ball, so the midpoint value
        # is already within tolerance; quadrature on an interval this
        # narrow would only accumulate roundoff.
        return c * lam, r * lam

    def integrand(s):
        if s <= 0.0:
            return 0.0
        cos_a = (s * s + c * c - r * r) / (2.0 * s * c)
        alpha = math.acos(min(1.0, max(-1.0, cos_a)))
        return s ** n * _cap_area(n, alpha)

    lo, hi = abs(c - r), c + r
    value, err = integrate.quad(integrand, lo, hi,
                                epsabs=abs_tol * 0.5, epsrel=1e-12, limit=200)
    if c < r:
        # the sphere of radius s is swallowed whole below s = r - c
        value += _radial_weighted(n, 0.0, r - c)
    if err > abs_tol:
        raise AccuracyError(
            f"shifted-ball quadrature error {err:.3e} exceeds {abs_tol:.3e}")
    return value, err


def part_weighted_measure(part, abs_tol=1e-9):
    """Integral of |x| over one part, returned as (value, error bound).

    Radial sets, 2D boxes and 2D polygons are closed forms with bound 0.
    Boxes in dimension >= 3 and full-rank 3D polytopes go through Euler's
    facet reduction (``facets``), whose bound never exceeds ``abs_tol``;
    lower-rank polytopes have measure 0.  Raises ``AccuracyError`` when a
    quadrature cannot meet ``abs_tol``, and ``CapabilityError`` for
    full-rank polytopes above dimension 3.
    """
    if isinstance(part, OriginBall):
        return _radial_weighted(part.dim, 0.0, part.radius), 0.0
    if isinstance(part, Annulus):
        return _radial_weighted(part.dim, part.inner, part.outer), 0.0
    if isinstance(part, AxisBox):
        if part.dim == 2:
            return polygon_weighted_measure(part.corners_polygon()), 0.0
        return box_weighted_measure(part.lo, part.hi, abs_tol)
    if isinstance(part, ShiftedBall):
        return _shifted_ball_weighted(part, abs_tol)
    if isinstance(part, Polytope):
        if part.dim == 2:
            return part.weighted_measure(), 0.0
        if part.rank < part.dim:
            return 0.0, 0.0
        if part.dim == 3:
            hull = part.hull
            return hull_weighted_measure(hull.points, hull.simplices, hull.equations,
                                         abs_tol)
        raise CapabilityError(
            "no exact weighted measure for full-rank polytopes above dimension 3; "
            "use estimate_weighted_measure (Monte Carlo) instead")
    raise DomainError(f"unknown region part {part!r}")


def part_moment(part):
    if isinstance(part, _RADIAL):
        return np.zeros(part.dim)
    if isinstance(part, AxisBox):
        return part_lebesgue(part) * 0.5 * (part.lo + part.hi)
    if isinstance(part, ShiftedBall):
        return part_lebesgue(part) * part.center
    if isinstance(part, Polytope):
        return part.moment()
    raise DomainError(f"unknown region part {part!r}")


def part_contains(part, points):
    """Vectorized membership for an (m, n) array of points."""
    pts = np.atleast_2d(np.asarray(points, float))
    if isinstance(part, OriginBall):
        return np.sum(pts * pts, axis=1) <= part.radius ** 2
    if isinstance(part, Annulus):
        r2 = np.sum(pts * pts, axis=1)
        return (part.inner ** 2 <= r2) & (r2 < part.outer ** 2)
    if isinstance(part, AxisBox):
        return np.all((pts >= part.lo) & (pts < part.hi), axis=1)
    if isinstance(part, ShiftedBall):
        d = pts - part.center
        return np.sum(d * d, axis=1) <= part.radius ** 2
    if isinstance(part, Polytope):
        if part.dim == 2 and part.rank == 2:
            v = part.vertices
            ok = np.ones(len(pts), bool)
            for i in range(len(v)):
                e = v[(i + 1) % len(v)] - v[i]
                ok &= (e[0] * (pts[:, 1] - v[i][1])
                       - e[1] * (pts[:, 0] - v[i][0])) >= -1e-12
            return ok
        if part.rank == part.dim:
            return part.contains_points(pts)
        return np.array([part.contains(p) for p in pts], dtype=bool)
    raise DomainError(f"unknown region part {part!r}")


def part_bounding_box(part):
    if isinstance(part, _RADIAL):
        r = part.radius if isinstance(part, OriginBall) else part.outer
        return -r * np.ones(part.dim), r * np.ones(part.dim)
    if isinstance(part, AxisBox):
        return part.lo.copy(), part.hi.copy()
    if isinstance(part, ShiftedBall):
        return part.center - part.radius, part.center + part.radius
    if isinstance(part, Polytope):
        return part.vertices.min(axis=0), part.vertices.max(axis=0)
    raise DomainError(f"unknown region part {part!r}")


def part_to_json(part):
    if isinstance(part, Polytope):
        return {"kind": "polytope", **part.to_json()}
    return part.to_json()


def part_from_json(obj):
    kind = obj["kind"]
    if kind == "polytope":
        return Polytope(obj["vertices"])
    if kind == "origin_ball":
        return OriginBall(obj["dim"], obj["radius"])
    if kind == "annulus":
        return Annulus(obj["dim"], obj["inner"], obj["outer"])
    if kind == "axis_box":
        return AxisBox(obj["lo"], obj["hi"])
    if kind == "shifted_ball":
        return ShiftedBall(obj["dim"], obj["radius"], obj["offset"])
    raise DomainError(f"unknown region part kind {kind!r}")


@dataclass(frozen=True)
class WeightedMeasure:
    """A weighted measure: the value plus a rigorous error bound."""

    value: float
    error_bound: float

    def __float__(self):
        return self.value


class Region:
    """Finite disjoint union of primitive parts in a fixed dimension.

    Disjointness is asserted by the constructor's contract, not
    enforced; ``check_disjoint`` verifies it exactly where the part
    pairing allows and by collision sampling otherwise.
    """

    def __init__(self, parts, dim=None):
        parts = tuple(parts)
        dims = {_part_dim(p) for p in parts}
        if dim is None:
            if len(dims) != 1:
                raise DomainError("empty or mixed-dimension part list needs dim=")
            dim = dims.pop()
        elif dims - {dim}:
            raise DomainError("parts disagree with the stated dimension")
        if dim < 2:
            raise DomainError("regions live in dimension >= 2")
        self.dim = int(dim)
        self.parts = parts
        self._mu_cache = {}

    def lebesgue(self):
        return sum(part_lebesgue(p) for p in self.parts)

    def weighted_measure(self, abs_tol=1e-9):
        key = abs_tol
        if key not in self._mu_cache:
            vals = [part_weighted_measure(p, abs_tol) for p in self.parts]
            self._mu_cache[key] = WeightedMeasure(
                sum(v for v, _ in vals), sum(e for _, e in vals))
        return self._mu_cache[key]

    def moment(self):
        out = np.zeros(self.dim)
        for p in self.parts:
            out += part_moment(p)
        return out

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        out = np.zeros(len(pts), bool)
        for p in self.parts:
            out |= part_contains(p, pts)
        return out

    def bounding_box(self):
        if not self.parts:
            return np.zeros(self.dim), np.zeros(self.dim)
        boxes = [part_bounding_box(p) for p in self.parts]
        return (np.min([b[0] for b in boxes], axis=0),
                np.max([b[1] for b in boxes], axis=0))

    def check_disjoint(self, rng=None, samples=4000):
        """Raise DisjointnessError when two parts demonstrably overlap."""
        for i in range(len(self.parts)):
            for j in range(i + 1, len(self.parts)):
                _check_pair_disjoint(self.parts[i], self.parts[j], rng, samples)
        return True

    def to_json(self):
        return {"dim": self.dim, "parts": [part_to_json(p) for p in self.parts]}

    @classmethod
    def from_json(cls, obj):
        return cls([part_from_json(p) for p in obj["parts"]], dim=obj["dim"])

    def __repr__(self):
        return f"Region(dim={self.dim}, parts={list(self.parts)!r})"


def _radial_interval(part):
    if isinstance(part, OriginBall):
        return 0.0, part.radius
    return part.inner, part.outer


def _as_polygon(part):
    if isinstance(part, AxisBox) and part.dim == 2:
        return part.corners_polygon()
    if isinstance(part, Polytope) and part.dim == 2 and part.rank == 2:
        return part.vertices
    return None


def _check_pair_disjoint(a, b, rng, samples):
    if isinstance(a, _RADIAL) and isinstance(b, _RADIAL):
        lo_a, hi_a = _radial_interval(a)
        lo_b, hi_b = _radial_interval(b)
        if lo_a < hi_b and lo_b < hi_a:
            raise DisjointnessError(f"radial overlap between {a!r} and {b!r}")
        return
    balls = (OriginBall, ShiftedBall)
    if isinstance(a, balls) and isinstance(b, balls):
        ca = a.center if isinstance(a, ShiftedBall) else np.zeros(a.dim)
        cb = b.center if isinstance(b, ShiftedBall) else np.zeros(b.dim)
        if float(np.linalg.norm(ca - cb)) < a.radius + b.radius:
            raise DisjointnessError(f"ball overlap between {a!r} and {b!r}")
        return
    if isinstance(a, AxisBox) and isinstance(b, AxisBox):
        if np.all(np.maximum(a.lo, b.lo) < np.minimum(a.hi, b.hi)):
            raise DisjointnessError(f"box overlap between {a!r} and {b!r}")
        return
    pa, pb = _as_polygon(a), _as_polygon(b)
    if pa is not None and pb is not None:
        inter = intersect_polygons(pa, pb)
        if inter is not None and polygon_area(inter) > 1e-12:
            raise DisjointnessError(f"polygon overlap between {a!r} and {b!r}")
        return
    _monte_carlo_collision(a, b, rng, samples)


def _monte_carlo_collision(a, b, rng, samples):
    rng = np.random.default_rng(0) if rng is None else rng
    lo, hi = part_bounding_box(a)
    pts = lo + (hi - lo) * rng.random((samples, len(lo)))
    hit = part_contains(a, pts) & part_contains(b, pts)
    if np.any(hit):
        witness = pts[np.argmax(hit)]
        raise DisjointnessError(
            f"sampled collision between {a!r} and {b!r} at {witness.tolist()}")


def lebesgue(region):
    return region.lebesgue()


def weighted_measure(region, abs_tol=1e-9):
    """Sum of part weighted measures, with the aggregated error bound."""
    return region.weighted_measure(abs_tol)


def moment(region):
    return region.moment()


def estimate_weighted_measure(region, samples=200_000, rng=None):
    """Monte Carlo fallback: returns (estimate, standard error)."""
    rng = np.random.default_rng(0) if rng is None else rng
    lo, hi = region.bounding_box()
    vol = float(np.prod(hi - lo))
    if vol == 0.0:
        return 0.0, 0.0
    pts = lo + (hi - lo) * rng.random((samples, region.dim))
    w = np.where(region.contains(pts), np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    return vol * float(np.mean(w)), vol * float(np.std(w)) / math.sqrt(samples)


# -- symmetric differences -------------------------------------------------

def _interval_list(region):
    out = []
    for p in region.parts:
        if not isinstance(p, _RADIAL):
            return None
        lo, hi = _radial_interval(p)
        if hi > lo:
            out.append((lo, hi))
    return sorted(out)


def _interval_symdiff(xs, ys):
    cuts = sorted({c for iv in xs + ys for c in iv})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        in_x = any(a <= mid < b for a, b in xs)
        in_y = any(a <= mid < b for a, b in ys)
        if in_x != in_y:
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def _box_grid_symdiff(r1, r2):
    boxes1 = [p for p in r1.parts if isinstance(p, AxisBox)]
    boxes2 = [p for p in r2.parts if isinstance(p, AxisBox)]
    if not boxes1 and not boxes2:
        return []
    n = r1.dim
    cuts = []
    for ax in range(n):
        vals = {b.lo[ax] for b in boxes1 + boxes2}
        vals |= {b.hi[ax] for b in boxes1 + boxes2}
        cuts.append(sorted(vals))
    out = []
    for idx in np.ndindex(*[len(c) - 1 for c in cuts]):
        lo = np.array([cuts[ax][i] for ax, i in enumerate(idx)])
        hi = np.array([cuts[ax][i + 1] for ax, i in enumerate(idx)])
        mid = 0.5 * (lo + hi)[None, :]
        in1 = any(bool(part_contains(b, mid)[0]) for b in boxes1)
        in2 = any(bool(part_contains(b, mid)[0]) for b in boxes2)
        if in1 != in2:
            out.append(AxisBox(lo, hi))
    return out


def _polygon_list(region):
    out = []
    for p in region.parts:
        poly = _as_polygon(p)
        if poly is None:
            return None
        out.append(poly)
    return out


def _polygon_symdiff(ps, qs):
    pieces = []
    for p in ps:
        rest = [p]
        for q in qs:
            rest = [piece for r in rest for piece in subtract_polygon(r, q)]
        pieces.extend(rest)
    for q in qs:
        rest = [q]
        for p in ps:
            rest = [piece for r in rest for piece in subtract_polygon(r, p)]
        pieces.extend(rest)
    return [Polytope(p) for p in pieces]


def symmetric_difference(r1, r2):
    """Exact symmetric difference within the supported part algebra.

    Radial parts go through interval arithmetic on radii, axis boxes
    through the shared coordinate grid, and 2D boxes/polytopes through
    half-plane clipping.  Anything else raises a capability error
    naming the Monte Carlo fallback.
    """
    if r1.dim != r2.dim:
        raise DomainError("dimensions disagree")
    xs, ys = _interval_list(r1), _interval_list(r2)
    if xs is not None and ys is not None:
        parts = []
        for lo, hi in _interval_symdiff(xs, ys):
            parts.append(OriginBall(r1.dim, hi) if lo == 0.0
                         else Annulus(r1.dim, lo, hi))
        return Region(parts, dim=r1.dim)
    if (all(isinstance(p, AxisBox) for p in r1.parts)
            and all(isinstance(p, AxisBox) for p in r2.parts)):
        return Region(_box_grid_symdiff(r1, r2), dim=r1.dim)
    ps, qs = _polygon_list(r1), _polygon_list(r2)
    if ps is not None and qs is not None:
        return Region(_polygon_symdiff(ps, qs), dim=2)
    raise CapabilityError(
        "symmetric difference outside the radial/box/2D-polygon algebra; "
        "use estimate_symmetric_difference (Monte Carlo) instead")


def estimate_symmetric_difference(r1, r2, samples=200_000, rng=None):
    """Monte Carlo lambda and weighted-measure of the symmetric difference.

    Returns a dict with both estimates and their standard errors.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lo1, hi1 = r1.bounding_box()
    lo2, hi2 = r2.bounding_box()
    lo, hi = np.minimum(lo1, lo2), np.maximum(hi1, hi2)
    vol = float(np.prod(hi - lo))
    pts = lo + (hi - lo) * rng.random((samples, r1.dim))
    inside = r1.contains(pts) != r2.contains(pts)
    w = np.where(inside, np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    ind = inside.astype(float)
    return {
        "lebesgue": vol * float(np.mean(ind)),
        "lebesgue_stderr": vol * float(np.std(ind)) / math.sqrt(samples),
        "weighted": vol * float(np.mean(w)),
        "weighted_stderr": vol * float(np.std(w)) / math.sqrt(samples),
    }


# -- dyadic cube covers ----------------------------------------------------

def cube_cover(poly, depth):
    """Inner cover of a 2D polytope by half-open dyadic squares.

    Squares of side 2^-depth whose four corners all lie in the closed
    polytope are kept and merged rowwise into boxes, so the part count
    stays linear in the grid resolution.  The cover is contained in the
    polytope and its area defect shrinks monotonically with depth.
    """
    if not isinstance(poly, Polytope) or poly.dim != 2:
        raise DomainError("cube covers are built for 2D polytopes")
    if depth < 0 or depth != int(depth):
        raise DomainError("depth must be a nonnegative integer")
    if poly.rank < 2:
        return Region([], dim=2)
    h = 2.0 ** (-int(depth))
    v = poly.vertices
    i_lo = math.floor(v[:, 0].min() / h)
    i_hi = math.ceil(v[:, 0].max() / h)
    j_lo = math.floor(v[:, 1].min() / h)
    j_hi = math.ceil(v[:, 1].max() / h)
    xs = (np.arange(i_lo, i_hi + 1) * h)
    ys = (np.arange(j_lo, j_hi + 1) * h)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside = np.ones(gx.shape, bool)
    for i in range(len(v)):
        e = v[(i + 1) % len(v)] - v[i]
        inside &= (e[0] * (gy - v[i][1]) - e[1] * (gx - v[i][0])) >= -1e-12
    cell = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    boxes = []
    for i in range(cell.shape[0]):
        row = cell[i]
        edges = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))
                                       .astype(np.int8)))
        for start, stop in zip(edges[::2], edges[1::2]):
            boxes.append(AxisBox([xs[i], ys[start]], [xs[i + 1], ys[stop]]))
    return Region(boxes, dim=2)
