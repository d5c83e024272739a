"""Bounded regions with Lebesgue measure, the |x|-weighted measure, and moments.

A Region is a disjoint union of primitive parts.  Origin-centered balls
and annuli, axis boxes, shifted balls on the first axis, and convex
polytopes cover everything the valuation machinery needs.  Each part
knows its weighted measure with an explicit error bound: in closed form
for radial sets and 2D polygons, and by Euler's boundary reduction with
Gauss rules for boxes in dimension >= 3, 3D polytopes and shifted balls
(see ``facets``).

The common refinement of two lists of valued parts lives here too, in
one cell engine (``refinement_cells``) that ``functions.refine`` and
``symmetric_difference`` both read.  It has three exact algebras:
radial parts and axis boxes are intervals painted on one grid of
compressed cuts, and 2D boxes and polygons are clipped by half-planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    DisjointnessError,
    DomainError,
)
from .facets import (
    ball_weighted_measure,
    box_weighted_measure,
    hull_weighted_measure,
    unit_ball_volume,
)
from .polytopes import (
    Polytope,
    _edge_margin,
    _edges,
    _tolerances,
    intersect_polygons,
    polygon_weighted_measure,
    subtract_polygon,
)


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


def part_lebesgue(part):
    if isinstance(part, (OriginBall, ShiftedBall)):
        return unit_ball_volume(part.dim) * part.radius ** part.dim
    if isinstance(part, Annulus):
        return unit_ball_volume(part.dim) * (part.outer ** part.dim
                                             - part.inner ** part.dim)
    if isinstance(part, AxisBox):
        return float(np.prod(part.hi - part.lo))
    if isinstance(part, Polytope):
        return part.volume()
    raise DomainError(f"unknown region part {part!r}")


def _radial_weighted(n, inner, outer):
    # integral of |x| over the shell, n*omega_n*(R^{n+1}-r^{n+1})/(n+1)
    w = unit_ball_volume(n)
    return n * w * (outer ** (n + 1) - inner ** (n + 1)) / (n + 1)


def part_weighted_measure(part, abs_tol=1e-9):
    """Integral of |x| over one part, returned as (value, error bound).

    Radial sets (centred balls included), 2D boxes and 2D polygons are
    closed forms with bound 0.  Boxes in dimension >= 3, full-rank 3D
    polytopes and shifted balls go through Euler's boundary reduction
    (``facets``), whose bound never exceeds ``abs_tol``; lower-rank
    polytopes have measure 0.  Raises ``AccuracyError`` when a
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
        if part.offset == 0.0:
            return _radial_weighted(part.dim, 0.0, part.radius), 0.0
        return ball_weighted_measure(part.dim, part.radius, part.offset, abs_tol)
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
        return part.contains_points(pts)
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
        dims = {p.dim for p in parts}
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


def radial_interval(part):
    """``(inner, outer)`` in |x| of an origin ball or annulus; None for other parts."""
    if isinstance(part, OriginBall):
        return 0.0, part.radius
    if isinstance(part, Annulus):
        return part.inner, part.outer
    return None


def radial_part(dim, inner, outer):
    """The origin ball (inner 0) or the annulus with radii in [inner, outer)."""
    return OriginBall(dim, outer) if inner == 0.0 else Annulus(dim, inner, outer)


def _as_polygon(part):
    if isinstance(part, AxisBox) and part.dim == 2:
        return part.corners_polygon()
    if isinstance(part, Polytope) and part.dim == 2 and part.rank == 2:
        return part.vertices
    return None


def _check_pair_disjoint(a, b, rng, samples):
    if isinstance(a, _RADIAL) and isinstance(b, _RADIAL):
        lo_a, hi_a = radial_interval(a)
        lo_b, hi_b = radial_interval(b)
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
        if intersect_polygons(pa, pb) is not None:
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


# -- common refinement -----------------------------------------------------

def _painted_cells(fparts, gparts, bounds, make):
    # Parts are axis intervals [lo, hi), with bounds(part) = (lo, hi) as
    # scalars (one axis) or vectors.  The cuts on each axis are compressed,
    # each side adds its values over the grid slice of every part, and
    # make(lo, hi) builds the cells where either side is nonzero, in C order.
    pairs = fparts + gparts
    if not pairs:
        return []
    spans = np.array([bounds(p) for _, p in pairs], float).reshape(len(pairs), 2, -1)
    cuts = [np.unique(spans[:, :, ax]) for ax in range(spans.shape[2])]
    slots = np.stack([np.searchsorted(c, spans[:, :, ax]) for ax, c in enumerate(cuts)], 2)
    sides = np.zeros((2,) + tuple(len(c) - 1 for c in cuts))
    for k, ((value, _), (start, stop)) in enumerate(zip(pairs, slots.tolist())):
        sides[(int(k >= len(fparts)),) + tuple(map(slice, start, stop))] += value
    a, b = sides
    idx = np.argwhere((a != 0.0) | (b != 0.0))
    cell_lo = np.stack([c[i] for c, i in zip(cuts, idx.T)], 1).tolist()
    cell_hi = np.stack([c[i + 1] for c, i in zip(cuts, idx.T)], 1).tolist()
    at = tuple(idx.T)
    return [(make(lo, hi), va, vb) for lo, hi, va, vb
            in zip(cell_lo, cell_hi, a[at].tolist(), b[at].tolist())]


def _clipped_cells(fpolys, gpolys):
    cells = []
    for va, p in fpolys:
        rest = [p]
        for vb, q in gpolys:
            inter = intersect_polygons(p, q)
            if inter is not None:
                cells.append((Polytope(inter), va, vb))
            rest = [piece for r in rest for piece in subtract_polygon(r, q)]
        for r in rest:
            cells.append((Polytope(r), va, 0.0))
    for vb, q in gpolys:
        rest = [q]
        for _, p in fpolys:
            rest = [piece for r in rest for piece in subtract_polygon(r, p)]
        for r in rest:
            cells.append((Polytope(r), 0.0, vb))
    return cells


def refinement_cells(fparts, gparts, dim):
    """Common refinement of two lists of ``(value, part)`` pairs.

    Returns the ``(part, a, b)`` cells of one disjoint partition, where
    ``a`` and ``b`` are each side's summed values on the cell; cells
    where both sides vanish are left out.  One of three exact algebras
    must hold every part.  Radial parts are the 1-axis intervals
    ``[inner, outer)`` in |x| and axis boxes the n-axis intervals
    ``[lo, hi)``; both are painted on one grid of compressed cuts, so
    the cost follows the number of cells.  2D boxes and polygons are
    clipped against each other by half-planes.  Returns None when no
    algebra fits.
    """
    parts = [p for _, p in fparts + gparts]
    if all(isinstance(p, _RADIAL) for p in parts):
        return _painted_cells(fparts, gparts, radial_interval,
                              lambda lo, hi: radial_part(dim, lo[0], hi[0]))
    if all(isinstance(p, AxisBox) for p in parts):
        return _painted_cells(fparts, gparts, lambda box: (box.lo, box.hi), AxisBox)
    fpolys = [(v, _as_polygon(p)) for v, p in fparts]
    gpolys = [(v, _as_polygon(p)) for v, p in gparts]
    if all(p is not None for _, p in fpolys + gpolys):
        return _clipped_cells(fpolys, gpolys)
    return None


def symmetric_difference(r1, r2):
    """Exact symmetric difference, read from the common refinement.

    Every part of each region carries the value 1.0, and the cells of
    ``refinement_cells`` where exactly one side is nonzero are kept:
    grid cells for radial parts and axis boxes, clipped pieces for 2D
    boxes and polygons.  Anything else raises a capability error naming
    the Monte Carlo fallback.
    """
    if r1.dim != r2.dim:
        raise DomainError("dimensions disagree")
    cells = refinement_cells([(1.0, p) for p in r1.parts],
                             [(1.0, p) for p in r2.parts], r1.dim)
    if cells is None:
        raise CapabilityError(
            "symmetric difference outside the radial/box/2D-polygon algebra; "
            "use estimate_symmetric_difference (Monte Carlo) instead")
    return Region([part for part, a, b in cells if (a == 0.0) != (b == 0.0)],
                  dim=r1.dim)


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

def _first_true(ok, n, m):
    # least j in 0..n, for each of m columns, with ok(j) true, where ok is
    # false then true along j and ok(n) is taken as true: vectorised bisection
    lo = np.zeros(m, np.int64)
    hi = np.full(m, n, np.int64)
    for _ in range(int(n).bit_length()):
        mid = (lo + hi) // 2
        t = ok(mid)
        hi = np.where(t, mid, hi)
        lo = np.where(t, lo, np.minimum(mid + 1, hi))  # settled columns stay
    return lo


def cube_cover(poly, depth):
    """Inner cover of a 2D polytope by half-open dyadic squares.

    Squares of side 2^-depth whose four corners all lie in the closed
    polytope (the membership predicate of ``part_contains``) are kept and
    merged columnwise into boxes, so the part count stays linear in the
    grid resolution.  The cover is contained in the polytope and its area
    defect shrinks monotonically with depth.

    By convexity the inside corners of each grid column form one run of
    rows: each edge's test is monotone in y, also in float arithmetic, so
    edges pointing right fix the run's lower end, edges pointing left its
    upper end, and vertical edges decide the whole column.  Both ends are
    found by bisection for all columns at once, and column i keeps the
    rows that the runs of corner columns i and i+1 share.  Time and memory
    are linear in the number of grid columns (times the edge count and
    depth for the time); the corner grid itself is never built.
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
    _, eps, _ = _tolerances(v, [xs[0], xs[-1], ys[0], ys[-1]])
    starts, dirs = _edges(v)
    right = dirs[:, 0] >= 0
    lower, upper = (starts[right], dirs[right]), (starts[~right], dirs[~right])
    a = _first_true(lambda j: _edge_margin(*lower, xs, (j_lo + j) * h) >= -eps,
                    len(ys), len(xs))
    b = _first_true(lambda j: _edge_margin(*upper, xs, (j_lo + j) * h) < -eps,
                    len(ys), len(xs))
    start = np.maximum(a[:-1], a[1:])
    stop = np.minimum(b[:-1], b[1:]) - 1
    return Region([AxisBox([xs[i], ys[start[i]]], [xs[i + 1], ys[stop[i]]])
                   for i in np.flatnonzero(start < stop)], dim=2)
