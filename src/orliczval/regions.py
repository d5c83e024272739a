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
``symmetric_difference`` both read, each with its own rule for which
cells to build.  It has three exact algebras: radial parts and axis
boxes are intervals painted on one grid of compressed cuts, and 2D
boxes and polygons are split against each other by
``polytopes.split_polygon``.
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
    _nearest_in_triangles,
    _nearest_on_edges,
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
    split_polygon,
)

_CHUNK_PAIRS = 1 << 17  # (point, box) pairs tested per numpy batch in contains


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


def _box_bounds(lo, hi, ndim):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if lo.shape != hi.shape or lo.ndim != ndim:
        raise DomainError("lo and hi must be equal-length vectors")
    if lo.shape[-1] < 2:
        raise DomainError("regions live in dimension >= 2")
    if not ((-math.inf < lo) & (lo < hi) & (hi < math.inf)).all():
        raise DomainError("need lo < hi on every axis, all finite")
    return lo, hi


class AxisBox:
    """Half-open axis-aligned box prod [lo_i, hi_i)."""

    def __init__(self, lo, hi):
        self.lo, self.hi = _box_bounds(lo, hi, 1)
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
    """Volume of one part other than an axis box (``Region`` stacks those)."""
    if isinstance(part, (OriginBall, ShiftedBall)):
        return unit_ball_volume(part.dim) * part.radius ** part.dim
    if isinstance(part, Annulus):
        return unit_ball_volume(part.dim) * (part.outer ** part.dim
                                             - part.inner ** part.dim)
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
    polytopes have measure 0; a box is a box stack of one.  Raises
    ``AccuracyError`` when a quadrature cannot meet ``abs_tol``,
    ``DomainError`` when it is not positive, and ``CapabilityError``
    for full-rank polytopes above dimension 3.
    """
    if isinstance(part, OriginBall):
        return _radial_weighted(part.dim, 0.0, part.radius), 0.0
    if isinstance(part, Annulus):
        return _radial_weighted(part.dim, part.inner, part.outer), 0.0
    if isinstance(part, AxisBox):
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
            return hull_weighted_measure(part.vertices, part.facets, part.equations, abs_tol)
        raise CapabilityError(
            "no exact weighted measure for full-rank polytopes above dimension 3; "
            "use estimate_weighted_measure (Monte Carlo) instead")
    raise DomainError(f"unknown region part {part!r}")


def part_moment(part):
    """Moment of one part other than an axis box (``Region`` stacks those)."""
    if isinstance(part, _RADIAL):
        return np.zeros(part.dim)
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


def _box_hull(bounds, dim):
    # least box holding every (lo, hi) in bounds, vectors or stacks; zeros if none
    if not bounds:
        return np.zeros(dim), np.zeros(dim)
    return (np.vstack([b[0] for b in bounds]).min(axis=0),
            np.vstack([b[1] for b in bounds]).max(axis=0))


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
    enforced; ``check_disjoint`` decides it exactly, pair by pair.

    The axis boxes are stacked once into ``(lo, hi)`` arrays, which
    volume, moment, bounding box and the weighted measure (one
    ``facets.box_weighted_measure`` call) read in one pass; ``from_boxes``
    starts from such a stack and builds the ``AxisBox`` parts only when
    ``parts`` is read.  Each part of the weighted measure, the box stack
    first, gets an equal share of what the parts before it left of
    ``abs_tol``; the one measurement kept serves every request it meets.
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
        self._parts = parts
        self._mu = None
        self._boxes = None

    @classmethod
    def from_boxes(cls, lo, hi):
        """The region of the boxes ``[lo[k], hi[k])``, for ``(m, n)`` arrays."""
        lo, hi = _box_bounds(lo, hi, 2)
        region = cls([], dim=lo.shape[1])
        if len(lo):
            region._parts, region._boxes = None, ((lo, hi), [])
        return region

    @property
    def parts(self):
        if self._parts is None:
            self._parts = tuple(map(AxisBox, *self._boxes[0]))
        return self._parts

    def __len__(self):
        return len(self._boxes[0][0]) if self._parts is None else len(self._parts)

    def _box_stack(self):
        # ((lo, hi) of the axis boxes as (m, dim) arrays, or None without
        # boxes; the other parts), built on first use
        if self._boxes is None:
            boxes = [p for p in self.parts if isinstance(p, AxisBox)]
            rest = [p for p in self.parts if not isinstance(p, AxisBox)]
            stack = (np.array([b.lo for b in boxes]),
                     np.array([b.hi for b in boxes])) if boxes else None
            self._boxes = stack, rest
        return self._boxes

    def lebesgue(self):
        boxes, rest = self._box_stack()
        total = sum(part_lebesgue(p) for p in rest)
        if boxes:
            lo, hi = boxes
            total += float((hi - lo).prod(axis=1).sum())
        return total

    def weighted_measure(self, abs_tol=1e-9):
        if self._mu is not None and self._mu.error_bound <= abs_tol:  # never for a NaN
            return self._mu
        boxes, rest = self._box_stack()
        value, bound = (box_weighted_measure(*boxes, abs_tol / (len(rest) + 1))
                        if boxes else (0.0, 0.0))
        for k, p in enumerate(rest):
            v, e = part_weighted_measure(p, (abs_tol - bound) / (len(rest) - k))
            value += v
            bound += e
        self._mu = WeightedMeasure(value, bound)
        return self._mu

    def moment(self):
        boxes, rest = self._box_stack()
        out = np.zeros(self.dim)
        if boxes:
            lo, hi = boxes
            out += (hi - lo).prod(axis=1) @ (0.5 * (lo + hi))
        for p in rest:
            out += part_moment(p)
        return out

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        boxes, rest = self._box_stack()
        out = np.zeros(len(pts), bool)
        if boxes:  # a (points, coordinates, boxes) table per chunk
            lo, hi = (np.ascontiguousarray(b.T) for b in boxes)
            step = max(1, _CHUNK_PAIRS // lo.shape[1])
            for i in range(0, len(pts), step):
                x = pts[i:i + step, :, None]
                out[i:i + step] = np.all((x >= lo) & (x < hi), axis=1).any(axis=1)
        for p in rest:
            out |= part_contains(p, pts)
        return out

    def bounding_box(self):
        boxes, rest = self._box_stack()
        bounds = [part_bounding_box(p) for p in rest]
        return _box_hull(bounds + [boxes] if boxes else bounds, self.dim)

    def check_disjoint(self):
        """Raise DisjointnessError when two parts share positive volume (``_overlap``)."""
        return _check_disjoint([self])

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


def _distance(part, p):
    # distance from the point p to a shifted ball, a box or a full-rank 2D or 3D polytope
    if isinstance(part, ShiftedBall):
        return max(float(np.linalg.norm(p - part.center)) - part.radius, 0.0)
    if isinstance(part, AxisBox):
        return float(np.linalg.norm(p - np.clip(p, part.lo, part.hi)))
    if part.contains(p):
        return 0.0
    v = part.vertices
    near = (_nearest_on_edges(v[None], p[None])[0] if part.dim == 2 else
            _nearest_in_triangles(v[part.facets], np.tile(p, (len(part.facets), 1))))
    return float(np.linalg.norm(near - p, axis=1).min())


def _faces(part):
    # vertices, face normals and edge directions of a box or a full-rank 2D or 3D polytope
    if isinstance(part, AxisBox):
        eye = np.eye(part.dim)
        return np.stack(np.meshgrid(*zip(part.lo, part.hi)), -1).reshape(-1, part.dim), eye, eye
    v = part.vertices
    if part.dim == 2:
        d = np.roll(v, -1, axis=0) - v
        return v, d @ np.array([[0.0, -1.0], [1.0, 0.0]]), d
    ends = np.unique(np.sort(np.stack([part.facets, np.roll(part.facets, -1, 1)], -1), -1)
                     .reshape(-1, 2), axis=0)
    return v, part.equations[:, :3], v[ends[:, 1]] - v[ends[:, 0]]


def _radial_range(part):
    # [least, greatest] |x| over a part
    if isinstance(part, _RADIAL):
        return radial_interval(part)
    far = (abs(part.offset) + part.radius if isinstance(part, ShiftedBall)
           else float(np.linalg.norm(_faces(part)[0], axis=1).max()))
    return _distance(part, np.zeros(part.dim)), far


def _separated(a, b, tol):
    # whether a face normal of either part or, in 3D, a cross product of
    # their edges separates them; axes go in chunks that bound the projections
    (va, na, ea), (vb, nb, eb) = _faces(a), _faces(b)
    normals = np.vstack([na, nb])
    count = len(normals) + (len(ea) * len(eb) if a.dim == 3 else 0)
    step = max(1, _CHUNK_PAIRS // (len(va) + len(vb)))
    for k in range(0, count, step):
        i = np.arange(k, min(k + step, count)) - len(normals)
        axes, i = normals[i[i < 0]], i[i >= 0]
        if len(i):
            axes = np.vstack([axes, np.cross(ea[i // len(eb)], eb[i % len(eb)])])
        pa, pb, length = va @ axes.T, vb @ axes.T, np.linalg.norm(axes, axis=1)
        depth = np.minimum(pa.max(axis=0) - pb.min(axis=0), pb.max(axis=0) - pa.min(axis=0))
        if np.any((depth <= tol * length) & (length > 0.0)):
            return True
    return False


def _overlap(a, b):
    """The rule by which parts ``a`` and ``b`` share positive volume, or None.

    Under the pair's tolerance (``_tolerances`` of both bounding boxes),
    touching parts are disjoint at every scale.  In order: a lower-rank
    polytope meets nothing; bounding boxes settle the pair, and all box
    pairs; a radial part compares |x|-ranges; a shifted ball compares
    its radius with the distance from its centre; boxes and polytopes
    seek a separating axis, which n >= 4 lacks (``CapabilityError``).
    """
    (lo_a, hi_a), (lo_b, hi_b) = part_bounding_box(a), part_bounding_box(b)
    tol = _tolerances(np.vstack([lo_a, hi_a, lo_b, hi_b]))[0]
    if (any(isinstance(p, Polytope) and p.rank < p.dim for p in (a, b))
            or np.any(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b) <= tol)):
        return None
    if a.dim > 3 and any(isinstance(p, Polytope) for p in (a, b)):
        raise CapabilityError("no exact disjointness test for full-rank polytopes "
                              "above dimension 3")
    for p, q in ((a, b), (b, a)):
        if isinstance(p, _RADIAL):
            (p0, p1), (q0, q1) = _radial_range(p), _radial_range(q)
            return "radial" if min(p1, q1) - max(p0, q0) > tol else None
        if isinstance(p, ShiftedBall) and not isinstance(q, _RADIAL):
            return "ball" if _distance(q, p.center) < p.radius - tol else None
    if isinstance(a, AxisBox) and isinstance(b, AxisBox):
        return "box"
    return None if _separated(a, b, tol) else "polytope"


def _check_disjoint(regions):
    """Raise DisjointnessError when two parts of the regions share positive
    volume (``_overlap``).  All parts' bounding boxes, box stacks as they
    are, are swept by ``lo[:, 0]``; only pairs whose boxes overlap are built."""
    stacks = [r._box_stack() for r in regions]
    rest = [p for _, parts in stacks for p in parts]
    bounds = [b for b, _ in stacks if b] + [part_bounding_box(p) for p in rest]
    if not bounds:
        return True
    lo, hi = (np.vstack(x) for x in zip(*bounds))
    boxes = len(lo) - len(rest)  # the rows before are axis boxes

    def part(k):
        return AxisBox(lo[k], hi[k]) if k < boxes else rest[k - boxes]
    order = np.argsort(lo[:, 0], kind="stable")
    stop = np.searchsorted(lo[order, 0], hi[order, 0])  # the rows that start before each ends
    for i in np.flatnonzero(stop > np.arange(1, len(lo) + 1)):
        k, near = order[i], order[i + 1:stop[i]]
        gap = np.minimum(hi[near], hi[k]) - np.maximum(lo[near], lo[k])
        for j in near[np.all(gap > 0.0, axis=1)]:
            rule = _overlap(part(k), part(j))
            if rule:
                raise DisjointnessError(f"{rule} overlap between {part(k)!r} and {part(j)!r}")
    return True


def lebesgue(region):
    return region.lebesgue()


def weighted_measure(region, abs_tol=1e-9):
    """Sum of part weighted measures, with an aggregated error bound <= ``abs_tol``."""
    return region.weighted_measure(abs_tol)


def moment(region):
    return region.moment()


def _sampled(lo, hi, inside, samples, rng):
    # Monte Carlo (estimate, standard error) of the volume and of the
    # weighted measure of the set inside(points), from uniform points in [lo, hi)
    rng = np.random.default_rng(0) if rng is None else rng
    vol = float(np.prod(hi - lo))
    pts = lo + (hi - lo) * rng.random((samples, len(lo)))
    ind = inside(pts)
    w = np.where(ind, np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    return [(vol * float(np.mean(x)), vol * float(np.std(x)) / math.sqrt(samples))
            for x in (ind.astype(float), w)]


def estimate_weighted_measure(region, samples=200_000, rng=None):
    """Monte Carlo fallback: returns (estimate, standard error)."""
    lo, hi = region.bounding_box()
    if float(np.prod(hi - lo)) == 0.0:
        return 0.0, 0.0
    return _sampled(lo, hi, region.contains, samples, rng)[1]


# -- common refinement -----------------------------------------------------

def _painted_cells(fparts, gparts, keep, bounds, make):
    # Parts are axis intervals [lo, hi), with bounds(part) = (lo, hi) as
    # scalars (one axis) or vectors.  The cuts on each axis are compressed,
    # each side adds its values over the grid slice of every part, and
    # make(lo, hi) builds the cells that keep(a, b) admits, in C order.
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
    idx = np.argwhere(keep(a, b))
    cell_lo = np.stack([c[i] for c, i in zip(cuts, idx.T)], 1).tolist()
    cell_hi = np.stack([c[i + 1] for c, i in zip(cuts, idx.T)], 1).tolist()
    at = tuple(idx.T)
    return [(make(lo, hi), va, vb) for lo, hi, va, vb
            in zip(cell_lo, cell_hi, a[at].tolist(), b[at].tolist())]


def _clipped_cells(fpolys, gpolys, keep):
    # each pair that meets gives one cell, and each polygon's remainder is
    # split only by the polygons of the other side that it meets
    cells, met = [], set()
    for i, (va, p) in enumerate(fpolys):
        rest = [p]
        for j, (vb, q) in enumerate(gpolys):
            inside, _ = split_polygon(p, q)
            if inside is not None:
                met.add((i, j))
                rest = [s for r in rest for s in split_polygon(r, q)[1]]
                if keep(va, vb):
                    cells.append((Polytope(inside), va, vb))
        cells += [(Polytope(r), va, 0.0) for r in rest if keep(va, 0.0)]
    for j, (vb, q) in enumerate(gpolys):
        rest = [q]
        for i, (_, p) in enumerate(fpolys):
            if (i, j) in met:
                rest = [s for r in rest for s in split_polygon(r, p)[1]]
        cells += [(Polytope(r), 0.0, vb) for r in rest if keep(0.0, vb)]
    return cells


def refinement_cells(fparts, gparts, dim, keep):
    """Common refinement of two lists of ``(value, part)`` pairs.

    Returns the ``(part, a, b)`` cells of one disjoint partition, where
    ``a`` and ``b`` are each side's summed values on the cell, and
    ``keep(a, b)`` (on scalars or arrays) admits a cell before it is
    built: ``refine`` keeps the cells where either side is nonzero,
    ``symmetric_difference`` those where exactly one is.  One of three
    exact algebras must hold every part.  Radial parts are the 1-axis
    intervals ``[inner, outer)`` in |x| and axis boxes the n-axis
    intervals ``[lo, hi)``; both are painted on one grid of compressed
    cuts, so the cost follows the number of cells.  2D boxes and
    polygons are split against each other by ``split_polygon``, one
    walk over the other polygon's edges per pair that meets.  Returns
    None when no algebra fits.
    """
    parts = [p for _, p in fparts + gparts]
    if all(isinstance(p, _RADIAL) for p in parts):
        return _painted_cells(fparts, gparts, keep, radial_interval,
                              lambda lo, hi: radial_part(dim, lo[0], hi[0]))
    if all(isinstance(p, AxisBox) for p in parts):
        return _painted_cells(fparts, gparts, keep, lambda box: (box.lo, box.hi), AxisBox)
    fpolys = [(v, _as_polygon(p)) for v, p in fparts]
    gpolys = [(v, _as_polygon(p)) for v, p in gparts]
    if all(p is not None for _, p in fpolys + gpolys):
        return _clipped_cells(fpolys, gpolys, keep)
    return None


def symmetric_difference(r1, r2):
    """Exact symmetric difference, read from the common refinement.

    Every part of each region carries the value 1.0, and
    ``refinement_cells`` builds only the cells where exactly one side is
    nonzero: grid cells for radial parts and axis boxes, split pieces
    for 2D boxes and polygons.  Anything else raises a capability error
    naming the Monte Carlo fallback.
    """
    if r1.dim != r2.dim:
        raise DomainError("dimensions disagree")
    cells = refinement_cells([(1.0, p) for p in r1.parts],
                             [(1.0, p) for p in r2.parts], r1.dim,
                             lambda a, b: (a != 0.0) != (b != 0.0))
    if cells is None:
        raise CapabilityError(
            "symmetric difference outside the radial/box/2D-polygon algebra; "
            "use estimate_symmetric_difference (Monte Carlo) instead")
    return Region([part for part, _, _ in cells], dim=r1.dim)


def estimate_symmetric_difference(r1, r2, samples=200_000, rng=None):
    """Monte Carlo lambda and weighted-measure of the symmetric difference.

    Returns a dict with both estimates and their standard errors.
    """
    # an empty region's bounding box is the zero box: hull only the others
    lo, hi = _box_hull([r.bounding_box() for r in (r1, r2) if len(r)], r1.dim)
    (lam, lam_err), (mu, mu_err) = _sampled(
        lo, hi, lambda pts: r1.contains(pts) != r2.contains(pts), samples, rng)
    return {"lebesgue": lam, "lebesgue_stderr": lam_err,
            "weighted": mu, "weighted_stderr": mu_err}


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
    depth for the time); neither the corner grid nor an ``AxisBox`` is built.
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
    i = np.flatnonzero(start < stop)
    lo = np.stack([xs[i], ys[start[i]]], 1)
    hi = np.stack([xs[i + 1], ys[stop[i]]], 1)
    return Region.from_boxes(lo, hi)
