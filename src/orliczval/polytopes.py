"""Convex polytopes, their moment vectors, and the planar edge operators.

Every predicate (hulls, rank, clipping, membership, the origin's class
and visibility) compares against one tolerance rule, ``_tolerances``,
relative to each object's own extent and never below the roundoff of
its coordinates, so the answers for ``2^k P`` are those for ``P``,
scaled.  2D geometry reduces to cross products of the input
coordinates.  Higher dimensions lean on qhull for hull extraction and
decompose into simplices for volumes and moments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import DomainError


def _tolerances(points, queries=()):
    """The tolerances ``(tol, eps, flat)`` of the object spanned by ``points``.

    With ``L`` the largest side of the bounding box of ``points``, ``M``
    the largest |coordinate| of ``points`` and ``queries``, and
    ``f = 64 * ulp(1) * M`` the roundoff of such coordinates:

    * ``tol = max(1e-9 * L, f)`` bounds distances (offsets from unit
      normals, gaps between points);
    * ``flat = max(1e-12 * L, f)`` is the thickness below which a set is
      flat, for hull turns, singular values and areas alike;
    * ``eps = L * flat`` bounds cross products and areas.

    At unit scale these are 1e-9 and 1e-12, and all three scale exactly
    with a power-of-two scaling of the object.
    """
    pts = np.asarray(points, float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    extent = float((hi - lo).max())
    size = max(-float(lo.min()), float(hi.max()), float(np.abs(queries).max(initial=0.0)))
    floor = 64.0 * sys.float_info.epsilon * size
    flat = max(1e-12 * extent, floor)
    return max(1e-9 * extent, floor), extent * flat, flat


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _edges(v):
    """Starts and directions of the edges of the ccw polygon ``v``."""
    return v, np.concatenate((v[1:], v[:1])) - v


def _edge_margin(starts, dirs, x, y):
    """Least cross product ``dir x (point - start)`` over the given edges.

    Vectorised over the points ``(x, y)``; a point lies in the closed
    polygon when its margin over all edges is at least ``-eps``.
    """
    out = np.inf
    for (px, py), (ex, ey) in zip(starts.tolist(), dirs.tolist()):
        out = np.minimum(out, ex * (y - py) - ey * (x - px))
    return out


def convex_hull_2d(points):
    """Irredundant ccw hull, starting at the lexicographically smallest vertex."""
    pts = np.unique(np.asarray(points, float), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    tol, eps, _ = _tolerances(pts)

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-1] - out[-2], p - out[-2]) <= eps:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) == 2 and np.max(np.abs(hull[0] - hull[1])) <= tol:
        hull = hull[:1]
    return hull


def polygon_area(v):
    v = np.asarray(v, float)
    if len(v) < 3:
        return 0.0
    # fanned from a vertex, so a small polygon far from the origin keeps its area
    x, y = (v[1:] - v[0]).T
    return 0.5 * float(x[:-1] @ y[1:] - y[:-1] @ x[1:])


def polygon_moment(v):
    """Exact integral of x over a ccw polygon, by fanning into triangles."""
    v = np.asarray(v, float)
    out = np.zeros(2)
    for i in range(1, len(v) - 1):
        z = 0.5 * _cross(v[i] - v[0], v[i + 1] - v[0])
        out += z * (v[0] + v[i] + v[i + 1]) / 3.0
    return out


def polygon_weighted_measure(v):
    """Exact integral of |x| over a ccw polygon.

    Each edge contributes the cone integral from the origin, which in
    polar coordinates is the sec^3 antiderivative
    G(t) = (t*sqrt(1+t^2) + asinh(t)) / 2 scaled by d^3/3, where d is
    the distance from the origin to the edge line.
    """
    v = np.asarray(v, float)
    if len(v) < 3:
        return 0.0
    total = 0.0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        z = _cross(a, b)
        if z == 0.0:
            continue
        edge = b - a
        length = math.hypot(edge[0], edge[1])
        if length == 0.0:
            continue
        u = edge / length
        d = abs(z) / length
        ta = float(np.dot(a, u)) / d
        tb = float(np.dot(b, u)) / d

        def g(t):
            return 0.5 * (t * math.sqrt(1.0 + t * t) + math.asinh(t))

        total += math.copysign(1.0, z) * d ** 3 / 3.0 * (g(tb) - g(ta))
    return total


def affine_rank(points):
    pts = np.asarray(points, float)
    if len(pts) <= 1:
        return 0
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return int(np.sum(s > _tolerances(pts)[2]))


def _frame(pts, rank):
    """Centre and orthonormal row basis of the affine hull of ``pts``."""
    center = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - center)
    return center, vt[:rank]


def hull_vertices(points):
    """Irredundant vertex array of conv(points) in any ambient dimension."""
    pts = np.unique(np.asarray(points, float), axis=0)
    n = pts.shape[1]
    if len(pts) <= 1:
        return pts
    rank = affine_rank(pts)
    if rank == 0:
        return pts[:1]
    if rank == 1:
        direction = pts[-1] - pts[0]
        proj = pts @ direction
        return np.array([pts[int(np.argmin(proj))], pts[int(np.argmax(proj))]])
    if n == 2:
        return convex_hull_2d(pts)
    if rank < n:
        center, basis = _frame(pts, rank)
        return center + hull_vertices((pts - center) @ basis.T) @ basis
    hull = ConvexHull(pts)
    verts = pts[hull.vertices]
    order = np.lexsort(verts.T[::-1])
    return verts[order]


class Polytope:
    """Convex hull of finitely many points, stored by its vertices.

    2D vertex order is counterclockwise starting at the
    lexicographically smallest vertex; other dimensions use a fixed
    lexicographic order, so equal polytopes compare equal.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DomainError("a polytope needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("polytope vertices must be finite")
        self.vertices = hull_vertices(pts)
        self.dim = pts.shape[1]
        # built on first use: rank costs an SVD, the hull a qhull run
        self._rank = None
        self._hull = None

    @property
    def rank(self):
        if self._rank is None:
            self._rank = affine_rank(self.vertices)
        return self._rank

    @property
    def hull(self):
        """The qhull of the vertices (full rank, dimension >= 3 only).

        Its ``equations`` are the facets' outward unit normals and
        offsets, ``a.x + d <= 0`` inside, and its ``simplices`` the
        triangulated facets.
        """
        if self._hull is None:
            self._hull = ConvexHull(self.vertices)
        return self._hull

    def transform(self, theta):
        mat = theta.matrix if isinstance(theta, UnimodularMap) else np.asarray(theta, float)
        return Polytope(self.vertices @ mat.T)

    def volume(self):
        if self.dim == 2:
            return polygon_area(self.vertices)
        return _full_dim_volume_moment(self)[0]

    def moment(self):
        """Integral of x over the polytope; zero on lower-dimensional ones."""
        if self.rank < self.dim:
            return np.zeros(self.dim)
        if self.dim == 2:
            return polygon_moment(self.vertices)
        return _full_dim_volume_moment(self)[1]

    def weighted_measure(self):
        if self.dim != 2:
            raise DomainError("closed-form weighted measure is 2D only")
        return polygon_weighted_measure(self.vertices)

    def contains(self, point):
        return bool(self.contains_points(point)[0])

    def contains_points(self, points):
        """Membership of each row of ``points`` in the closed polytope.

        Full rank: one half-space test against the facets (edge cross
        products in 2D).  Lower rank: the distance to the polytope's flat
        and the membership of the projection in the flat's own
        coordinates.  One set of tolerances, from the vertices and the
        points, serves every step.
        """
        pts = np.atleast_2d(np.asarray(points, float))
        tol, eps, _ = _tolerances(self.vertices, pts)
        return self._contains(pts, tol, eps)

    def _contains(self, pts, tol, eps):
        v = self.vertices
        if self.rank < self.dim:
            center, basis = _frame(v, self.rank)
            q = (pts - center) @ basis.T
            near = np.max(np.abs(pts - center - q @ basis), axis=1) <= tol
            if self.rank == 0:
                return near
            return near & Polytope((v - center) @ basis.T)._contains(q, tol, eps)
        if self.dim == 1:
            return (v.min() - tol <= pts[:, 0]) & (pts[:, 0] <= v.max() + tol)
        if self.dim == 2:
            return _edge_margin(*_edges(v), pts[:, 0], pts[:, 1]) >= -eps
        eq = self.hull.equations
        return np.all(pts @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)

    def origin_class(self):
        """One of ``"vertex"``, ``"boundary"``, ``"interior"``, ``"outside"``."""
        v = self.vertices
        tol, eps, _ = _tolerances(v)
        if np.any(np.max(np.abs(v), axis=1) <= tol):
            return "vertex"
        if self.rank < self.dim:
            return "boundary" if self.contains(np.zeros(self.dim)) else "outside"
        if self.dim == 2:
            margin, cut = float(_edge_margin(*_edges(v), 0.0, 0.0)), eps
        else:
            # the origin's least distance inside a facet: minus the largest offset
            margin, cut = -float(np.max(self.hull.equations[:, -1])), tol
        if margin < -cut:
            return "outside"
        if margin <= cut:
            return "boundary"
        return "interior"

    def to_json(self):
        return {"dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["vertices"])

    def __eq__(self, other):
        if not isinstance(other, Polytope) or self.vertices.shape != other.vertices.shape:
            return False
        tol = _tolerances(np.vstack([self.vertices, other.vertices]))[0]
        return bool(np.all(np.abs(self.vertices - other.vertices) <= tol))

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()!r})"


def _full_dim_volume_moment(poly):
    v = poly.vertices
    n = poly.dim
    if poly.rank < n:
        return 0.0, np.zeros(n)
    hull = poly.hull
    apex = v[hull.vertices].mean(axis=0)
    vol = 0.0
    mom = np.zeros(n)
    fact = math.factorial(n)
    for simplex in hull.simplices:
        pts = v[simplex]
        det = abs(np.linalg.det(pts - apex))
        w = det / fact
        vol += w
        mom += w * (apex + pts.sum(axis=0)) / (n + 1.0)
    return vol, mom


def moment(poly):
    """Moment vector of a polytope (simple: zero below full dimension)."""
    return poly.moment()


def cone_hull(poly):
    """Convex hull of the polytope together with the origin."""
    pts = np.vstack([np.zeros((1, poly.dim)), poly.vertices])
    return Polytope(pts)


def _origin_on_segment(a, b, tol, eps):
    if abs(_cross(a, b)) > eps:
        return False
    lo = np.minimum(a, b) - tol
    hi = np.maximum(a, b) + tol
    return bool(np.all(lo <= 0.0) and np.all(0.0 <= hi))


def visible_vertices(poly):
    """Vertices visible from the origin, counterclockwise by angle.

    A vertex u is visible when the segment [0, u] meets the polytope in
    u alone.  An edge whose closed segment carries the origin marks
    both of its endpoints visible (the tie rule).  The origin itself is
    never listed.  Requires the origin off the interior.
    """
    if poly.dim != 2:
        raise DomainError("visibility is defined for planar polytopes")
    if poly.origin_class() == "interior":
        raise DomainError("origin lies in the interior; no visible chain")
    v = poly.vertices
    tol, eps, _ = _tolerances(v)
    keep = []
    if len(v) == 1:
        if float(np.max(np.abs(v[0]))) > tol:
            keep.append(v[0])
    elif len(v) == 2:
        a, b = v
        if _origin_on_segment(a, b, tol, eps):
            keep = [p for p in (a, b) if float(np.max(np.abs(p))) > tol]
        elif abs(_cross(a, b)) <= eps:
            keep = [a if np.dot(a, a) <= np.dot(b, b) else b]
        else:
            keep = [a, b]
    else:
        m = len(v)
        on_edge = [_origin_on_segment(v[i], v[(i + 1) % m], tol, eps)
                   for i in range(m)]
        for i in range(m):
            if float(np.max(np.abs(v[i]))) <= tol:
                continue
            if on_edge[i] or on_edge[i - 1]:
                keep.append(v[i])
                continue
            p = v[(i + 1) % m] - v[i]
            q = v[i - 1] - v[i]
            d = -v[i]
            inside_cone = _cross(p, d) >= -eps and _cross(d, q) >= -eps
            if not inside_cone:
                keep.append(v[i])
    if not keep:
        return np.zeros((0, 2))
    pts = np.array(keep)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.argsort(ang, kind="stable")
    pts, ang = pts[order], ang[order]
    if len(pts) > 1:
        gaps = np.diff(np.concatenate((ang, [ang[0] + 2.0 * math.pi])))
        start = (int(np.argmax(gaps)) + 1) % len(pts)
        pts = np.roll(pts, -start, axis=0)
    return pts


def edge_sum(poly):
    """Sum of the vertices adjacent to the origin.

    For a 2D polytope with the origin as a vertex this is u + v over
    the two incident edges [0, u], [0, v]; for a segment [u, v] through
    the origin it is 2(u + v); in every other case (origin interior, on
    an edge but not a vertex, or a single point) it is zero.
    """
    _require_origin(poly)
    v = poly.vertices
    if poly.rank == 1:
        return 2.0 * (v[0] + v[1])
    if poly.rank == 2 and poly.origin_class() == "vertex":
        i0 = int(np.argmin(np.max(np.abs(v), axis=1)))
        return v[(i0 + 1) % len(v)] + v[i0 - 1]
    return np.zeros(2)


def visible_span(poly):
    """Difference u_1 - u_r across the boundary chain seen from the origin.

    Defined for 2D polytopes carrying the origin on their boundary: the
    non-origin vertices are walked counterclockwise starting at the
    origin's position, and the first minus the last is returned.
    Segments, points and origin-interior polytopes give zero.
    """
    _require_origin(poly)
    v = poly.vertices
    if poly.rank < 2 or poly.origin_class() == "interior":
        return np.zeros(2)
    m = len(v)
    tol, eps, _ = _tolerances(v)
    norms = np.max(np.abs(v), axis=1)
    if np.any(norms <= tol):
        i0 = int(np.argmin(norms))
        return v[(i0 + 1) % m] - v[i0 - 1]
    for i in range(m):
        if _origin_on_segment(v[i], v[(i + 1) % m], tol, eps):
            return v[(i + 1) % m] - v[i]
    raise DomainError("origin is not on the boundary")


def _require_origin(poly):
    if poly.dim != 2:
        raise DomainError("edge operators are planar")
    if not poly.contains(np.zeros(2)):
        raise DomainError("origin must belong to the polytope")


@dataclass(frozen=True)
class PlanarCoefficients:
    """Coefficients (c1, c1t, c2, c2t, c3, c3t) of the planar family."""

    c1: float = 0.0
    c1t: float = 0.0
    c2: float = 0.0
    c2t: float = 0.0
    c3: float = 0.0
    c3t: float = 0.0


def _visible_cone(poly):
    chain = visible_vertices(poly)
    pts = np.vstack([np.zeros((1, 2)), chain]) if len(chain) else np.zeros((1, 2))
    return Polytope(pts)


def planar_valuation(poly, coeffs):
    """Planar six-coefficient family combining moments and edge terms.

    value = c1*m(Q) + c1t*m([0,Q]) + c2*e([0,Q]) + c3*h([0,Q])
          + c2t*e([0,u_1..u_r]) + c3t*h([0,u_1..u_r]),
    where u_1..u_r is the visible chain of Q.  The chain terms vanish
    when the cone over the chain is lower-dimensional.
    """
    if poly.dim != 2:
        raise DomainError("the six-coefficient family is planar")
    cone = cone_hull(poly)
    out = coeffs.c1 * poly.moment() + coeffs.c1t * cone.moment()
    out = out + coeffs.c2 * edge_sum(cone) + coeffs.c3 * visible_span(cone)
    vis = _visible_cone(poly)
    if vis.rank == 2:
        out = out + coeffs.c2t * edge_sum(vis) + coeffs.c3t * visible_span(vis)
    return out


def spatial_valuation(poly, c1, c2):
    """Family c1*m(Q) + c2*m([0,Q]) for ambient dimension >= 3."""
    if poly.dim < 3:
        raise DomainError("the two-coefficient family needs dimension >= 3")
    return c1 * poly.moment() + c2 * cone_hull(poly).moment()


def _edge_basis(poly):
    """Columns multiply (c2, c2t, c3, c3t) in the planar family."""
    cone = cone_hull(poly)
    cols = [edge_sum(cone), np.zeros(2), visible_span(cone), np.zeros(2)]
    vis = _visible_cone(poly)
    if vis.rank == 2:
        cols[1] = edge_sum(vis)
        cols[3] = visible_span(vis)
    return np.column_stack(cols)


def continuity_constraint_system(eps_values=None):
    """Linear constraints forced on the edge coefficients by continuity.

    Four one-parameter polytope families degenerate as eps -> 0:

        [e1, eps*e2]        -> [0, e1]
        [eps*e1, e2]        -> [0, e2]
        [e1, e2, -eps*e1]   -> [0, e1, e2]
        [eps*e1, e2, -e1]   -> [0, e2, -e1]

    Along each family the edge-term basis is affine in eps, so its
    limit is read off exactly by linear extrapolation; equating the
    limit with the basis of the limit polytope yields homogeneous
    constraints on (c2, c2t, c3, c3t).  The stacked system has full
    rank: only the zero coefficient vector survives, so the edge terms
    cannot appear in any family continuous through these degenerations.

    Returns a dict with the row matrix, readable equations, the rank,
    the affineness residual over the eps schedule, and the flag
    ``unique_zero_solution``.
    """
    if eps_values is None:
        eps_values = [2.0 ** -k for k in range(1, 21)]
    eps_values = sorted(float(e) for e in eps_values)

    families = [
        ("[e1, eps*e2]", lambda e: [[1.0, 0.0], [0.0, e]], [[0.0, 0.0], [1.0, 0.0]]),
        ("[eps*e1, e2]", lambda e: [[e, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]),
        ("[e1, e2, -eps*e1]", lambda e: [[1.0, 0.0], [0.0, 1.0], [-e, 0.0]],
         [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ("[eps*e1, e2, -e1]", lambda e: [[e, 0.0], [0.0, 1.0], [-1.0, 0.0]],
         [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
    ]
    rows = []
    labels = []
    affine_residual = 0.0
    for name, make, limit_pts in families:
        bases = np.array([_edge_basis(Polytope(make(e))) for e in eps_values])
        e0, e1 = eps_values[0], eps_values[1]
        slope = (bases[1] - bases[0]) / (e1 - e0)
        intercept = bases[0] - slope * e0
        for k, e in enumerate(eps_values):
            predicted = intercept + slope * e
            affine_residual = max(affine_residual,
                                  float(np.max(np.abs(predicted - bases[k]))))
        target = _edge_basis(Polytope(limit_pts))
        for comp, comp_name in ((0, "e1"), (1, "e2")):
            row = intercept[comp] - target[comp]
            if np.max(np.abs(row)) == 0.0:
                continue
            rows.append(row)
            labels.append(f"{name} -> limit, {comp_name} component")
    matrix = np.array(rows)
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-9))
    equations = []
    names = ("c2", "c2t", "c3", "c3t")
    for row, label in zip(matrix, labels):
        terms = []
        for c, nm in zip(row, names):
            if c == 0.0:
                continue
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            coef = "" if mag == 1.0 else f"{mag:g}*"
            terms.append(f"{sign} {coef}{nm}")
        lhs = " ".join(terms).lstrip("+ ")
        equations.append(f"{lhs} = 0    [{label}]")
    return {
        "matrix": matrix,
        "labels": labels,
        "equations": equations,
        "rank": rank,
        "unique_zero_solution": rank == matrix.shape[1],
        "affine_residual": affine_residual,
    }


def shear(n, i, j, lam):
    """Elementary shear: identity with lam at row i, column j."""
    if i == j:
        raise DomainError("shear indices must differ")
    out = np.eye(n)
    out[i, j] = float(lam)
    return out


@dataclass(frozen=True)
class UnimodularMap:
    """A determinant-one matrix together with how it was built.

    The trace lists the elementary factors, so exact rational
    reconstruction stays possible even after float products.
    """

    matrix: np.ndarray
    trace: tuple

    @property
    def n(self):
        return self.matrix.shape[0]

    def det_exact(self):
        """Determinant by fraction-exact elimination on the float entries."""
        from fractions import Fraction

        rows = [[Fraction(x) for x in row] for row in self.matrix.tolist()]
        n = len(rows)
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det *= rows[col][col]
            for r in range(col + 1, n):
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return det

    def __matmul__(self, vec):
        return self.matrix @ vec


def random_unimodular(n, rng, num_shears=4, denominator=4, magnitude=8):
    """Product of elementary shears with bounded dyadic-rational entries.

    Every factor has determinant exactly one, and with the default
    dyadic denominator the float product is exact, so the result is
    exactly unimodular.
    """
    out = np.eye(n)
    trace = []
    for _ in range(num_shears):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        k = 0
        while k == 0:
            k = int(rng.integers(-magnitude, magnitude + 1))
        lam = k / denominator
        trace.append(("shear", i, j, lam))
        out = out @ shear(n, i, j, lam)
    return UnimodularMap(out, tuple(trace))


def diagonal_unimodular(n, k):
    """diag(k, ..., k, k**(1-n)); determinant one for any nonzero k."""
    if k == 0:
        raise DomainError("k must be nonzero")
    d = [float(k)] * (n - 1) + [float(k) ** (1 - n)]
    return UnimodularMap(np.diag(d), (("diagonal", float(k)),))


# -- planar clipping -------------------------------------------------------

def _clip_halfplane(v, point, direction, eps):
    """Keep the part of polygon ``v`` left of the ray point + t*direction."""
    if len(v) == 0:
        return v
    side = _edge_margin(point[None], direction[None], v[:, 0], v[:, 1])
    if np.all(side >= -eps):
        return v
    if np.all(side <= eps):
        return np.zeros((0, 2))
    out = []
    m = len(v)
    for i in range(m):
        a, sa = v[i], side[i]
        b, sb = v[(i + 1) % m], side[(i + 1) % m]
        if sa >= -eps:
            out.append(a)
        if (sa > eps and sb < -eps) or (sa < -eps and sb > eps):
            t = sa / (sa - sb)
            out.append(a + t * (b - a))
    return np.asarray(out)


def _tidy(v, tol, eps):
    if len(v) < 3:
        return None
    keep = [v[0]]
    for p in v[1:]:
        if np.max(np.abs(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) > 1 and np.max(np.abs(keep[0] - keep[-1])) <= tol:
        keep.pop()
    v = np.asarray(keep)
    if len(v) < 3 or abs(polygon_area(v)) <= eps:
        return None
    return v


def intersect_polygons(p, q):
    """Intersection of two ccw convex polygons, or None when negligible.

    Negligible means below the tolerances of the pair (``_tolerances``).
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    tol, eps, _ = _tolerances(np.vstack([p, q]))
    out = p
    for i in range(len(q)):
        out = _clip_halfplane(out, q[i], q[(i + 1) % len(q)] - q[i], eps)
        if len(out) == 0:
            return None
    return _tidy(out, tol, eps)


def subtract_polygon(p, q):
    """Convex pieces whose disjoint union is p minus q."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    tol, eps, _ = _tolerances(np.vstack([p, q]))
    pieces = []
    for i in range(len(q)):
        piece = _clip_halfplane(p, q[i], q[i] - q[(i + 1) % len(q)], eps)
        for j in range(i):
            if len(piece) == 0:
                break
            piece = _clip_halfplane(piece, q[j], q[(j + 1) % len(q)] - q[j], eps)
        piece = _tidy(piece, tol, eps)
        if piece is not None:
            pieces.append(piece)
    return pieces
