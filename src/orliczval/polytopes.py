"""Convex polytopes, their moment vectors, and the planar edge operators.

Every predicate (hulls, rank, clipping, membership, the origin's class
and visibility) compares against one tolerance rule, ``_tolerances``,
relative to each object's own extent and never below the roundoff of
its coordinates, so the answers for ``2^k P`` are those for ``P``,
scaled.  2D geometry reduces to cross products of the input
coordinates; planar clipping is one Sutherland-Hodgman walk,
``split_polygon``, which gives a polygon's overlap with another and
the convex pieces of its remainder together.  Higher dimensions lean
on qhull for hull extraction and decompose into simplices for volumes
and moments.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError


def _tolerances(points, queries=()):
    """The tolerances ``(tol, eps, flat)`` of the object spanned by ``points``.

    With ``L`` the largest side of the bounding box of ``points``, ``M``
    the largest |coordinate| of ``points`` and ``queries``, and
    ``f = 64 * ulp(1) * M`` the roundoff of such coordinates:

    * ``tol = max(1e-9 * L, f)`` bounds distances (offsets from unit
      normals, gaps between points);
    * ``flat = max(1e-12 * L, f)`` is the thickness below which a set is
      flat, as compared with singular values;
    * ``eps = L * flat`` bounds cross products, as in hull turns, edge
      margins and areas.

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


def _edge_ends(v):
    """Starts and ends of the edges of the ccw polygon ``v``."""
    return v, np.concatenate((v[1:], v[:1]))


def _edges(v):
    """Starts and directions of the edges of the ccw polygon ``v``."""
    a, b = _edge_ends(v)
    return a, b - a


def _edge_margin(starts, dirs, x, y):
    """Least cross product ``dir x (point - start)`` over the given edges.

    Vectorised over the points ``(x, y)``; a point lies in the closed
    polygon when its margin over all edges is at least ``-eps``.
    """
    out = np.inf
    for (px, py), (ex, ey) in zip(starts.tolist(), dirs.tolist()):
        out = np.minimum(out, ex * (y - py) - ey * (x - px))
    return out


def _hull_2d(pts, tol, eps):
    """Andrew's monotone chain: indices of the ccw hull of ``pts`` from its
    lexicographically smallest point.  Turns with a cross product at most
    ``eps`` are dropped, so repeated and collinear points leave, and the
    vertex count less one is the affine rank.
    """
    xy = pts.tolist()

    def build(seq):
        out = []
        for i in seq:
            x, y = xy[i]
            while len(out) >= 2:
                (ax, ay), (bx, by) = xy[out[-2]], xy[out[-1]]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > eps:
                    break
                out.pop()
            out.append(i)
        return out

    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    lower, upper = build(order), build(order[::-1])
    hull = lower[:-1] + upper[:-1] or lower  # one point: both chains lose their only one
    if len(hull) == 2 and np.max(np.abs(pts[hull[0]] - pts[hull[1]])) <= tol:
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
    """Exact integral of x over a ccw polygon, fanned into triangles from ``v[0]``."""
    v = np.asarray(v, float)
    if len(v) < 3:
        return np.zeros(2)
    d = v[1:] - v[0]
    z = 0.5 * (d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0])
    return z @ (v[0] + v[1:-1] + v[2:]) / 3.0


def edge_weighted_measures(a, b):
    """Integral of |x| over each triangle ``(0, a, b)``, signed by orientation.

    ``a`` and ``b`` are ``(..., 2)`` arrays of edge ends; the result has
    shape ``(...)``, so the terms of a ccw polygon sum to its weighted
    measure.  In polar coordinates an edge at distance ``d`` from the
    origin contributes ``d^3/3 (G(t_b) - G(t_a))`` with the sec^3
    antiderivative ``G(t) = (t s + asinh t) / 2``, ``s = sqrt(1 + t^2)``
    and ``t`` the position along the edge in units of ``d``.  Neither
    difference is formed by subtraction: with ``z = a x (b - a)``,
    ``t_b - t_a = L^2/|z|``, ``t_b s_b - t_a s_a = (t_b - t_a)((s_a + s_b)/2
    + (t_a + t_b)^2 / (2 (s_a + s_b)))`` and ``asinh t_b - asinh t_a =
    asinh(t_b s_a - t_a s_b)``, whose argument is ``(t_b - t_a)(t_a + t_b)
    / (t_b s_a + t_a s_b)`` when ``t_a`` and ``t_b`` share a sign.  Each
    term is then accurate to a few ulps of itself.  Edges on a line
    through the origin contribute 0.
    """
    a = np.asarray(a, float)
    e = np.asarray(b, float) - a
    ax, ay, ex, ey = a[..., 0], a[..., 1], e[..., 0], e[..., 1]
    z = ax * ey - ay * ex
    ll = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        az = np.abs(z)
        ta = (ax * ex + ay * ey) / az
        dt = ll / az
        tb = ta + dt
        sa, sb = np.sqrt(1.0 + ta * ta), np.sqrt(1.0 + tb * tb)
        p, q = ta + tb, sa + sb
        ba, ab = tb * sa, ta * sb
        x = np.where(ta * tb > 0.0, dt * p / (ba + ab), ba - ab)
        d = az / np.sqrt(ll)
        terms = d * d * d * (dt * (q * q + p * p) / (2.0 * q) + np.arcsinh(x)) / 6.0
    return np.where(z != 0.0, np.copysign(terms, z), 0.0)


def polygon_weighted_measure(v):
    """Exact integral of |x| over a ccw polygon: the sum of its edge terms
    (``edge_weighted_measures``)."""
    v = np.asarray(v, float)
    if len(v) < 3:
        return 0.0
    return float(edge_weighted_measures(*_edge_ends(v)).sum())


def rectangle_weighted_measures(lo, hi):
    """Integral of |x| over each rectangle ``[lo, hi)`` of ``(..., 2)`` corner arrays.

    The four edges of every rectangle, ccw from ``lo``, go through
    ``edge_weighted_measures`` in one call.
    """
    x = np.concatenate((lo, hi), axis=-1)  # x0, y0, x1, y1
    shape = x.shape[:-1] + (4, 2)
    a = x[..., [0, 1, 2, 1, 2, 3, 0, 3]].reshape(shape)
    b = x[..., [2, 1, 2, 3, 0, 3, 0, 1]].reshape(shape)
    return edge_weighted_measures(a, b).sum(axis=-1)


def _frame(pts):
    """Centre, singular values and orthonormal row basis of ``pts`` about their mean."""
    center = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - center, full_matrices=False)
    return center, s, vt


def _hull_and_rank(pts):
    """Indices of the irredundant hull vertices of ``pts``, its affine rank and facets.

    One tolerance rule serves all three, and the planar hull sets every
    rank below 3: in 2D the monotone chain's vertex count is the rank,
    and the indices run ccw.  In dimension >= 3 the singular values of
    the centred points tell full rank; a flatter set is hulled on its
    leading axes (at least two), and the indices follow the
    lexicographic order of the points.  For full rank in dimension >= 3
    one qhull gives the facets: its triangles, re-indexed into the
    returned vertex order, and its ``equations``.  Otherwise they are
    None.
    """
    n = pts.shape[1]
    tol, eps, flat = _tolerances(pts)
    if n == 1:
        ends = [int(np.argmin(pts)), int(np.argmax(pts))]
        return (ends, 1, None) if np.ptp(pts) > tol else (ends[:1], 0, None)
    if n == 2:
        idx = _hull_2d(pts, tol, eps)
        return idx, min(len(idx) - 1, 2), None
    center, s, vt = _frame(pts)
    rank = int(np.sum(s > flat))
    if rank < n:
        idx, rank, _ = _hull_and_rank((pts - center) @ vt[:max(rank, 2)].T)
        return np.asarray(idx)[np.lexsort(pts[idx].T[::-1])], rank, None
    from scipy.spatial import ConvexHull  # only full-rank hulls in n >= 3 need qhull
    hull = ConvexHull(pts)
    idx = hull.vertices[np.lexsort(pts[hull.vertices].T[::-1])]
    where = np.empty(len(pts), int)
    where[idx] = np.arange(len(idx))
    return idx, rank, (where[hull.simplices], hull.equations)


class Polytope:
    """Convex hull of finitely many points, stored by its vertices.

    2D vertex order is counterclockwise starting at the
    lexicographically smallest vertex; other dimensions use a fixed
    lexicographic order, so equal polytopes compare equal.

    A full-rank polytope in dimension >= 3 keeps the facets of the one
    qhull that found its vertices, or of its preimage under ``transform``:
    ``facets`` are triangles, as rows of indices into ``vertices``, and
    ``equations`` their outward unit normals ``a`` and offsets ``d``, with
    ``a.x + d <= 0`` inside.  Both are None otherwise.  No input point
    other than a vertex is kept.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        if pts.ndim != 2 or pts.size == 0:
            raise DomainError("a polytope needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("polytope vertices must be finite")
        idx, self._rank, facets = _hull_and_rank(pts)
        self.facets, self.equations = facets or (None, None)
        self.vertices = pts[idx]
        self.dim = pts.shape[1]
        self._flat = None  # the frame of a lower-rank polytope, built on first use

    @property
    def rank(self):
        return self._rank

    def transform(self, theta):
        """The image under the invertible ``(n, n)`` map ``theta``.

        A linear bijection carries the face lattice of a hull onto that
        of its image, so a full-rank polytope in dimension >= 3 keeps its
        hull: the mapped vertices are re-sorted lexicographically,
        ``facets`` re-indexed, and each facet's ``(a, d)`` becomes
        ``(theta^-T a, d)``, renormalised, which stays outward for any
        invertible map.  Only an image that fails ``_hull_and_rank``'s
        rank test (singular values of ``_frame`` against ``flat``) is
        hulled again; so is every polytope of lower rank or dimension.
        """
        theta = np.asarray(theta, float)
        pts = self.vertices @ theta.T
        if self.facets is None or np.sum(_frame(pts)[1] > _tolerances(pts)[2]) < self.dim:
            return Polytope(pts)
        order = np.lexsort(pts.T[::-1])
        where = np.empty(len(order), int)
        where[order] = np.arange(len(order))
        eq = np.hstack([self.equations[:, :-1] @ np.linalg.inv(theta), self.equations[:, -1:]])
        image = object.__new__(Polytope)
        image.dim, image._rank, image._flat = self.dim, self._rank, None
        image.vertices, image.facets = pts[order], where[self.facets]
        image.equations = eq / np.linalg.norm(eq[:, :-1], axis=1)[:, None]
        return image

    def volume(self):
        if self.dim == 1:
            return float(np.ptp(self.vertices))
        if self.dim == 2:
            return polygon_area(self.vertices)
        return 0.0 if self.facets is None else _full_dim_volume_moment(self)[0]

    def moment(self):
        """Integral of x over the polytope; zero on lower-dimensional ones."""
        if self.rank < self.dim:
            return np.zeros(self.dim)
        if self.dim == 1:  # the segment [min, max]
            return 0.5 * np.diff(self.vertices[:, 0] ** 2)
        if self.dim == 2:
            return polygon_moment(self.vertices)
        return _full_dim_volume_moment(self)[1]

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
            if self._flat is None:
                center, _, vt = _frame(v)
                basis = vt[:self.rank]
                inner = Polytope((v - center) @ basis.T) if self.rank else None
                self._flat = center, basis, inner
            center, basis, inner = self._flat
            q = (pts - center) @ basis.T
            near = np.max(np.abs(pts - center - q @ basis), axis=1) <= tol
            if inner is None:
                return near
            return near & inner._contains(q, tol, eps)
        if self.dim == 1:
            return (v.min() - tol <= pts[:, 0]) & (pts[:, 0] <= v.max() + tol)
        if self.dim == 2:
            return _edge_margin(*_edges(v), pts[:, 0], pts[:, 1]) >= -eps
        eq = self.equations
        return np.all(pts @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)

    def origin_class(self):
        """One of ``"vertex"``, ``"boundary"``, ``"interior"``, ``"outside"``."""
        if self.dim == 2:
            return _locate_origin(self.vertices)[0]
        v = self.vertices
        tol = _tolerances(v)[0]
        if np.any(np.max(np.abs(v), axis=1) <= tol):
            return "vertex"
        if self.rank < self.dim:
            return "boundary" if self.contains(np.zeros(self.dim)) else "outside"
        # the origin's least distance inside a facet: minus the largest
        # offset, or the distance to the nearer end of a segment
        margin = (float(min(-v[0, 0], v[1, 0])) if self.dim == 1
                  else -float(np.max(self.equations[:, -1])))
        if margin < -tol:
            return "outside"
        if margin <= tol:
            return "boundary"
        return "interior"

    def to_json(self):
        return {"kind": "polytope", "dim": self.dim, "vertices": self.vertices.tolist()}

    def __eq__(self, other):
        if not isinstance(other, Polytope) or self.vertices.shape != other.vertices.shape:
            return False
        tol = _tolerances(np.vstack([self.vertices, other.vertices]))[0]
        return bool(np.all(np.abs(self.vertices - other.vertices) <= tol))

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()!r})"


def _full_dim_volume_moment(poly):
    """Volume and moment over the simplices joining the vertex centroid to
    the hull's triangulated facets."""
    apex = poly.vertices.mean(axis=0)
    simplices = poly.vertices[poly.facets]
    w = np.abs(np.linalg.det(simplices - apex)) / math.factorial(poly.dim)
    return float(w.sum()), w @ (apex + simplices.sum(axis=1)) / (poly.dim + 1.0)


def moment(poly):
    """Moment vector of a polytope (simple: zero below full dimension)."""
    return poly.moment()


def cone_hull(poly):
    """Convex hull of the polytope together with the origin."""
    pts = np.vstack([np.zeros((1, poly.dim)), poly.vertices])
    return Polytope(pts)


def _locate_origin(v):
    """Where the origin lies on the ccw polygon ``v`` (one point or more).

    Returns ``(kind, i, facing)``.  With the edge margins ``m_i = v_i x
    e_i`` (``e_i = v_{i+1} - v_i``), ``kind`` is ``"vertex"`` for a vertex
    ``i`` within ``tol``, ``"boundary"`` for an edge ``i`` with ``|m_i| <=
    eps`` while the origin is inside (on a segment, between its ends),
    ``"interior"`` or ``"outside"``.  For ``"outside"``, ``facing`` marks
    the edges that face the origin, ``m_i < -eps`` (both sides of a
    segment whose line misses it); ``i`` and ``facing`` are None
    otherwise.
    """
    tol, eps, _ = _tolerances(v)
    norms = np.max(np.abs(v), axis=1)
    i = int(np.argmin(norms))
    if norms[i] <= tol:
        return "vertex", i, None
    a, e = _edges(v)
    m = a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0]
    if len(v) < 3:
        if len(v) == 2 and abs(m[0]) <= eps and np.all(v.min(axis=0) <= tol) \
                and np.all(v.max(axis=0) >= -tol):
            return "boundary", 0, None
        return "outside", None, np.abs(m) > eps
    if m.min() < -eps:
        return "outside", None, m < -eps
    i = int(np.argmin(m))
    return ("boundary", i, None) if m[i] <= eps else ("interior", None, None)


def visible_vertices(poly):
    """Vertices visible from the origin, counterclockwise by angle.

    A vertex u is visible when the segment [0, u] meets the polytope in
    u alone: from outside, when an edge at u faces the origin.  An edge
    carrying the origin marks both of its endpoints visible, and the
    origin as a vertex marks both of its neighbours (the tie rule); the
    origin itself is never listed.  Requires the origin off the interior.
    """
    if poly.dim != 2:
        raise DomainError("visibility is defined for planar polytopes")
    v = poly.vertices
    kind, i, facing = _locate_origin(v)
    if kind == "interior":
        raise DomainError("origin lies in the interior; no visible chain")
    m = len(v)
    if kind == "outside":
        keep = facing | np.roll(facing, 1)
        if not keep.any():  # a point, or a segment on a line through the origin
            keep[np.argmin((v * v).sum(axis=1))] = True
    else:
        keep = np.zeros(m, bool)
        keep[[i, (i + 1) % m] if kind == "boundary" else [i - 1, (i + 1) % m]] = True
        if kind == "vertex":
            keep[i] = False
    pts = v[keep]
    if len(pts) == 0:
        return np.zeros((0, 2))
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
    if poly.dim != 2:
        raise DomainError("edge operators are planar")
    v = poly.vertices
    kind, i, _ = _locate_origin(v)
    if kind == "outside":
        raise DomainError("origin must belong to the polytope")
    if poly.rank == 1:
        return 2.0 * (v[0] + v[1])
    if poly.rank == 2 and kind == "vertex":
        return v[(i + 1) % len(v)] + v[i - 1]
    return np.zeros(2)


def visible_span(poly):
    """Difference u_1 - u_r across the boundary chain seen from the origin.

    Defined for 2D polytopes carrying the origin on their boundary: the
    non-origin vertices are walked counterclockwise starting at the
    origin's position, and the first minus the last is returned.
    Segments, points and origin-interior polytopes give zero.
    """
    if poly.dim != 2:
        raise DomainError("edge operators are planar")
    v = poly.vertices
    kind, i, _ = _locate_origin(v)
    if kind == "outside":
        raise DomainError("origin must belong to the polytope")
    if poly.rank < 2 or kind == "interior":
        return np.zeros(2)
    return v[(i + 1) % len(v)] - v[i - 1 if kind == "vertex" else i]


def planar_valuation(poly, c1=0.0, c1t=0.0, c2=0.0, c2t=0.0, c3=0.0, c3t=0.0):
    """Planar six-coefficient family combining moments and edge terms.

    value = c1*m(Q) + c1t*m([0,Q]) + c2*e([0,Q]) + c3*h([0,Q])
          + c2t*e([0,u_1..u_r]) + c3t*h([0,u_1..u_r]),
    where u_1..u_r is the visible chain of Q: the moments plus
    ``_edge_basis(Q) @ (c2, c2t, c3, c3t)``.  The chain terms vanish
    when the cone over the chain is lower-dimensional.  The six
    coefficients are plain numbers, 0 unless given, as in
    :func:`spatial_valuation`.
    """
    if poly.dim != 2:
        raise DomainError("the six-coefficient family is planar")
    cone = cone_hull(poly)
    return (c1 * poly.moment() + c1t * cone.moment()
            + _edge_basis(poly, cone) @ np.array([c2, c2t, c3, c3t]))


def spatial_valuation(poly, c1, c2):
    """Family c1*m(Q) + c2*m([0,Q]) for ambient dimension >= 3."""
    if poly.dim < 3:
        raise DomainError("the two-coefficient family needs dimension >= 3")
    return c1 * poly.moment() + c2 * cone_hull(poly).moment()


def _edge_basis(poly, cone=None):
    """Columns multiply (c2, c2t, c3, c3t) in the planar family; cone is [0, poly]."""
    cone = cone_hull(poly) if cone is None else cone
    cols = [edge_sum(cone), np.zeros(2), visible_span(cone), np.zeros(2)]
    vis = Polytope(np.vstack([np.zeros((1, 2)), visible_vertices(poly)]))
    if vis.rank == 2:
        cols[1] = edge_sum(vis)
        cols[3] = visible_span(vis)
    return np.column_stack(cols)


_EPS_SCHEDULE = [2.0 ** -k for k in range(20, 0, -1)]  # 2^-20 up to 1/2


def continuity_constraint_system():
    """Linear constraints forced on the edge coefficients by continuity.

    Four one-parameter polytope families degenerate as eps -> 0:

        [e1, eps*e2]        -> [0, e1]
        [eps*e1, e2]        -> [0, e2]
        [e1, e2, -eps*e1]   -> [0, e1, e2]
        [eps*e1, e2, -e1]   -> [0, e2, -e1]

    Along each family the edge-term basis is affine in eps, so its
    limit is read off exactly by linear extrapolation from the two
    smallest eps of ``_EPS_SCHEDULE``; equating the limit with the
    basis of the limit polytope yields homogeneous constraints on
    (c2, c2t, c3, c3t).  The stacked system has full rank: only the zero
    coefficient vector survives, so the edge terms cannot appear in any
    family continuous through these degenerations.

    Returns a dict with the row matrix, its labels, the rank, the
    affineness residual over the eps schedule, and the flag
    ``unique_zero_solution``.
    """
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
    eps = np.array(_EPS_SCHEDULE)[:, None, None]
    for name, make, limit_pts in families:
        bases = np.array([_edge_basis(Polytope(make(e))) for e in _EPS_SCHEDULE])
        e0, e1 = _EPS_SCHEDULE[0], _EPS_SCHEDULE[1]
        slope = (bases[1] - bases[0]) / (e1 - e0)
        intercept = bases[0] - slope * e0
        affine_residual = max(affine_residual,
                              float(np.max(np.abs(intercept + slope * eps - bases))))
        target = _edge_basis(Polytope(limit_pts))
        for comp, comp_name in ((0, "e1"), (1, "e2")):
            row = intercept[comp] - target[comp]
            if np.max(np.abs(row)) == 0.0:
                continue
            rows.append(row)
            labels.append(f"{name} -> limit, {comp_name} component")
    matrix = np.array(rows)
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-9))
    return {
        "matrix": matrix,
        "labels": labels,
        "rank": rank,
        "unique_zero_solution": rank == matrix.shape[1],
        "affine_residual": affine_residual,
    }


def shear(n, i, j, lam):
    """Elementary shear: the ``(n, n)`` identity with lam at row i, column j."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DomainError("shear indices must differ and lie in 0..n-1")
    out = np.eye(n)
    out[i, j] = float(lam)
    return out


def random_unimodular(n, rng, num_shears=4, magnitude=8):
    """Product of elementary shears by multiples of 1/4 up to ``magnitude / 4``.

    Every factor has determinant exactly one and dyadic entries, so the
    float product is exact and the ``(n, n)`` result exactly unimodular.
    """
    out = np.eye(n)
    for _ in range(num_shears):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        k = 0
        while k == 0:
            k = int(rng.integers(-magnitude, magnitude + 1))
        out = out @ shear(n, i, j, k / 4)
    return out


def diagonal_unimodular(n, k):
    """The ``(n, n)`` matrix diag(k, ..., k, k**(1-n)); determinant one for any nonzero k."""
    if k == 0:
        raise DomainError("k must be nonzero")
    return np.diag([float(k)] * (n - 1) + [float(k) ** (1 - n)])


# -- planar clipping -------------------------------------------------------
#
# Polygons here are lists of (x, y) float pairs: a walk over a few
# vertices is cheaper in plain floats than in numpy calls.

def _clip_halfplane(v, point, direction, eps):
    """Keep the part of polygon ``v`` left of the ray point + t*direction."""
    if not v:
        return v
    (px, py), (ex, ey) = point, direction
    side = [ex * (y - py) - ey * (x - px) for x, y in v]
    if min(side) >= -eps:
        return v
    if max(side) <= eps:
        return []
    out = []
    for a, b, sa, sb in zip(v, v[1:] + v[:1], side, side[1:] + side[:1]):
        if sa >= -eps:
            out.append(a)
        if (sa > eps and sb < -eps) or (sa < -eps and sb > eps):
            t = sa / (sa - sb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _tidy(v, tol, eps):
    if len(v) < 3:
        return None
    keep = [v[0]]
    for p in v[1:]:
        if max(abs(p[0] - keep[-1][0]), abs(p[1] - keep[-1][1])) > tol:
            keep.append(p)
    if len(keep) > 1 and max(abs(keep[0][0] - keep[-1][0]), abs(keep[0][1] - keep[-1][1])) <= tol:
        keep.pop()
    if len(keep) < 3:
        return None
    # twice the area, fanned from the first vertex as in polygon_area
    (x0, y0), area = keep[0], 0.0
    for (ax, ay), (bx, by) in zip(keep[1:], keep[2:]):
        area += (ax - x0) * (by - y0) - (ay - y0) * (bx - x0)
    return None if abs(0.5 * area) <= eps else keep


def split_polygon(p, q):
    """Split the ccw convex polygon ``p`` by the ccw convex polygon ``q``.

    Returns ``(inside, pieces)``: ``p`` meet ``q``, or None when it is
    negligible under the tolerances of the pair (``_tolerances``), and
    convex pieces whose disjoint union is ``p`` minus ``q``.  One walk
    over the edges of ``q`` (Sutherland-Hodgman): at each edge, the part
    of what is left that lies outside the edge becomes a piece, and the
    rest goes on to the next edge; what stays inside every edge is
    ``inside``.  When ``inside`` is None, ``p`` comes back whole as the
    one piece.  At most two half-plane clips per edge of ``q``.  The walk
    runs in plain floats, an intersection at ``a + t (b - a)``; inputs
    and results are ``(m, 2)`` arrays.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    tol, eps, _ = _tolerances(np.vstack([p, q]))
    rest, pieces = p.tolist(), []
    corners = q.tolist()
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        ex, ey = bx - ax, by - ay
        piece = _tidy(_clip_halfplane(rest, (ax, ay), (-ex, -ey), eps), tol, eps)
        if piece is not None:
            pieces.append(np.array(piece))
        rest = _clip_halfplane(rest, (ax, ay), (ex, ey), eps)
        if not rest:
            break
    inside = _tidy(rest, tol, eps)
    return (None, [p]) if inside is None else (np.array(inside), pieces)
