"""The |x|-weighted measure of boxes, polytopes and balls by Euler's boundary reduction.

``div(|x| x) = (n+1) |x|``, so for a bounded convex set ``K`` in R^n

    integral_K |x| dx = 1/(n+1) * integral_dK |y| (y . nu) dsigma(y)

(Lasserre, *Integration on a convex polytope*, Proc. AMS 126, 1998;
Chin, Lasserre & Sukumar, Comput. Mech. 56, 2015).  On a polytope's
facet ``F``, ``y . nu = h_F`` is the signed distance from the origin to
its hyperplane, and ``|y|^2 = h_F^2 + |y - p_F|^2`` with ``p_F`` the foot
of the origin, so ``|y|`` comes nearest to a singularity at the facet's
point ``c_F`` nearest ``p_F``.  Each facet is cut into cones with apex
``c_F`` over pieces of its boundary, every piece starting at its point
nearest the origin, and each cone is integrated in collapsed (Duffy)
coordinates

    y = c + t * (w_0 + sum_i u_i w_i),   dsigma = J * t^(n-2) dt du,

with ``w_0 = g - c`` from the apex to the piece's near corner ``g`` and
``w_i`` the piece's edges (Duffy, SIAM J. Numer. Anal. 19, 1982).  On a
ball's sphere the reduction leaves one integral over the polar angle
(``ball_weighted_measure``).

One driver integrates every cone and ball over [0, 1]^d: two-order tensor
Gauss-Legendre rules on a mesh graded towards 0 down to the relative
distance of the nearest singularity.  The higher order is the value, and
the difference plus ``32 eps * sum |cell|`` is the error bound; cells
over their share of the tolerance, in proportion to their magnitude, are
bisected until the bound meets it.  A stack of boxes is one call.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import AccuracyError, DomainError
from .polytopes import rectangle_weighted_measures


def _gauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# The difference of the two orders bounds the error of the lower one, which
# is far above that of the higher one wherever the rules converge.
_RULES = (_gauss(8), _gauss(12))
_NODES = np.concatenate([x for x, _ in _RULES])
_WEIGHTS = np.zeros((len(_NODES), 2))
_WEIGHTS[:8, 0], _WEIGHTS[8:, 1] = _RULES[0][1], _RULES[1][1]
_ROUNDOFF = 32.0 * np.finfo(float).eps
_MAX_LEVELS = 60         # geometric grading levels per parameter axis
_MAX_ROUNDS = 24         # bisection rounds before giving up
_MAX_CELLS = 40000       # live cells before giving up
_CHUNK_POINTS = 1 << 17  # quadrature points evaluated per numpy batch


def unit_ball_volume(n):
    """Volume of the n-dimensional unit ball by the two-step recurrence."""
    if n < 1 or n != int(n):
        raise DomainError("dimension must be a positive integer")
    vols = {1: 2.0, 2: math.pi}
    for k in range(3, int(n) + 1):
        vols[k] = 2.0 * math.pi * vols[k - 2] / k
    return vols[int(n)]


# -- cones of a box --------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _box_template(n):
    """Every (facet, sub-box corner, far face) combination of an n-box.

    Facet ``j`` on side ``side`` (1 for ``hi``) is cut at the apex into
    sub-boxes whose far corner takes ``hi`` on the axes where ``corner``
    is 1; the cone over the far face across axis ``k`` has the parameter
    axes ``[k, the other facet axes]``.
    """
    rows = []
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for side in (1, 0):
            for sides in itertools.product((0, 1), repeat=n - 1):
                corner = [0] * n
                for i, s in zip(others, sides):
                    corner[i] = s
                for k in others:
                    rows.append((j, side, corner, [k] + [i for i in others if i != k]))
    arrays = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows], bool),
              np.array([r[2] for r in rows], bool), np.array([r[3] for r in rows]))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def box_weighted_measure(lo, hi, abs_tol):
    """Integral of |x| over the boxes ``[lo[k], hi[k]]`` of ``(m, n)`` stacks.

    An ``(n,)`` pair is one box; 2D boxes take the closed form (bound 0).
    Above, each facet, an (n-1)-box, is cut at its point nearest the
    origin into sub-boxes, and each sub-box into pyramids over the faces
    not touching that point; the cones of all boxes share one
    ``_integrate_cones`` call.  Returns ``(value, error_bound)``.
    """
    lo = np.atleast_2d(np.asarray(lo, float))
    hi = np.atleast_2d(np.asarray(hi, float))
    m, n = lo.shape
    if n == 2:
        return float(rectangle_weighted_measures(lo, hi).sum()), 0.0
    facet, side, corner, axes = _box_template(n)
    rows = np.arange(len(facet))
    h = np.where(side, hi[:, facet], -lo[:, facet])
    apex = np.repeat(np.clip(0.0, lo, hi)[:, None, :], len(facet), axis=1)
    apex[:, rows, facet] = np.where(side, hi[:, facet], lo[:, facet])
    steps = np.where(corner, hi[:, None, :], lo[:, None, :]) - apex
    steps[:, rows, facet] = 1.0    # so the product runs over the facet's axes
    weight = h * np.abs(np.prod(steps, axis=2)) / (n + 1)
    basis = np.zeros((m, len(facet), n - 1, n))
    basis[:, rows[:, None], np.arange(n - 1), axes] = steps[:, rows[:, None], axes]
    live = weight != 0.0
    return _integrate_cones(apex[live], basis[live], weight[live], abs_tol)


# -- cones of a triangulated 3D hull ---------------------------------------

def _nearest_on_edges(tri, p):
    # the point of each edge tri[k, e] -> tri[k, e + 1] nearest p[k]
    seg = np.roll(tri, -1, axis=1) - tri
    tau = np.einsum("kej,kej->ke", p[:, None, :] - tri, seg)
    tau = np.clip(tau / np.maximum(np.einsum("kej,kej->ke", seg, seg), 1e-300), 0.0, 1.0)
    return tri + tau[..., None] * seg


def _nearest_in_triangles(tri, p):
    # the point of each triangle tri[k] nearest p[k], which lies in its plane
    a = tri[:, 0]
    v0, v1, v2 = tri[:, 1] - a, tri[:, 2] - a, p - a
    d00 = np.einsum("ij,ij->i", v0, v0)
    d01 = np.einsum("ij,ij->i", v0, v1)
    d11 = np.einsum("ij,ij->i", v1, v1)
    d20 = np.einsum("ij,ij->i", v2, v0)
    d21 = np.einsum("ij,ij->i", v2, v1)
    den = d00 * d11 - d01 * d01
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (d11 * d20 - d01 * d21) / den
        t = (d00 * d21 - d01 * d20) / den
    inside = (den > 0.0) & (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    cand = _nearest_on_edges(tri, p)
    dist = np.einsum("kej,kej->ke", cand - p[:, None, :], cand - p[:, None, :])
    on_edge = cand[np.arange(len(p)), np.argmin(dist, axis=1)]
    return np.where(inside[:, None], a + s[:, None] * v0 + t[:, None] * v1, on_edge)


def hull_weighted_measure(points, simplices, equations, abs_tol):
    """Integral of |x| over a full-rank 3D hull given by its qhull facets.

    ``simplices`` are triangles of ``points`` and ``equations`` their
    outward unit normals ``a`` and offsets ``d`` (``a.x + d <= 0``
    inside), as ``scipy.spatial.ConvexHull`` returns them.  Each
    triangle's edges are split at their points nearest the origin.
    Returns ``(value, error_bound)``.
    """
    tri = np.asarray(points, float)[np.asarray(simplices)]
    eq = np.asarray(equations, float)
    keep = eq[:, 3] != 0.0
    tri, eq, h = tri[keep], eq[keep], -eq[keep, 3]
    apex = _nearest_in_triangles(tri, h[:, None] * eq[:, :3])[:, None, None, :]
    near = _nearest_on_edges(tri, np.zeros((len(tri), 3)))[:, :, None, :]
    ends = np.stack([tri, np.roll(tri, -1, axis=1)], axis=2)      # (T, edge, end, 3)
    w0 = np.broadcast_to(near - apex, ends.shape)
    basis = np.stack([w0, ends - near], axis=3).reshape(-1, 2, 3)
    weight = (np.repeat(h, 6) / 4.0) * np.linalg.norm(
        np.cross(basis[:, 0], basis[:, 1]), axis=-1)
    apex = np.broadcast_to(apex, ends.shape).reshape(-1, 3)
    live = weight != 0.0
    return _integrate_cones(apex[live], basis[live], weight[live], abs_tol)


# -- the sphere bounding a ball --------------------------------------------

def ball_weighted_measure(n, radius, offset, abs_tol):
    """Integral of |x| over the ball of radius ``r`` centred at distance ``c > 0``.

    At the angle ``phi`` from the sphere's point nearest the origin,
    ``y . nu = r - c cos(phi)`` and ``|y| = rho = sqrt((c - r)^2 + 4 c r
    sin^2(phi / 2))``.  As ``rho - c = r (r - 2c cos(phi)) / (rho + c)``,
    ``rho (y . nu)`` is ``r`` times the positive integrand below plus
    ``-c^2 cos(phi)``, which integrates to 0 against ``sin^(n-2)``:

        mu = r^n (n-1) omega_(n-1) / (n+1) * integral_0^pi
             [rho - c cos(phi) (r - 2c cos(phi)) / (rho + c)] sin^(n-2) dphi.

    The mesh is graded towards ``phi = 0`` by the distance ``|c - r| /
    sqrt(c r)`` of the branch points.  Returns ``(value, error_bound)``.
    """
    r, c = float(radius), abs(float(offset))
    weight = r ** n * (n - 1) * unit_ball_volume(n - 1) / (n + 1) * math.pi
    if weight == 0.0:
        return 0.0, 0.0

    def values(idx, lo, wid):
        # both orders in one pass: the nodes side by side, a weight column each
        phi = math.pi * (lo + wid * _NODES)
        cos = np.cos(phi)
        rho = np.sqrt((c - r) ** 2 + 4.0 * c * r * np.sin(0.5 * phi) ** 2)
        f = (rho - c * cos * (r - 2.0 * c * cos) / (rho + c)) * np.sin(phi) ** (n - 2)
        return (f @ _WEIGHTS).T * (weight * wid[:, 0])

    gap = abs(c - r) / (math.pi * math.sqrt(c) * math.sqrt(r))
    return _integrate(values, np.array([[gap]]), np.array([weight * (3.0 * c + 2.0 * r)]),
                      abs_tol)


# -- graded tensor Gauss on [0, 1]^d ---------------------------------------

def _cell_values(cones, idx, lo, wid):
    """Both Gauss orders on every cell, as an array of shape (2, cells).

    With ``v = (1, u)`` and ``W = [w_0, w_1, ...]``, ``|y|^2 = |c|^2 +
    2t (c.W) v + t^2 v'(W'W) v``, so only the per-cone scalars ``|c|^2``,
    ``c.W`` and the Gram matrix ``W'W`` are needed.  Both ``c.W v`` and
    ``v'(W'W) v`` are nonnegative, since ``c`` is the cone's point
    nearest the origin.
    """
    r2, alpha, gram, weight, n = cones
    d = alpha.shape[1]
    out = np.empty((2, len(idx)))
    step = max(1, _CHUNK_POINTS // len(_RULES[1][0]) ** d)
    for s in range(0, len(idx), step):
        cut = slice(s, s + step)
        k = idx[cut]
        m = len(k)
        ones = [m] + [1] * d
        r2k = r2[k].reshape(ones)
        al = alpha[k].reshape([m, d] + [1] * d)
        gr = gram[k].reshape([m, d, d] + [1] * d)
        scale = weight[k] * np.prod(wid[cut], axis=1)
        for r, (x, w) in enumerate(_RULES):
            par = lo[cut, :, None] + wid[cut, :, None] * x          # (m, d, N)
            u = []
            for i in range(1, d):
                shape = list(ones)
                shape[1 + i] = len(x)
                u.append(par[:, i].reshape(shape))
            lin = al[:, 0]
            quad = gr[:, 0, 0]
            for i in range(1, d):
                lin = lin + al[:, i] * u[i - 1]
                quad = quad + u[i - 1] * (2.0 * gr[:, 0, i] + gr[:, i, i] * u[i - 1])
                for j in range(i + 1, d):
                    quad = quad + 2.0 * gr[:, i, j] * u[i - 1] * u[j - 1]
            t = par[:, 0].reshape([m, len(x)] + [1] * (d - 1))
            f = np.sqrt(r2k + t * (2.0 * np.maximum(lin, 0.0) + t * np.maximum(quad, 0.0)))
            for _ in range(d - 1):
                f = f @ w
            out[r, cut] = scale * ((f * par[:, 0] ** (n - 2)) @ w)
    return out


def _integrate_cones(apex, basis, weight, abs_tol):
    """Sum over cones of ``weight * integral_[0,1]^d t^(n-2) |y(t, u)|``.

    ``y = apex + t * (basis[0] + sum_i u_i basis[i])``; ``weight`` holds
    ``h_F / (n+1)`` times the cone's Jacobian.  The mesh grades axis
    ``t`` by the apex's distance from the origin and axis ``u_i`` by the
    near corner's.
    """
    if len(weight) == 0:
        return 0.0, 0.0
    d = basis.shape[1]
    length = np.sqrt(np.einsum("min,min->mi", basis, basis))
    size = np.sum(length, axis=1)
    r_apex = np.sqrt(np.einsum("mn,mn->m", apex, apex))
    near = apex + basis[:, 0]
    rho = np.column_stack([r_apex / size]
                          + [np.sqrt(np.einsum("mn,mn->m", near, near)) / length[:, i]
                             for i in range(1, d)])
    cones = (np.einsum("mn,mn->m", apex, apex), np.einsum("mn,min->mi", apex, basis),
             np.einsum("min,mjn->mij", basis, basis), weight, apex.shape[1])
    return _integrate(functools.partial(_cell_values, cones), rho,
                      np.abs(weight) * (r_apex + size), abs_tol)


def _integrate(values, rho, mag, abs_tol):
    """Sum of integrals over [0, 1]^d by two-order Gauss on graded cells.

    ``rho[m, i]`` is the relative distance from 0 of integrand ``m``'s
    nearest singularity along axis ``i``, and ``mag[m]`` bounds its
    integral.  Such an axis starts with ``k`` levels, cut at ``2^-k, ...,
    1/2``, with ``2^-k <= 2 rho``, so the innermost cell lies at least
    half its width from the singularity and every other cell at least
    its width.  ``values(idx, lo, wid)`` returns both orders on the cells
    with integrand ``idx``, lower corner ``lo`` and width ``wid`` as an
    array of shape (2, cells).  Cells are bisected until the bound meets
    ``abs_tol``, which must be positive.  Returns ``(value, error_bound)``.
    """
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be a positive number, got {abs_tol!r}")
    d = rho.shape[1]
    # grading stops where a whole cell is far under the tolerance
    deep = np.minimum(_MAX_LEVELS, np.ceil(np.log2(np.maximum(mag / (1e-3 * abs_tol), 1.0))))
    cap = np.column_stack([np.ceil(deep / d)] + [deep] * (d - 1))
    levels = np.clip(np.ceil(-np.log2(np.maximum(2.0 * rho, 1e-300))), 0.0, cap).astype(np.intp)
    # cell c of an integrand is its mixed-radix number over the axes' piece counts
    count = levels + 1
    stride = np.cumprod(count[:, ::-1], axis=1)[:, ::-1]
    cells = stride[:, 0]
    stride = np.column_stack([stride[:, 1:], np.ones(len(count), np.intp)])
    idx = np.repeat(np.arange(len(mag)), cells)
    c = np.arange(len(idx)) - np.repeat(np.cumsum(cells) - cells, cells)
    pos = (c[:, None] // stride[idx]) % count[idx]
    top = 2.0 ** (pos - levels[idx])             # upper end 2^-(k - pos)
    lo = np.where(pos == 0, 0.0, 0.5 * top)
    wid = top - lo
    value, err, absum = 0.0, 0.0, 0.0
    share = None
    for _ in range(_MAX_ROUNDS):
        coarse, fine = values(idx, lo, wid)
        diff = np.abs(fine - coarse)
        if share is None:
            total = float(np.sum(np.abs(fine)))
            bound = float(np.sum(diff)) + _ROUNDOFF * total
            if bound <= abs_tol:
                return float(np.sum(fine)), bound
            budget = abs_tol - _ROUNDOFF * total
            if budget <= 0.0:
                break
            # each cell may use the budget in proportion to its magnitude
            share = budget / total
        ok = diff <= share * np.abs(fine)
        value += float(np.sum(fine[ok]))
        err += float(np.sum(diff[ok]))
        absum += float(np.sum(np.abs(fine[ok])))
        if np.all(ok):
            bound = err + _ROUNDOFF * absum
            if bound <= abs_tol:
                return value, bound
            break
        idx, lo, wid = idx[~ok], lo[~ok], wid[~ok]
        if len(idx) << d > _MAX_CELLS:
            break
        # bisect every failing cell along each parameter axis
        half = 0.5 * wid
        kids = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        lo = (lo[:, None, :] + kids[None] * half[:, None, :]).reshape(-1, d)
        wid = np.repeat(half, len(kids), axis=0)
        idx = np.repeat(idx, len(kids))
    raise AccuracyError(
        f"boundary reduction cannot reach abs_tol={abs_tol!r}: the Gauss-order "
        f"differences and the roundoff term stay above it")
