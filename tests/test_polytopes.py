import math
from fractions import Fraction

import numpy as np
import pytest

from orliczval.errors import DomainError
from orliczval.regions import cube_cover, part_contains, part_weighted_measure
from orliczval.polytopes import (
    PlanarCoefficients,
    Polytope,
    affine_rank,
    cone_hull,
    continuity_constraint_system,
    convex_hull_2d,
    diagonal_unimodular,
    edge_sum,
    intersect_polygons,
    planar_valuation,
    polygon_area,
    polygon_moment,
    polygon_weighted_measure,
    random_unimodular,
    shear,
    spatial_valuation,
    subtract_polygon,
    visible_span,
    visible_vertices,
)


# -- oracles ---------------------------------------------------------------

def _moment_by_boundary(v):
    """Moment via Green's theorem edge integrals, independent of fanning.

    m_x = sum over edges of (by - ay)(ax^2 + ax*bx + bx^2)/6 and
    m_y = -sum of (bx - ax)(ay^2 + ay*by + by^2)/6.
    """
    v = np.asarray(v, float)
    mx = my = 0.0
    for i in range(len(v)):
        ax, ay = v[i]
        bx, by = v[(i + 1) % len(v)]
        mx += (by - ay) * (ax * ax + ax * bx + bx * bx) / 6.0
        my -= (bx - ax) * (ay * ay + ay * by + by * by) / 6.0
    return np.array([mx, my])


def _ray_blocked(v, vertex, samples=4000):
    """True when some point of (0, vertex) strictly enters the polygon."""
    v = np.asarray(v, float)
    for t in np.linspace(1e-4, 1.0 - 1e-4, samples):
        p = t * np.asarray(vertex)
        clear = 1e-9
        inside = True
        for i in range(len(v)):
            a = v[i]
            e = v[(i + 1) % len(v)] - a
            if e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0]) < clear:
                inside = False
                break
        if inside:
            return True
    return False


def _oracle_visible_set(v):
    v = np.asarray(v, float)
    out = set()
    for vert in v:
        if np.max(np.abs(vert)) < 1e-12:
            continue
        if not _ray_blocked(v, vert):
            out.add(tuple(np.round(vert, 12)))
    return out


def _exact_det(mat):
    rows = [[Fraction(x) for x in row] for row in np.asarray(mat).tolist()]
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


def _mc_weighted_measure(v, rng, samples=400_000):
    v = np.asarray(v, float)
    lo, hi = v.min(axis=0), v.max(axis=0)
    pts = lo + (hi - lo) * rng.random((samples, 2))
    inside = np.ones(samples, bool)
    for i in range(len(v)):
        a = v[i]
        e = v[(i + 1) % len(v)] - a
        inside &= e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0]) >= 0.0
    box = float(np.prod(hi - lo))
    return box * float(np.mean(np.where(inside, np.hypot(pts[:, 0], pts[:, 1]), 0.0)))


def _random_polygon(rng, lo, hi, k=7):
    pts = lo + (hi - lo) * rng.random((k, 2))
    return convex_hull_2d(pts)


# -- hulls and canonical form ---------------------------------------------

def test_hull_canonical_and_equality():
    square = [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    p = Polytope(square)
    q = Polytope([square[2], square[0], [1.5, 1.5], square[3], square[1]])
    assert p == q
    assert p.vertices.tolist() == [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    assert polygon_area(p.vertices) == 1.0


def test_hull_degenerate_inputs():
    seg = Polytope([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert seg.rank == 1
    assert seg.vertices.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    pt = Polytope([[0.25, 0.5]])
    assert pt.rank == 0
    assert pt.volume() == 0.0
    assert seg.volume() == 0.0


def test_small_polytopes_keep_their_rank_near_and_far_from_the_origin():
    tet = np.array([[-0.3, -0.2, -0.1], [0.7, -0.1, 0.0], [0.1, 0.8, -0.2], [0.0, 0.1, 0.9]])
    for offset, s in ((0.0, 2.0 ** -40), (0.0, 1e-6), (1e4, 1e-6), (1.0, 1e-9)):
        p = Polytope(offset + s * tet)
        assert p.rank == 3 and len(p.vertices) == 4, (offset, s)
        assert math.isclose(p.volume(), s ** 3 * 0.1615, rel_tol=1e-5), (offset, s)
    # a tilted flat set far out stays rank 2: its roundoff (~1e-12) is not a third axis
    u, v = np.array([1.0, 2.0, 2.0]) / 3.0, np.array([2.0, 1.0, -2.0]) / 3.0
    flat = np.outer(tet[:, 0], u) + np.outer(tet[:, 1], v)
    for s in (1.0, 1e-4, 1e-6):
        assert affine_rank(1e4 + s * flat) == 2, s
    # the planar hull's tolerance follows the points' extent, not unit scale
    p = Polytope(1e4 + 1e-6 * tet * [1.0, 1.0, 0.0])
    assert p.rank == 2 and len(p.vertices) == 3
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for s in (2.0 ** -40, 1e-6, 1e-3, 1.0, 1e3, 1e6):
        p = Polytope(s * tri)
        assert p.rank == 2 and len(p.vertices) == 3, s
        assert math.isclose(p.volume(), 0.5 * s * s, rel_tol=1e-12), s
    # a resolved sliver 1e-9 thick: flat at the same level for rank and hull
    p = Polytope([[0.1, 0.25], [1.9, 0.25 + 1e-9], [1.0, 0.25 - 1e-9]])
    assert p.rank == 2 and len(p.vertices) == 3
    v = [(Fraction(x), Fraction(y)) for x, y in p.vertices.tolist()]
    exact = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])) / 2
    assert math.isclose(p.volume(), float(exact), rel_tol=1e-12)


def test_polygon_area_of_small_polygons_far_from_the_origin():
    # the shoelace sum must not run over absolute coordinates, whose products
    # (~1e8 at offset 1e4) round off more than a 1e-6 triangle's area
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for offset in (0.0, 1.0, -3e2, 1e4, -1e4, 1e5, 1e6, -1e6):
        for s in (1e-6, 1e-3, 1.0):
            p = Polytope(offset + s * tri)
            assert p.rank == 2 and len(p.vertices) == 3, (offset, s)
            v = [(Fraction(x), Fraction(y)) for x, y in p.vertices.tolist()]
            exact = sum(x0 * y1 - x1 * y0
                        for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])) / 2
            assert math.isclose(p.volume(), float(exact), rel_tol=1e-12), (offset, s)


def test_origin_classification():
    assert Polytope([[0, 0], [1, 0], [0, 1]]).origin_class() == "vertex"
    assert Polytope([[-1, 0], [1, 0], [0, 1]]).origin_class() == "boundary"
    assert Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]]).origin_class() == "interior"
    assert Polytope([[1, 1], [2, 1], [1, 2]]).origin_class() == "outside"
    assert Polytope([[-1.0, 0.0], [1.0, 0.0]]).origin_class() == "boundary"
    cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    assert Polytope(cube - 0.5).origin_class() == "interior"
    assert Polytope(cube - [0.5, 0.0, 0.5]).origin_class() == "boundary"
    assert Polytope(cube - [0.5, -1.0, 0.5]).origin_class() == "outside"
    assert Polytope(cube).origin_class() == "vertex"


def test_flat_polytope_membership_in_its_own_flat():
    tri = Polytope([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    assert tri.rank == 2
    assert tri.origin_class() == "boundary"
    # the same triangle tilted out of the coordinate planes and moved away
    q, _ = np.linalg.qr(np.array([[2.0, 1.0, 0.5], [-1.0, 2.0, 1.0], [0.3, -0.4, 2.0]]))
    for rot, shift in ((np.eye(3), np.zeros(3)), (q, np.array([3.0, -2.0, 5.0]))):
        flat = Polytope(tri.vertices @ rot.T + shift)
        centroid = flat.vertices.mean(axis=0)
        normal = rot @ np.array([0.0, 0.0, 1.0])
        pts = np.vstack([flat.vertices, centroid, centroid + 1e-3 * normal,
                         rot @ [0.0, -1.001, 0.0] + shift, rot @ [0.0, -0.999, 0.0] + shift])
        want = [True, True, True, True, False, False, True]
        assert part_contains(flat, pts).tolist() == want
        assert [flat.contains(p) for p in pts] == want
    seg = Polytope([[1.0, 1.0, 1.0], [3.0, 2.0, 1.0]])
    assert [seg.contains(p) for p in ([2.0, 1.5, 1.0], [4.0, 2.5, 1.0], [2.0, 1.5, 1.1])] \
        == [True, False, False]


_DYADIC_ORDERS = (-40, -30, -20, -10, 0, 10, 20, 40)


def _dyadic_cases():
    rng = np.random.default_rng(47)
    polys = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0.3, 0.2], [0.301, 0.2], [0.3, 0.201]])]
    for _ in range(12):
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 9)), 2))
        polys.append(pts * rng.uniform(0.1, 1.0) + rng.uniform(-1.0, 1.0, 2))
    probes = [rng.uniform(-2.0, 2.0, (200, 2)) for _ in polys]
    return polys, probes


def _planar_answers(v):
    p = Polytope(v)
    try:
        chain = visible_vertices(p)
    except DomainError:
        chain = None
    cone = cone_hull(p)
    return p, p.origin_class(), chain, edge_sum(cone), visible_span(cone)


@pytest.mark.parametrize("k", _DYADIC_ORDERS)
def test_geometry_is_invariant_under_dyadic_scaling(k):
    s = 2.0 ** k
    polys, probes = _dyadic_cases()
    for v, pts in zip(polys, probes):
        base, cls, chain, esum, span = _planar_answers(v)
        # the probes, the vertices and the edge midpoints
        pts = np.vstack([pts, base.vertices, 0.5 * (base.vertices + np.roll(base.vertices, 1, 0))])
        scaled, s_cls, s_chain, s_esum, s_span = _planar_answers(s * v)
        assert scaled.rank == base.rank == 2
        assert np.array_equal(scaled.vertices, s * base.vertices)
        assert math.isclose(scaled.volume(), s ** 2 * base.volume(), rel_tol=1e-12)
        assert np.allclose(scaled.moment(), s ** 3 * base.moment(), rtol=1e-12, atol=0.0)
        assert math.isclose(part_weighted_measure(scaled)[0],
                            s ** 3 * part_weighted_measure(base)[0], rel_tol=1e-12)
        assert np.array_equal(part_contains(scaled, s * pts), part_contains(base, pts))
        assert s_cls == cls
        assert (s_chain is None) == (chain is None)
        if chain is not None:
            assert np.array_equal(s_chain, s * chain)
        assert np.array_equal(s_esum, s * esum) and np.array_equal(s_span, s * span)
        if k <= 10:
            want, got = cube_cover(base, 10), cube_cover(scaled, 10 - k)
            assert len(got.parts) == len(want.parts)
            for a, b in zip(got.parts, want.parts):
                assert np.array_equal(a.lo, s * b.lo) and np.array_equal(a.hi, s * b.hi)
    tet = np.array([[-0.3, -0.2, -0.1], [0.7, -0.1, 0.0], [0.1, 0.8, -0.2], [0.0, 0.1, 0.9]])
    rng = np.random.default_rng(53)
    for shift in (np.zeros(3), np.array([0.3, 0.0, 0.0]), np.array([2.0, -1.0, 0.5])):
        base, scaled = Polytope(tet + shift), Polytope(s * (tet + shift))
        assert scaled.rank == base.rank == 3
        assert math.isclose(scaled.volume(), s ** 3 * base.volume(), rel_tol=1e-12)
        assert np.allclose(scaled.moment(), s ** 4 * base.moment(), rtol=1e-12, atol=0.0)
        mu, _ = part_weighted_measure(base, 1e-12)
        s_mu, _ = part_weighted_measure(scaled, 1e-12 * s ** 4)
        assert math.isclose(s_mu, s ** 4 * mu, rel_tol=1e-12)
        pts = np.vstack([rng.uniform(-1.0, 3.0, (200, 3)), base.vertices])
        assert np.array_equal(part_contains(scaled, s * pts), part_contains(base, pts))
        assert scaled.origin_class() == base.origin_class()


def test_json_round_trip():
    p = Polytope([[0, 0], [2, 0], [2, 1], [0, 1]])
    q = Polytope.from_json(p.to_json())
    assert p == q and q.dim == 2


# -- moments ---------------------------------------------------------------

def test_polygon_moment_matches_boundary_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        v = _random_polygon(rng, np.array([-2.0, -1.0]), np.array([1.5, 2.0]))
        if len(v) < 3:
            continue
        got = polygon_moment(v)
        want = _moment_by_boundary(v)
        assert np.allclose(got, want, atol=1e-12)


def test_moment_known_values():
    tri = Polytope([[0, 0], [1, 0], [0, 1]])
    assert np.allclose(tri.moment(), [1.0 / 6.0, 1.0 / 6.0], atol=1e-15)
    cube = Polytope([[x, y, z] for x in (1, 2) for y in (1, 2) for z in (1, 2)])
    assert abs(cube.volume() - 1.0) < 1e-12
    assert np.allclose(cube.moment(), [1.5, 1.5, 1.5], atol=1e-12)
    simplex = Polytope(np.vstack([np.zeros(3), np.eye(3)]))
    assert abs(simplex.volume() - 1.0 / 6.0) < 1e-15
    assert np.allclose(simplex.moment(), np.full(3, 1.0 / 24.0), atol=1e-15)


def test_moment_simple_on_flat_sets():
    flat = Polytope(np.eye(3))
    assert flat.rank == 2
    assert np.all(flat.moment() == 0.0)
    assert flat.volume() == 0.0
    seg = Polytope([[0.0, 0.0], [3.0, 1.0]])
    assert np.all(seg.moment() == 0.0)


def test_moment_equivariance_under_unimodular_maps():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        base = rng.random((n + 3, n)) * 2.0 - 0.5
        p = Polytope(base)
        for _ in range(6):
            theta = random_unimodular(n, rng)
            assert np.allclose(p.transform(theta).moment(), theta @ p.moment(),
                               atol=1e-10)


# -- weighted measure ------------------------------------------------------

def test_weighted_measure_unit_square_closed_form():
    sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
    want = (math.sqrt(2.0) + math.asinh(1.0)) / 3.0
    assert abs(polygon_weighted_measure(sq) - want) < 1e-14


def test_weighted_measure_against_monte_carlo():
    rng = np.random.default_rng(23)
    for _ in range(3):
        v = _random_polygon(rng, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        if len(v) < 3:
            continue
        got = polygon_weighted_measure(v)
        est = _mc_weighted_measure(v, rng)
        assert abs(got - est) < 3e-3


def test_weighted_measure_translation_changes_value():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    far = polygon_weighted_measure(tri + np.array([10.0, 0.0]))
    # area 1/2 times a distance pinched between min and max over the set
    assert 0.5 * 10.0 < far < 0.5 * math.hypot(11.0, 1.0)
    assert abs(far - 5.170748678349717) < 1e-12


# -- visibility ------------------------------------------------------------

def test_visible_chain_of_square_off_origin():
    p = Polytope([[1, 1], [2, 1], [2, 2], [1, 2]])
    chain = visible_vertices(p)
    assert chain.tolist() == [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]


def test_visible_chain_origin_vertex():
    p = Polytope([[0, 0], [1, 0], [0, 1]])
    assert visible_vertices(p).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_visible_chain_tie_rule_on_through_edge():
    p = Polytope([[-0.25, 0.0], [1.0, 0.0], [0.0, 1.0]])
    chain = visible_vertices(p)
    assert sorted(chain.tolist()) == [[-0.25, 0.0], [1.0, 0.0]]


def test_visible_chain_collinear_segment():
    p = Polytope([[1.0, 1.0], [2.0, 2.0]])
    assert visible_vertices(p).tolist() == [[1.0, 1.0]]


def test_visible_rejects_interior_origin():
    box = Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    with pytest.raises(DomainError):
        visible_vertices(box)


def test_visibility_matches_ray_oracle_outside():
    rng = np.random.default_rng(37)
    done = 0
    while done < 25:
        v = _random_polygon(rng, np.array([0.3, -0.6]), np.array([1.6, 0.9]))
        if len(v) < 3 or Polytope(v).origin_class() != "outside":
            continue
        got = {tuple(np.round(p, 12)) for p in visible_vertices(Polytope(v))}
        assert got == _oracle_visible_set(v)
        done += 1


def test_visibility_matches_ray_oracle_origin_vertex():
    rng = np.random.default_rng(41)
    done = 0
    while done < 25:
        pts = rng.random((6, 2))
        pts = pts[pts.sum(axis=1) >= 0.4]
        if len(pts) < 3:
            continue
        v = convex_hull_2d(np.vstack([[0.0, 0.0], pts]))
        p = Polytope(v)
        if p.origin_class() != "vertex" or len(v) < 4:
            continue
        non_origin = [tuple(np.round(q, 12)) for q in v if np.max(np.abs(q)) > 0]
        got = {tuple(np.round(q, 12)) for q in visible_vertices(p)}
        want = _oracle_visible_set(v)
        # both endpoints of the two edges at the origin are trivially seen
        i0 = next(i for i, q in enumerate(v) if np.max(np.abs(q)) == 0.0)
        want.add(tuple(np.round(v[(i0 + 1) % len(v)], 12)))
        want.add(tuple(np.round(v[i0 - 1], 12)))
        assert got == want and got <= set(non_origin)
        done += 1


def test_visible_chain_is_ccw_by_angle():
    rng = np.random.default_rng(43)
    for _ in range(30):
        v = _random_polygon(rng, np.array([0.2, 0.2]), np.array([1.5, 1.5]))
        if len(v) < 3:
            continue
        chain = visible_vertices(Polytope(v))
        ang = np.unwrap(np.arctan2(chain[:, 1], chain[:, 0]))
        assert np.all(np.diff(ang) > 0.0)
        assert ang[-1] - ang[0] < math.pi + 1e-9


# -- edge operators --------------------------------------------------------

def test_edge_sum_branches():
    tri = Polytope([[0, 0], [1, 0], [0, 1]])
    assert edge_sum(tri).tolist() == [1.0, 1.0]
    seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
    assert edge_sum(seg).tolist() == [2.0, 0.0]
    seg2 = Polytope([[-1.0, 0.0], [2.0, 0.0]])
    assert edge_sum(seg2).tolist() == [2.0, 0.0]
    through = Polytope([[-0.25, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert edge_sum(through).tolist() == [0.0, 0.0]
    box = Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert edge_sum(box).tolist() == [0.0, 0.0]
    origin = Polytope([[0.0, 0.0]])
    assert edge_sum(origin).tolist() == [0.0, 0.0]


def test_edge_sum_requires_origin():
    with pytest.raises(DomainError):
        edge_sum(Polytope([[1, 1], [2, 1], [1, 2]]))


def test_visible_span_branches():
    tri = Polytope([[0, 0], [1, 0], [0, 1]])
    assert visible_span(tri).tolist() == [1.0, -1.0]
    through = Polytope([[-0.25, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert visible_span(through).tolist() == [1.25, 0.0]
    seg = Polytope([[-1.0, 0.0], [2.0, 0.0]])
    assert visible_span(seg).tolist() == [0.0, 0.0]
    box = Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert visible_span(box).tolist() == [0.0, 0.0]


def test_edge_operators_on_quarter_scaled_family():
    eps = 0.25
    cone = cone_hull(Polytope([[1.0, 0.0], [0.0, eps]]))
    assert edge_sum(cone).tolist() == [1.0, eps]
    assert visible_span(cone).tolist() == [1.0, -eps]
    other = cone_hull(Polytope([[eps, 0.0], [0.0, 1.0]]))
    assert edge_sum(other).tolist() == [eps, 1.0]
    assert visible_span(other).tolist() == [eps, -1.0]


# -- planar and spatial families ------------------------------------------

def test_planar_valuation_on_degenerating_segment():
    eps = 0.25
    coeffs = PlanarCoefficients(c1=1.0, c1t=2.0, c2=3.0, c2t=5.0, c3=7.0, c3t=11.0)
    q = Polytope([[1.0, 0.0], [0.0, eps]])
    got = planar_valuation(q, coeffs)
    cone_m = np.array([eps / 6.0, eps * eps / 6.0])
    want = (2.0 * cone_m
            + (3.0 + 5.0) * np.array([1.0, eps])
            + (7.0 + 11.0) * np.array([1.0, -eps]))
    assert np.allclose(got, want, atol=1e-15)


def test_planar_valuation_drops_chain_terms_when_chain_is_flat():
    eps = 0.5
    q = Polytope([[eps, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    a = planar_valuation(q, PlanarCoefficients(c1=1.0, c3=2.0))
    b = planar_valuation(q, PlanarCoefficients(c1=1.0, c3=2.0, c2t=9.0, c3t=-4.0))
    assert np.allclose(a, b, atol=1e-15)
    c = planar_valuation(q, PlanarCoefficients(c1=1.0, c3=3.0))
    assert not np.allclose(a, c)


def test_planar_valuation_is_sl2_covariant():
    rng = np.random.default_rng(61)
    coeffs = PlanarCoefficients(c1=0.5, c1t=-1.25, c2=2.0, c2t=0.75, c3=-0.5, c3t=1.5)
    done = 0
    while done < 20:
        v = _random_polygon(rng, np.array([0.2, 0.2]), np.array([1.4, 1.4]))
        if len(v) < 3:
            continue
        q = Polytope(v)
        theta = random_unimodular(2, rng)
        lhs = planar_valuation(q.transform(theta), coeffs)
        rhs = theta @ planar_valuation(q, coeffs)
        assert np.allclose(lhs, rhs, atol=1e-9)
        done += 1


def test_spatial_valuation_simplex():
    simplex = Polytope(np.eye(3))
    got = spatial_valuation(simplex, c1=4.0, c2=24.0)
    assert np.allclose(got, np.ones(3), atol=1e-12)
    with pytest.raises(DomainError):
        spatial_valuation(Polytope([[0, 0], [1, 0], [0, 1]]), 1.0, 1.0)


# -- degeneration constraints ---------------------------------------------

def test_constraint_system_has_full_rank():
    report = continuity_constraint_system()
    assert report["matrix"].shape == (6, 4)
    assert report["rank"] == 4
    assert report["unique_zero_solution"]
    assert report["affine_residual"] == 0.0


def test_constraint_system_contains_the_two_segment_rows():
    rows = continuity_constraint_system()["matrix"].tolist()
    assert [-1.0, 1.0, 1.0, 1.0] in rows
    assert [-1.0, 1.0, -1.0, -1.0] in rows


def test_constraint_equations_are_readable():
    eqs = continuity_constraint_system()["equations"]
    assert len(eqs) == 6
    assert all(e.endswith("]") and "= 0" in e for e in eqs)


# -- unimodular generators -------------------------------------------------

def test_shear_products_are_exactly_unimodular():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for _ in range(10):
            theta = random_unimodular(n, rng)
            assert _exact_det(theta.matrix) == 1
            assert theta.det_exact() == 1
            assert all(step[0] == "shear" for step in theta.trace)


def test_diagonal_unimodular():
    d = diagonal_unimodular(3, 2.0)
    assert _exact_det(d.matrix) == 1
    assert d.matrix.tolist() == [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]]
    approx = diagonal_unimodular(4, 1.0 / 3.0)
    assert abs(np.linalg.det(approx.matrix) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        diagonal_unimodular(3, 0.0)
    with pytest.raises(DomainError):
        shear(3, 1, 1, 0.5)


# -- clipping --------------------------------------------------------------

def test_intersect_and_subtract_squares():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    b = a + np.array([0.5, 0.5])
    inter = intersect_polygons(a, b)
    assert abs(polygon_area(inter) - 0.25) < 1e-12
    pieces = subtract_polygon(a, b)
    assert abs(sum(polygon_area(p) for p in pieces) - 0.75) < 1e-12
    for p in pieces:
        assert polygon_area(p) > 0.0
        overlap = intersect_polygons(p, b)
        assert overlap is None or polygon_area(overlap) < 1e-9


def test_subtract_disjoint_and_containing():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    far = a + np.array([5.0, 0.0])
    assert intersect_polygons(a, far) is None
    assert abs(sum(polygon_area(p) for p in subtract_polygon(a, far)) - 1.0) < 1e-12
    big = np.array([[-1.0, -1.0], [2.0, -1.0], [2.0, 2.0], [-1.0, 2.0]])
    assert subtract_polygon(a, big) == []


def test_clipping_area_identity_random():
    rng = np.random.default_rng(97)
    for _ in range(25):
        a = _random_polygon(rng, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        b = _random_polygon(rng, np.array([-1.2, -0.8]), np.array([0.8, 1.2]))
        if len(a) < 3 or len(b) < 3:
            continue
        inter = intersect_polygons(a, b)
        inter_area = 0.0 if inter is None else polygon_area(inter)
        rest = sum(polygon_area(p) for p in subtract_polygon(a, b))
        assert abs(polygon_area(a) - inter_area - rest) < 1e-9
