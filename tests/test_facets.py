"""Euler's facet reduction for the |x|-weighted measure of boxes and polytopes.

The reference below shares no code with ``orliczval.facets``: it
integrates ``|x|`` over the box itself, in closed form along the first
axis and by tensor Gauss-Legendre over the other axes, on cells refined
geometrically towards the corner where the closed form's ``r^2 log r``
singularity sits.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import ConvexHull

from orliczval.errors import AccuracyError, CapabilityError
from orliczval.facets import box_weighted_measure, hull_weighted_measure
from orliczval.polytopes import Polytope, polygon_weighted_measure
from orliczval.regions import AxisBox, Region, part_weighted_measure, weighted_measure


# -- independent reference -------------------------------------------------

def _line_integral(a, b, r2):
    # closed form of int_a^b sqrt(x^2 + r2) dx, vectorised over r2 > 0
    def g(x):
        return 0.5 * (x * np.sqrt(x * x + r2) + r2 * np.arcsinh(x / np.sqrt(r2)))

    return g(b) - g(a)


def _reference_box_mu(lo, hi, levels=24, q=12):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    m = len(lo) - 1
    x, w = np.polynomial.legendre.leggauss(q)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    nodes = np.stack(np.meshgrid(*[x] * m, indexing="ij"), -1).reshape(-1, m)
    wts = np.prod(np.stack(np.meshgrid(*[w] * m, indexing="ij"), -1).reshape(-1, m), axis=1)
    # L-shaped layers of the unit cube shrinking towards its corner 0
    layers = [(np.zeros(m), 2.0 ** -levels)]
    for level in range(levels):
        h = 2.0 ** -(level + 1)
        layers += [(np.array(up) * h, h)
                   for up in itertools.product((0.0, 1.0), repeat=m) if any(up)]
    total = 0.0
    # split the other axes at 0, so each piece has the singular point r = 0
    # at most at its corner nearest 0, then into near-cubes; the cube at that
    # corner gets the layers, the others a plain tensor rule
    pieces = []
    for a, b in zip(lo[1:], hi[1:]):
        if a < 0.0 < b:
            pieces.append([(0.0, a), (0.0, b)])
        else:
            pieces.append([(a, b) if abs(a) <= abs(b) else (b, a)])
    for sub in itertools.product(*pieces):
        near = np.array([p[0] for p in sub])
        span = np.array([p[1] for p in sub]) - near
        # a piece thinner than 1/cap of the longest one weighs too little to
        # need cubes of its own width
        side = max(np.min(np.abs(span)), np.max(np.abs(span)) / (64 if m == 2 else 12))
        count = np.ceil(np.abs(span) / side).astype(int)
        cells = []
        for index in itertools.product(*[range(c) for c in count]):
            cube = span / count
            if any(index):
                cells.append((np.array(index) * cube, cube))
            else:
                cells += [(o * cube, h * cube) for o, h in layers]
        assert len(cells) * len(wts) <= 4_000_000, "reference grid too large"
        start = np.array([c[0] for c in cells])
        width = np.array([c[1] for c in cells])
        pts = near + start[:, None, :] + width[:, None, :] * nodes[None]
        r2 = np.sum(pts * pts, axis=-1)
        sw = np.abs(np.prod(width, axis=1))[:, None] * wts[None]
        total += float(np.sum(_line_integral(lo[0], hi[0], r2) * sw))
    return total


def test_reference_matches_closed_forms_and_quadpack():
    # n = 2: the exact polygon formula
    for lo, hi in (([-0.3, -0.2], [0.5, 0.4]), ([0.0, 0.0], [1.0, 1.0]),
                   ([0.1, -0.5], [0.7, 0.6])):
        corners = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        exact = polygon_weighted_measure(corners)
        assert math.isclose(_reference_box_mu(lo, hi, q=16), exact, rel_tol=1e-14)
    # n = 3: QUADPACK over the two axes the reference grades
    lo, hi = [-0.3, -0.4, 0.0], [0.4, 0.3, 0.5]

    def inner(z, y):
        return float(_line_integral(lo[0], hi[0], np.array(y * y + z * z)))

    total = sum(integrate.dblquad(inner, y0, y1, 0.0, 0.5, epsabs=1e-15, epsrel=1e-13)[0]
                for y0, y1 in ((-0.4, 0.0), (0.0, 0.3)))
    assert math.isclose(_reference_box_mu(lo, hi), total, rel_tol=1e-13)


# -- boxes -----------------------------------------------------------------

def _origin_cases(n, rng):
    """Boxes with the origin inside, on a face, on an edge, at a corner,
    just outside (1e-9 off a face) and far away."""
    def box(lo, width):
        lo = np.asarray(lo, float)
        return lo, lo + width

    def centred(*fixed):
        lo = -rng.uniform(0.1, 0.25, n)
        for axis, value in fixed:
            lo[axis] = value
        return lo

    # the offsets sit on the axes the reference grades, not on its first axis
    w = rng.uniform(0.3, 0.8, n)
    inside = box(centred(), w)
    face = box(centred((n - 1, 0.0)), w)
    edge = box(centred((1, 0.0), (2, 0.0)), w)
    corner = box(np.zeros(n), w)
    outside = box(centred((n - 1, 1e-9)), w)
    far = box(centred((0, -3.0)), w)
    return {"inside": inside, "face": face, "edge": edge, "corner": corner,
            "just_outside": outside, "far": far}


@pytest.mark.parametrize("n", [3, 4])
def test_box_matches_independent_reference(n):
    rng = np.random.default_rng(100 + n)
    for name, (lo, hi) in _origin_cases(n, rng).items():
        ref = _reference_box_mu(lo, hi)
        value, bound = part_weighted_measure(AxisBox(lo, hi), abs_tol=1e-12)
        assert bound <= 1e-12, name
        assert math.isclose(value, ref, rel_tol=1e-12), (name, value, ref)


@pytest.mark.parametrize("abs_tol", [1e-6, 1e-9, 1e-12])
def test_bound_never_exceeds_tolerance(abs_tol):
    rng = np.random.default_rng(7)
    for n in (3, 4):
        for name, (lo, hi) in _origin_cases(n, rng).items():
            value, bound = box_weighted_measure(lo, hi, abs_tol)
            assert 0.0 <= bound <= abs_tol, (n, name)
            assert abs(value - _reference_box_mu(lo, hi)) <= abs_tol + 1e-14 * value
    for k in range(5):
        pts = rng.uniform(-1.0, 1.0, (8, 3)) + rng.uniform(-1.0, 1.0, 3) * k / 2.0
        hull = ConvexHull(pts)
        _, bound = hull_weighted_measure(hull.points, hull.simplices, hull.equations, abs_tol)
        assert 0.0 <= bound <= abs_tol


def test_bisection_meets_a_tolerance_the_first_mesh_misses():
    # on this thin slab the a-priori mesh alone misses 1e-15; bisection meets it
    lo, hi = [-0.5, -0.5, 0.01], [0.5, 0.5, 0.02]
    value, bound = box_weighted_measure(lo, hi, 1e-15)
    assert bound <= 1e-15
    assert math.isclose(value, _reference_box_mu(lo, hi), rel_tol=1e-13)


def test_unreachable_tolerance_raises():
    # roundoff alone on a box this large exceeds an absolute 1e-9
    with pytest.raises(AccuracyError):
        part_weighted_measure(AxisBox([1e5] * 3, [2e5] * 3), abs_tol=1e-9)


_TETRAHEDRA = [
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[-0.3, -0.2, -0.1], [0.7, -0.1, 0.0], [0.1, 0.8, -0.2], [0.0, 0.1, 0.9]],
    [[0.5, 0.2, 0.1], [1.5, 0.3, 0.4], [0.8, 1.1, 0.2], [0.9, 0.5, 1.3]],
]


def _hull_mu(points, abs_tol):
    hull = ConvexHull(np.asarray(points, float))
    return hull_weighted_measure(hull.points, hull.simplices, hull.equations, abs_tol)


@pytest.mark.parametrize("k", [-40, -20, -7, 0, 7, 20, 40])
def test_homogeneity_over_eighty_binary_orders(k):
    s = 2.0 ** k
    rng = np.random.default_rng(5)
    for n in (3, 4):
        for lo, hi in _origin_cases(n, rng).values():
            base, _ = box_weighted_measure(lo, hi, 1e-12)
            scaled, bound = box_weighted_measure(s * lo, s * hi, 1e-12 * s ** (n + 1))
            assert bound <= 1e-12 * s ** (n + 1)
            assert math.isclose(scaled, s ** (n + 1) * base, rel_tol=1e-12)
    for tet in _TETRAHEDRA:
        base, _ = _hull_mu(tet, 1e-12)
        poly = Polytope(s * np.asarray(tet))
        assert poly.rank == 3 and len(poly.vertices) == 4
        scaled, _ = part_weighted_measure(poly, 1e-12 * s ** 4)
        assert math.isclose(scaled, s ** 4 * base, rel_tol=1e-12)


def test_additive_over_a_box_cut_in_two():
    for lo, hi in (([-0.3, -0.4, -0.2], [0.4, 0.3, 0.5]),
                   ([0.0, -0.4, -0.2], [0.5, 0.3, 0.5]),
                   ([-2.0, 0.1, 0.2], [-1.0, 0.6, 0.9])):
        whole, _ = box_weighted_measure(lo, hi, 1e-13)
        for axis in range(3):
            # through the middle and, where the box straddles it, through 0
            cuts = {0.5 * (lo[axis] + hi[axis])}
            if lo[axis] < 0.0 < hi[axis]:
                cuts.add(0.0)
            for cut in cuts:
                left_hi, right_lo = list(hi), list(lo)
                left_hi[axis] = right_lo[axis] = cut
                a, _ = box_weighted_measure(lo, left_hi, 1e-13)
                b, _ = box_weighted_measure(right_lo, hi, 1e-13)
                assert math.isclose(a + b, whole, rel_tol=1e-12)


def _kuhn_tetrahedra(lo, hi):
    # the six simplices x_p0 >= x_p1 >= x_p2 of the unit cube, mapped to the box
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    out = []
    for perm in itertools.permutations(range(3)):
        v = np.zeros(3)
        verts = [v.copy()]
        for axis in perm:
            v[axis] = 1.0
            verts.append(v.copy())
        out.append(lo + np.array(verts) * (hi - lo))
    return out


def test_additive_over_a_cube_cut_into_tetrahedra():
    for lo, hi in (([-0.4, -0.3, -0.5], [0.6, 0.7, 0.5]),
                   ([0.0, -0.5, -0.5], [1.0, 0.5, 0.5]),
                   ([0.2, 0.3, -1.4], [1.2, 1.3, -0.4])):
        box, _ = box_weighted_measure(lo, hi, 1e-13)
        parts = [part_weighted_measure(Polytope(t), 1e-13) for t in _kuhn_tetrahedra(lo, hi)]
        assert all(b <= 1e-13 for _, b in parts)
        assert math.isclose(sum(v for v, _ in parts), box, rel_tol=1e-12)


# -- polytopes through the region layer ------------------------------------

def test_polytope_cube_matches_axis_box():
    for lo, hi in (([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]), ([-0.5, -0.2, 0.0], [0.5, 0.3, 0.4])):
        cube = Polytope([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
                         for z in (lo[2], hi[2])])
        got = weighted_measure(Region([cube]), abs_tol=1e-12)
        want = weighted_measure(Region([AxisBox(lo, hi)]), abs_tol=1e-12)
        assert got.error_bound <= 1e-12
        assert math.isclose(got.value, want.value, rel_tol=1e-12)


def test_lower_rank_polytopes_have_zero_measure():
    flat = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert part_weighted_measure(flat) == (0.0, 0.0)
    segment = Polytope([[0, 0, 0, 1], [1, 2, 3, 4]])
    assert part_weighted_measure(segment) == (0.0, 0.0)


def test_four_dimensional_polytope_names_monte_carlo():
    simplex = Polytope(np.vstack([np.zeros(4), np.eye(4)]))
    with pytest.raises(CapabilityError) as info:
        part_weighted_measure(simplex)
    assert "estimate_weighted_measure" in str(info.value)
