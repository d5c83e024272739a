import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special
from scipy.spatial import ConvexHull

from orliczval.errors import AccuracyError, CapabilityError, DisjointnessError, DomainError
from orliczval.facets import box_weighted_measure
from orliczval.functions import SimpleFunction
from orliczval.norms import indicator_norm, luxemburg_norm, orlicz_norm
from orliczval.polytopes import Polytope, polygon_weighted_measure
from orliczval.valuations import PolynomialComposer, psi
from orliczval.young import PowerYoung
from orliczval.regions import (
    Annulus,
    AxisBox,
    OriginBall,
    Region,
    ShiftedBall,
    cube_cover,
    estimate_symmetric_difference,
    estimate_weighted_measure,
    lebesgue,
    moment,
    part_bounding_box,
    part_contains,
    part_from_json,
    part_lebesgue,
    part_moment,
    part_weighted_measure,
    symmetric_difference,
    unit_ball_volume,
    weighted_measure,
)


# -- oracles ---------------------------------------------------------------

def _ball_volume_gamma(n):
    return math.pi ** (n / 2.0) / special.gamma(n / 2.0 + 1.0)


def _radial_mu_quad(n, inner, outer):
    # surface area of the s-sphere is n*omega_n*s^(n-1); weight |x| = s
    w = unit_ball_volume(n)
    val, _ = integrate.quad(lambda s: n * w * s ** n, inner, outer)
    return val


def _mc_region_mu(region, rng, samples=300_000):
    lo, hi = region.bounding_box()
    pts = lo + (hi - lo) * rng.random((samples, region.dim))
    w = np.where(region.contains(pts), np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    vol = float(np.prod(hi - lo))
    est = vol * float(np.mean(w))
    err = vol * float(np.std(w)) / math.sqrt(samples)
    return est, err


# -- volumes and measures --------------------------------------------------

def test_unit_ball_volume_recurrence_matches_gamma():
    for n in range(1, 9):
        assert abs(unit_ball_volume(n) - _ball_volume_gamma(n)) < 1e-12
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == 4.0 * math.pi / 3.0


def test_lebesgue_closed_forms():
    assert abs(lebesgue(Region([OriginBall(2, 1.0)])) - math.pi) < 1e-15
    tri = Region([Polytope([[0, 0], [1, 0], [0, 1]])])
    assert abs(lebesgue(tri) - 0.5) < 1e-15
    ann = Region([Annulus(2, 1.0, 2.0)])
    assert abs(lebesgue(ann) - 3.0 * math.pi) < 1e-12
    box = Region([AxisBox([0, 0, 0], [2, 1, 0.5])])
    assert abs(lebesgue(box) - 1.0) < 1e-15


def test_weighted_measure_radial_closed_forms():
    disk = Region([OriginBall(2, 1.0)])
    got = weighted_measure(disk)
    assert abs(got.value - 2.0 * math.pi / 3.0) < 1e-14
    assert got.error_bound == 0.0
    assert abs(got.value - _radial_mu_quad(2, 0.0, 1.0)) < 1e-10
    ball3 = Region([OriginBall(3, 1.0)])
    assert abs(weighted_measure(ball3).value - math.pi) < 1e-14
    for n, r, big in ((2, 1.0, 2.5), (3, 0.5, 1.25), (4, 1.5, 2.0)):
        ann = Region([Annulus(n, r, big)])
        assert abs(weighted_measure(ann).value - _radial_mu_quad(n, r, big)) < 1e-9
    assert weighted_measure(Region([OriginBall(2, 0.0)])).value == 0.0


def test_weighted_measure_scaling_law():
    base = weighted_measure(Region([OriginBall(3, 1.0)])).value
    for r in (0.5, 2.0, 3.0):
        scaled = weighted_measure(Region([OriginBall(3, r)])).value
        assert abs(scaled - r ** 4 * base) < 1e-10 * max(1.0, scaled)


def test_weighted_measure_box_2d_exact():
    sq = Region([AxisBox([0, 0], [1, 1])])
    want = (math.sqrt(2.0) + math.asinh(1.0)) / 3.0
    got = weighted_measure(sq)
    assert abs(got.value - want) < 1e-14
    assert got.error_bound == 0.0


def test_weighted_measure_box_3d_quadrature():
    box = AxisBox([1, 1, 1], [2, 2, 2])
    val, bound = part_weighted_measure(box, abs_tol=1e-9)
    rng = np.random.default_rng(3)
    est, err = _mc_region_mu(Region([box]), rng)
    assert bound <= 1e-9
    assert abs(val - est) < 4.0 * err
    lam = 1.0
    assert math.sqrt(3.0) * lam < val < 2.0 * math.sqrt(3.0) * lam


def test_weighted_measure_shifted_ball_against_monte_carlo():
    rng = np.random.default_rng(9)
    cases = [(2, 0.5, 2.0), (3, 0.5, 2.0), (2, 1.0, 0.3), (4, 0.75, 1.5)]
    for n, r, c in cases:
        ball = ShiftedBall(n, r, c)
        val, bound = part_weighted_measure(ball, abs_tol=1e-8)
        est, err = _mc_region_mu(Region([ball]), rng)
        assert abs(val - est) < 4.0 * err + 1e-6
        lam = unit_ball_volume(n) * r ** n
        if c > r:
            assert (c - r) * lam < val < (c + r) * lam


def test_weighted_measure_shifted_ball_centered_reduces_to_ball():
    val, bound = part_weighted_measure(ShiftedBall(3, 1.0, 0.0))
    assert val == math.pi and bound == 0.0


# -- moments ---------------------------------------------------------------

def test_moment_closed_forms():
    assert np.all(moment(Region([OriginBall(3, 2.0)])) == 0.0)
    assert np.all(moment(Region([Annulus(2, 1.0, 4.0)])) == 0.0)
    box = Region([AxisBox([0, 0], [1, 1])])
    assert np.allclose(moment(box), [0.5, 0.5], atol=1e-15)
    ball = ShiftedBall(2, 0.5, 3.0)
    lam = math.pi * 0.25
    assert np.allclose(moment(Region([ball])), [3.0 * lam, 0.0], atol=1e-12)
    tri = Region([Polytope([[0, 0], [1, 0], [0, 1]])])
    assert np.allclose(moment(tri), [1.0 / 6.0, 1.0 / 6.0], atol=1e-15)


def test_moment_additive_over_parts():
    region = Region([AxisBox([0, 0], [1, 1]), AxisBox([2, 0], [3, 1])])
    assert np.allclose(moment(region), [0.5 + 2.5, 0.5 + 0.5], atol=1e-12)


def test_moment_bounded_by_weighted_measure():
    rng = np.random.default_rng(17)
    parts = [
        AxisBox([0.2, 0.1], [1.4, 0.9]),
        ShiftedBall(2, 0.4, 1.2),
        Polytope([[0.1, 0.1], [1.0, 0.3], [0.5, 1.1]]),
        Annulus(2, 0.5, 1.5),
    ]
    for part in parts:
        m = np.linalg.norm(moment(Region([part])))
        mu = weighted_measure(Region([part]), abs_tol=1e-9).value
        assert m <= mu + 1e-9
    for _ in range(10):
        lo = rng.random(2)
        hi = lo + 0.2 + rng.random(2)
        part = AxisBox(lo, hi)
        m = np.linalg.norm(moment(Region([part])))
        assert m <= weighted_measure(Region([part])).value + 1e-9


def test_sandwich_bound_inside_annulus():
    region = Region([Annulus(3, 1.0, 2.0), ShiftedBall(3, 0.25, 1.5)])
    lam = lebesgue(region)
    mu = weighted_measure(region, abs_tol=1e-8).value
    assert 1.0 * lam <= mu <= 2.0 * lam  # every point has 1 <= |x| < 2


# -- disjointness ----------------------------------------------------------

def test_disjoint_check_radial_exact():
    ok = Region([OriginBall(2, 1.0), Annulus(2, 1.0, 2.0), Annulus(2, 2.0, 3.0)])
    assert ok.check_disjoint()
    bad = Region([OriginBall(2, 1.5), Annulus(2, 1.0, 2.0)])
    with pytest.raises(DisjointnessError):
        bad.check_disjoint()


def test_disjoint_check_boxes_and_balls():
    with pytest.raises(DisjointnessError):
        Region([AxisBox([0, 0], [1, 1]), AxisBox([0.5, 0.5], [2, 2])]).check_disjoint()
    touching = Region([AxisBox([0, 0], [1, 1]), AxisBox([1, 0], [2, 1])])
    assert touching.check_disjoint()
    with pytest.raises(DisjointnessError):
        Region([ShiftedBall(2, 1.0, 0.5), ShiftedBall(2, 1.0, 1.5)]).check_disjoint()
    far = Region([ShiftedBall(2, 1.0, 0.0), ShiftedBall(2, 1.0, 3.0)])
    assert far.check_disjoint()


def test_disjoint_check_polygons_and_mixed_pairs():
    with pytest.raises(DisjointnessError):
        Region([
            Polytope([[0, 0], [1, 0], [0, 1]]),
            Polytope([[0.2, 0.2], [1.2, 0.2], [0.2, 1.2]]),
        ]).check_disjoint()
    mixed_bad = Region([Annulus(2, 0.0, 1.0), AxisBox([0.2, 0.2], [0.8, 0.8])])
    with pytest.raises(DisjointnessError):
        mixed_bad.check_disjoint()
    mixed_ok = Region([Annulus(2, 0.0, 1.0), AxisBox([2.0, 2.0], [3.0, 3.0])])
    assert mixed_ok.check_disjoint()


_TETRA = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _probes():
    # overlaps of depth 1e-2 in |x|, 1e-3 into a ball and 1e-2 into a tetrahedron
    c = 1.01 / math.sqrt(2.0)
    return {
        "radial": [Annulus(2, 1.0, 2.0), AxisBox([0.0, 0.0], [c, c])],
        "ball": [ShiftedBall(2, 1.0, 3.0), AxisBox([2.5, 0.999], [3.5, 2.0])],
        "ball 3d": [ShiftedBall(3, 1.0, 3.0), AxisBox([3.999, -0.5, -0.5], [5.0, 0.5, 0.5])],
        "polytope": [Polytope(_TETRA), AxisBox([0.99, -1.0, -1.0], [2.0, 1.0, 1.0])],
    }


@pytest.mark.parametrize("name", ["radial", "ball", "ball 3d", "polytope"])
def test_disjoint_check_rejects_thin_overlaps(name):
    rule = name.split()[0]
    with pytest.raises(DisjointnessError, match=f"^{rule} overlap between"):
        Region(_probes()[name]).check_disjoint()
    a, b = _probes()[name]
    f = SimpleFunction(a.dim, [(1.0, Region([a])), (2.0, Region([b]))])
    with pytest.raises(DisjointnessError, match=f"^{rule} overlap between"):
        f.check_disjoint()


def _skew_tetrahedra():
    # two tetrahedra meeting at one point of two skew edges, turned so that
    # neither a coordinate axis nor a face normal separates them
    c, s = math.cos(0.7), math.sin(0.7)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    below = [[-1, 0, 0], [1, 0, 0], [0, -1, -1], [0, 1, -1]]
    above = [[0, -1, 0], [0, 1, 0], [-1, 0, 1], [1, 0, 1]]
    return Polytope(np.array(below) @ turn.T), Polytope(np.array(above) @ turn.T)


# pairs that share a face, an edge or a point and whose bounding boxes
# overlap, so that each rule decides them (box pairs have no other rule)
_TOUCHING = {
    "radial": [
        (OriginBall(2, 1.0), Annulus(2, 1.0, 2.0)),
        (Annulus(2, 1.0, 5.0), AxisBox([3.0, 4.0], [6.0, 6.0])),
        (AxisBox([0.0, 0.0], [3.0, 4.0]), Annulus(2, 5.0, 6.0)),
        (OriginBall(2, 5.0), Polytope([[3, 4], [7, 1], [7, 5]])),
        (OriginBall(3, 5.0), Polytope([[3, 4, 0], [7, 1, 0], [7, 5, 0], [5, 5, 3]])),
        (ShiftedBall(3, 1.0, 3.0), Annulus(3, 4.0, 6.0)),
    ],
    "ball": [
        (ShiftedBall(2, 1.0, 0.0), ShiftedBall(2, 1.0, 2.0)),
        (ShiftedBall(2, 5.0, 3.0), AxisBox([6.0, 4.0], [8.0, 6.0])),
        (ShiftedBall(2, 5.0, 3.0), Polytope([[2, 7], [10, 1], [10, 7]])),
        (ShiftedBall(3, 5.0, 3.0), Polytope([[10, 1, 0], [2, 7, 0], [10, 7, 3], [10, 7, -3]])),
        (ShiftedBall(3, 5.0, -3.0), AxisBox([0.0, 4.0, -1.0], [2.0, 6.0, 1.0])),
    ],
    "box": [
        (AxisBox([0.0, 0.0], [1.0, 1.0]), AxisBox([1.0, 0.0], [2.0, 1.0])),
        (AxisBox([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), AxisBox([0.5, 1.0, 0.0], [2.0, 2.0, 1.0])),
        (AxisBox([0.0] * 4, [1.0] * 4), AxisBox([1.0, 0.0, 0.0, 0.0], [2.0] * 4)),
    ],
    "polytope": [
        (Polytope([[0, 0], [1, 0], [0, 1]]), Polytope([[1, 0], [0, 1], [1, 1]])),
        (AxisBox([1.0, 1.0], [2.0, 2.0]), Polytope([[0, 0], [2, 0], [0, 2]])),
        (Polytope(_TETRA), Polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])),
        (AxisBox([-1.0, -1.0, -1.0], [0.5, 0.25, 0.25]),
         Polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])),
        _skew_tetrahedra(),
    ],
}


def _scaled(part, s):
    if isinstance(part, OriginBall):
        return OriginBall(part.dim, s * part.radius)
    if isinstance(part, Annulus):
        return Annulus(part.dim, s * part.inner, s * part.outer)
    if isinstance(part, ShiftedBall):
        return ShiftedBall(part.dim, s * part.radius, s * part.offset)
    if isinstance(part, AxisBox):
        return AxisBox(s * part.lo, s * part.hi)
    return Polytope(s * part.vertices)


def _nudged(a, b, depth):
    # b moved towards a by depth times the pair's size (an annulus b shrunk
    # by 1 - depth), so the two overlap
    if isinstance(b, Annulus):
        return _scaled(b, 1.0 - depth)
    centre = [p.vertices.mean(axis=0) if isinstance(p, Polytope)
              else np.mean(part_bounding_box(p), axis=0) for p in (a, b)]
    shift = centre[0] - centre[1]
    lo, hi = np.array([part_bounding_box(a), part_bounding_box(b)]).transpose(1, 0, 2)
    step = depth * float(np.max(hi.max(axis=0) - lo.min(axis=0))) * shift / np.linalg.norm(shift)
    if isinstance(b, AxisBox):
        return AxisBox(b.lo + step, b.hi + step)
    if isinstance(b, Polytope):
        return Polytope(b.vertices + step)
    return ShiftedBall(b.dim, b.radius, b.offset + step[0])


@pytest.mark.parametrize("rule", sorted(_TOUCHING))
def test_disjoint_check_accepts_touching_pairs_at_every_scale(rule):
    for a, b in _TOUCHING[rule]:
        lo, hi = np.array([part_bounding_box(a), part_bounding_box(b)]).transpose(1, 0, 2)
        assert np.all(hi.min(axis=0) > lo.max(axis=0)) or rule == "box" or (
            isinstance(a, ShiftedBall) and isinstance(b, ShiftedBall))
        for k in range(-40, 41):
            s = 2.0 ** k
            assert Region([_scaled(a, s), _scaled(b, s)]).check_disjoint()
        with pytest.raises(DisjointnessError, match=f"^{rule} overlap between"):
            Region([a, _nudged(a, b, 1e-6)]).check_disjoint()


def test_disjoint_check_rejects_nested_parts():
    tri = Polytope([[-1, -1], [3, -1], [-1, 3]])
    tet = Polytope([[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    for inner, outer in ((ShiftedBall(2, 0.1, 0.5), tri), (OriginBall(2, 0.1), tri),
                         (AxisBox([0.0, 0.0], [0.1, 0.1]), tri),
                         (ShiftedBall(3, 0.1, 0.5), tet), (Annulus(3, 0.1, 0.2), tet),
                         (ShiftedBall(2, 0.1, 0.5), OriginBall(2, 1.0))):
        with pytest.raises(DisjointnessError):
            Region([outer, inner]).check_disjoint()


def test_disjoint_check_skips_parts_without_volume():
    flat = Polytope([[0, 0, 0], [2, 0, 0], [0, 2, 0]])
    assert Region([flat, AxisBox([0.0, 0.0, -1.0], [1.0, 1.0, 1.0])]).check_disjoint()
    assert Region([ShiftedBall(2, 0.0, 0.5), OriginBall(2, 1.0)]).check_disjoint()


def test_disjoint_sweep_matches_the_pairwise_loop():
    # integer boxes touch often; the verdict must be the all-pairs loop's
    from orliczval.regions import _overlap
    rng = np.random.default_rng(17)
    verdicts = set()
    for _ in range(60):
        lo = rng.integers(0, 10, (6, 2)).astype(float)
        hi = lo + rng.integers(1, 4, (6, 2))
        parts = [AxisBox(l, h) for l, h in zip(lo, hi)] + [ShiftedBall(2, 1.5, 20.0 * rng.random())]
        loop = any(_overlap(a, b) for i, a in enumerate(parts) for b in parts[i + 1:])
        try:
            Region(parts).check_disjoint()
            swept = False
        except DisjointnessError:
            swept = True
        assert swept == loop
        verdicts.add(loop)
    assert verdicts == {True, False}


def test_disjoint_check_above_dimension_three():
    simplex = Polytope(np.vstack([np.zeros(4), np.eye(4)]))
    with pytest.raises(CapabilityError, match="above dimension 3"):
        Region([simplex, AxisBox([0.1] * 4, [2.0] * 4)]).check_disjoint()
    # bounding boxes apart settle the pair, and boxes and balls need no polytope test
    assert Region([simplex, AxisBox([1.0] + [0.0] * 3, [2.0] * 4)]).check_disjoint()
    assert Region([OriginBall(4, 1.0), AxisBox([1.0] + [0.0] * 3, [2.0] * 4),
                   ShiftedBall(4, 1.0, -2.0)]).check_disjoint()


def test_disjoint_check_sweeps_box_stacks():
    cover = cube_cover(Polytope([[0, 0], [1, 0], [0, 1]]), 12)
    assert len(cover) > 4000 and cover.check_disjoint()
    assert cover._parts is None  # no AxisBox was built
    lo, hi = cover._box_stack()[0]
    planted = Region.from_boxes(np.vstack([lo, lo[2000] + 0.25 * (hi[2000] - lo[2000])]),
                                np.vstack([hi, hi[2000]]))
    with pytest.raises(DisjointnessError, match="^box overlap between"):
        planted.check_disjoint()
    f = SimpleFunction(2, [(1.0, cover), (2.0, Region([ShiftedBall(2, 0.25, 1.0)]))])
    with pytest.raises(DisjointnessError, match="^ball overlap between"):
        f.check_disjoint()
    g = SimpleFunction(2, [(1.0, cover), (2.0, Region([ShiftedBall(2, 0.25, 1.5)]))])
    assert g.check_disjoint()


# -- symmetric differences -------------------------------------------------

def test_symdiff_radial_interval_algebra():
    a = Region([Annulus(2, 0.0, 2.0)])
    b = Region([Annulus(2, 1.0, 3.0)])
    d = symmetric_difference(a, b)
    kinds = sorted(p.to_json()["kind"] for p in d.parts)
    assert kinds == ["annulus", "origin_ball"]
    assert abs(lebesgue(d) - (math.pi * 1.0 + math.pi * (9.0 - 4.0))) < 1e-12
    empty = symmetric_difference(a, a)
    assert empty.parts == () and weighted_measure(empty).value == 0.0


def test_symdiff_box_grid():
    a = Region([AxisBox([0, 0], [1, 1])])
    b = Region([AxisBox([0.5, 0.0], [1.5, 1.0])])
    d = symmetric_difference(a, b)
    assert abs(lebesgue(d) - 1.0) < 1e-12
    d3 = symmetric_difference(
        Region([AxisBox([0, 0, 0], [1, 1, 1])]),
        Region([AxisBox([0, 0, 0], [1, 1, 0.25])]))
    assert abs(lebesgue(d3) - 0.75) < 1e-12


def test_symdiff_polygons():
    a = Region([Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])])
    b = Region([Polytope([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])])
    d = symmetric_difference(a, b)
    assert abs(lebesgue(d) - 1.5) < 1e-9
    assert d.check_disjoint()


def test_symdiff_capability_error_names_fallback():
    a = Region([ShiftedBall(2, 0.5, 2.0)])
    b = Region([OriginBall(2, 1.0)])
    with pytest.raises(CapabilityError) as info:
        symmetric_difference(a, b)
    assert "estimate_symmetric_difference" in str(info.value)
    est = estimate_symmetric_difference(a, b, samples=100_000,
                                        rng=np.random.default_rng(8))
    truth = lebesgue(a) + lebesgue(b)  # the two sets are disjoint
    assert abs(est["lebesgue"] - truth) < 5.0 * est["lebesgue_stderr"] + 1e-3


def test_estimate_weighted_measure_against_exact():
    region = Region([AxisBox([1, 1], [2, 2])])
    est, err = estimate_weighted_measure(region, samples=200_000,
                                         rng=np.random.default_rng(12))
    exact = weighted_measure(region).value
    assert abs(est - exact) < 4.0 * err


def test_monte_carlo_estimates_draw_the_same_points():
    # both estimators draw samples uniform points in the bounding box from rng
    pts = 1.0 + np.random.default_rng(5).random((1000, 2))
    w = np.sqrt(np.sum(pts * pts, axis=1))
    est, err = estimate_weighted_measure(Region([AxisBox([1, 1], [2, 2])]), 1000,
                                         np.random.default_rng(5))
    assert (est, err) == (float(np.mean(w)), float(np.std(w)) / math.sqrt(1000))
    left = pts[:, 0] < 1.5
    sd = estimate_symmetric_difference(Region([AxisBox([1, 1], [2, 2])]),
                                       Region([AxisBox([1.5, 1.0], [2.0, 2.0])]), 1000,
                                       np.random.default_rng(5))
    assert sd["lebesgue"] == float(np.mean(left.astype(float)))
    assert sd["weighted"] == float(np.mean(np.where(left, w, 0.0)))


def test_estimate_against_an_empty_region_samples_only_the_other_box():
    # an empty region has no bounding box to add: every point is drawn in
    # the unit box at (10, 10), so the area is exact, with zero stderr
    # (stretched to the origin, the box gave stderr 0.070 at 20,000 samples)
    box = Region([AxisBox([10, 10], [11, 11])])
    pts = 10.0 + np.random.default_rng(5).random((1000, 2))
    for r1, r2 in ((box, Region([], dim=2)), (Region([], dim=2), box)):
        sd = estimate_symmetric_difference(r1, r2, 1000, np.random.default_rng(5))
        assert (sd["lebesgue"], sd["lebesgue_stderr"]) == (1.0, 0.0)
        assert sd["weighted"] == float(np.mean(np.sqrt(np.sum(pts * pts, axis=1))))
    nothing = estimate_symmetric_difference(Region([], dim=2), Region([], dim=2), 100)
    assert nothing["lebesgue"] == nothing["weighted"] == 0.0


def test_polytope_3d_weighted_measure_matches_box_and_monte_carlo():
    cube = Polytope([[x, y, z] for x in (1, 2) for y in (1, 2) for z in (1, 2)])
    val, bound = part_weighted_measure(cube, 1e-9)
    box_val, _ = part_weighted_measure(AxisBox([1, 1, 1], [2, 2, 2]), 1e-9)
    assert bound <= 1e-9
    assert abs(val - box_val) <= 1e-12 * box_val
    est, err = estimate_weighted_measure(Region([cube]), samples=150_000,
                                         rng=np.random.default_rng(2))
    assert abs(est - box_val) < 4.0 * err


def _contains_one_hull_per_point(vertices, p):
    # membership as a fresh qhull per point, with the tolerance 1e-9 * scale
    hull = ConvexHull(vertices)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(vertices))), float(np.max(np.abs(p))))
    return bool(np.all(hull.equations[:, :-1] @ p + hull.equations[:, -1] <= tol))


def test_polytope_3d_membership_is_one_halfspace_test():
    rng = np.random.default_rng(31)
    for k in range(4):
        poly = Polytope(rng.uniform(-1.0, 1.0, (10, 3)) * (1.0 + 2.0 * k))
        hull = ConvexHull(poly.vertices)
        scale = max(1.0, float(np.max(np.abs(poly.vertices))))
        lo, hi = part_bounding_box(poly)
        pts = [lo + (hi - lo) * rng.random((300, 3))]
        # points on facets, moved along the normal by fractions of the tolerance
        for offset in (-3.0, -0.5, 0.0, 0.5, 3.0):
            for eq, simplex in zip(hull.equations, hull.simplices):
                bary = rng.dirichlet(np.ones(3))
                on = bary @ poly.vertices[simplex]
                pts.append((on + offset * 1e-9 * scale * eq[:3])[None, :])
        pts = np.vstack(pts)
        got = part_contains(poly, pts)
        assert got.dtype == bool
        assert got.tolist() == [poly.contains(p) for p in pts]
        assert got.tolist() == [_contains_one_hull_per_point(poly.vertices, p) for p in pts]
        assert 0 < np.count_nonzero(got) < len(pts)


# -- cube covers -----------------------------------------------------------

def test_cube_cover_square_is_exact():
    sq = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
    for depth in (0, 1, 3):
        cover = cube_cover(sq, depth)
        assert abs(lebesgue(cover) - 1.0) < 1e-15
        cover.check_disjoint()


def test_cube_cover_triangle_defect_formula():
    tri = Polytope([[0, 0], [1, 0], [0, 1]])
    for depth in range(1, 9):
        cover = cube_cover(tri, depth)
        assert lebesgue(cover) == 0.5 * (1.0 - 2.0 ** (-depth))
    d1 = cube_cover(tri, 1)
    assert 0.5 - lebesgue(d1) <= 0.5


def test_cube_cover_monotone_and_inner():
    tri = Polytope([[0.1, 0.05], [1.3, 0.2], [0.4, 1.1]])
    prev = -1.0
    for depth in range(0, 7):
        cover = cube_cover(tri, depth)
        area = lebesgue(cover)
        assert area >= prev
        prev = area
        if cover.parts:
            rng = np.random.default_rng(depth)
            lo, hi = cover.bounding_box()
            pts = lo + (hi - lo) * rng.random((2000, 2))
            inside_cover = cover.contains(pts)
            from orliczval.regions import part_contains
            inside_poly = part_contains(tri, pts)
            assert not np.any(inside_cover & ~inside_poly)
    assert prev <= tri.volume() + 1e-12


def _corner_grid_cover(poly, depth):
    # the full corner-grid cover: every grid corner tested, four-corner
    # cells kept and merged per column into half-open runs
    h = 2.0 ** (-depth)
    v = poly.vertices
    xs = np.arange(math.floor(v[:, 0].min() / h), math.ceil(v[:, 0].max() / h) + 1) * h
    ys = np.arange(math.floor(v[:, 1].min() / h), math.ceil(v[:, 1].max() / h) + 1) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside = np.ones(gx.shape, bool)
    for i in range(len(v)):
        e = v[(i + 1) % len(v)] - v[i]
        inside &= (e[0] * (gy - v[i][1]) - e[1] * (gx - v[i][0])) >= -1e-12
    cell = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    lo, hi = [], []
    for i in range(cell.shape[0]):
        row = cell[i]
        edges = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))
                                       .astype(np.int8)))
        for start, stop in zip(edges[::2], edges[1::2]):
            lo.append([xs[i], ys[start]])
            hi.append([xs[i + 1], ys[stop]])
    return np.array(lo).reshape(-1, 2), np.array(hi).reshape(-1, 2)


def _cover_shapes():
    c, s = math.cos(0.3), math.sin(0.3)
    shapes = [
        [[0, 0], [1, 0], [0, 1]],
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 0], [2, 0], [2, 1], [0, 1]],
        [[1 + 0.7 * (c * x - s * y), 1 + 0.7 * (s * x + c * y)]
         for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))],
        [[0.3, 0.2], [0.301, 0.2], [0.3, 0.201]],
        [[0.1, 0.25], [0.6, 0.25], [0.35, 0.25 + 1e-9]],
        [[0.5, 0.0], [0.5 + 1e-9, 0.0], [0.5, 0.2]],
        [[-1, -0.5], [0.7, -1], [0.2, 0.9]],
        [[-1, -1], [-0.25, -1], [-0.25, 0.5], [-1, 0.5]],
    ]
    rng = np.random.default_rng(2024)
    for _ in range(60):
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 9)), 2))
        shapes.append(pts * rng.uniform(0.05, 1.0) + rng.uniform(-0.5, 0.5, 2))
    return [Polytope(np.asarray(v, float)) for v in shapes]


def test_cube_cover_matches_the_corner_grid_cover():
    shapes = _cover_shapes()
    assert len(shapes) == 69
    nonempty = 0
    for poly in shapes:
        assert poly.rank == 2
        assert np.ptp(poly.vertices, axis=0).max() <= 2.0
        for depth in range(10):
            want_lo, want_hi = _corner_grid_cover(poly, depth)
            cover = cube_cover(poly, depth)
            got_lo = np.array([b.lo for b in cover.parts]).reshape(-1, 2)
            got_hi = np.array([b.hi for b in cover.parts]).reshape(-1, 2)
            assert np.array_equal(got_lo, want_lo)
            assert np.array_equal(got_hi, want_hi)
            nonempty += bool(cover.parts)
    assert nonempty > 400


def test_cube_cover_memory_is_linear_in_the_columns():
    tri = Polytope([[0, 0], [1, 0], [0, 1]])
    tracemalloc.start()
    try:
        cube_cover(tri, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # kept as one box stack, a depth-14 cover peaks near 12.6 MiB in this
    # trace; one AxisBox per box, restacked for the measures, took 18.2 MiB
    tracemalloc.start()
    try:
        cover = cube_cover(tri, 14)
        area = lebesgue(cover)
        weighted_measure(cover)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2 ** 20
    assert len(cover) == 16383
    assert abs(area - (0.5 - 2.0 ** -15)) < 1e-12


def test_cube_cover_rejects_bad_input():
    with pytest.raises(DomainError):
        cube_cover(Polytope([[0, 0], [1, 0], [0, 1]]), -1)
    seg = Polytope([[0.0, 0.0], [1.0, 1.0]])
    assert cube_cover(seg, 3).parts == ()


# -- box stacks ------------------------------------------------------------

def test_from_boxes_rejects_what_axis_box_rejects():
    inf, nan = math.inf, math.nan
    good_lo, good_hi = [0.0, 0.0], [1.0, 1.0]
    cases = [
        # (AxisBox arguments, Region.from_boxes arguments)
        ((good_lo, [1.0, 1.0, 1.0]), (np.zeros((3, 2)), np.ones((3, 3)))),
        (([good_lo], [good_hi]), (good_lo, good_hi)),
        (([0.0], [1.0]), (np.zeros((3, 1)), np.ones((3, 1)))),
        (([0.0], [1.0]), (np.zeros((0, 1)), np.ones((0, 1)))),
        (([0.0, -inf], good_hi), ([good_lo, [0.0, -inf]], [good_hi, good_hi])),
        ((good_lo, [1.0, nan]), ([good_lo, good_lo], [good_hi, [1.0, nan]])),
        ((good_lo, [inf, 1.0]), ([good_lo, good_lo], [good_hi, [inf, 1.0]])),
        ((good_lo, [1.0, 0.0]), ([good_lo, good_lo], [good_hi, [1.0, 0.0]])),
        (([0.0, 2.0], good_hi), ([[0.0, 2.0], good_lo], [good_hi, good_hi])),
    ]
    messages = set()
    for box_args, stack_args in cases:
        with pytest.raises(DomainError) as box_err:
            AxisBox(*box_args)
        with pytest.raises(DomainError) as stack_err:
            Region.from_boxes(*stack_args)
        assert str(stack_err.value) == str(box_err.value)
        messages.add(str(box_err.value))
    assert len(messages) == 3


def test_from_boxes_matches_the_part_list_region():
    rng = np.random.default_rng(15)
    lo2 = rng.uniform(-3.0, 3.0, (50, 2))
    lo3 = rng.uniform(-2.0, 2.0, (4, 3))
    tri = Polytope([[0.1, 0.05], [1.3, 0.2], [0.4, 1.1]])
    stacks = [(lo2, lo2 + rng.uniform(0.05, 0.5, (50, 2))),
              (lo3, lo3 + rng.uniform(0.05, 0.5, (4, 3))),
              _corner_grid_cover(tri, 8)]
    for lo, hi in stacks:
        stacked = Region.from_boxes(lo, hi)
        listed = Region([AxisBox(a, b) for a, b in zip(lo, hi)])
        assert stacked.lebesgue() == listed.lebesgue()
        for abs_tol in (1e-9, 1e-11):
            got, want = stacked.weighted_measure(abs_tol), listed.weighted_measure(abs_tol)
            assert (got.value, got.error_bound) == (want.value, want.error_bound)
        assert np.array_equal(stacked.moment(), listed.moment())
        for got, want in zip(stacked.bounding_box(), listed.bounding_box()):
            assert np.array_equal(got, want)
        assert np.array_equal([b.lo for b in stacked.parts], lo)
        assert np.array_equal([b.hi for b in stacked.parts], hi)


def test_region_len_is_its_part_count():
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    empty = cube_cover(tri, 0)
    regions = _mixed_regions() + [empty, Region.from_boxes(np.zeros((0, 3)), np.ones((0, 3)))]
    counts = [len(region) for region in regions]  # before any parts are built
    assert counts == [len(region.parts) for region in regions]
    assert counts[-3:] == [63, 0, 0]
    assert empty.dim == 2 and empty.parts == ()
    assert empty.lebesgue() == 0.0 and empty.weighted_measure().value == 0.0


def test_the_covers_case_builds_no_axis_box(monkeypatch):
    built = []
    init = AxisBox.__init__

    def counted(self, lo, hi):
        built.append(1)
        init(self, lo, hi)

    monkeypatch.setattr(AxisBox, "__init__", counted)
    phi, xi = PowerYoung(2.0), PolynomialComposer([1.0, 0.5])
    tri = Polytope([[0.1, 0.05], [1.3, 0.2], [0.4, 1.1]])
    for depth in (0, 3, 9):
        cover = cube_cover(tri, depth)
        h = SimpleFunction.indicator(cover)
        lebesgue(cover)
        weighted_measure(cover, 1e-10)
        moment(cover)
        psi(xi, h)
        luxemburg_norm(phi, h)
        orlicz_norm(phi, h)
        indicator_norm(phi, cover)
    assert len(cover) > 100
    assert built == []
    assert len(cover.parts) == len(built)


def test_planar_paths_and_3d_boxes_load_no_scipy():
    # qhull is imported only for full-rank hulls in n >= 3, so the covers
    # case, 3D boxes and the planar edge operators run without any scipy
    # module (a fresh process)
    script = """
import sys
from orliczval.functions import SimpleFunction
from orliczval.norms import luxemburg_norm, orlicz_norm
from orliczval.polytopes import Polytope, continuity_constraint_system, planar_valuation
from orliczval.regions import AxisBox, Region, cube_cover
from orliczval.valuations import PolynomialComposer, psi
from orliczval.young import PowerYoung

tri = Polytope([[0.1, 0.05], [1.3, 0.2], [0.4, 1.1], [0.1, 0.05], [0.7, 0.4]])
cover = cube_cover(tri, 8)
h = SimpleFunction.indicator(cover, 2.0)
cover.weighted_measure()
luxemburg_norm(PowerYoung(2.0), h)
orlicz_norm(PowerYoung(2.0), h)
psi(PolynomialComposer([1.0, 0.5]), h)
Region([AxisBox([1.0, 0.5, 0.25], [2.0, 1.0, 1.0])]).weighted_measure()
assert continuity_constraint_system()["unique_zero_solution"]
planar_valuation(tri, 1.0, 0.5, 0.25, 0.125, 2.0, -1.0)
print(len(cover), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.split(" ", 1)
    assert int(count) > 100
    assert loaded.strip() == "[]"


def test_region_contains_equals_the_per_part_loop(monkeypatch):
    # the boxes are tested as one stack in chunks of (point, box) pairs,
    # the other parts one by one, and no AxisBox is built for it
    built = []
    init = AxisBox.__init__

    def counted(self, lo, hi):
        built.append(1)
        init(self, lo, hi)

    rng = np.random.default_rng(41)
    tri = Polytope([[0.1, 0.05], [1.3, 0.2], [0.4, 1.1]])
    regions = [cube_cover(tri, 12)] + _mixed_regions()
    monkeypatch.setattr(AxisBox, "__init__", counted)
    cases = []
    for region in regions:
        lo, hi = region.bounding_box()
        pts = rng.uniform(lo - 0.2 * (hi - lo) - 0.1, hi + 0.2 * (hi - lo) + 0.1,
                          (2000, region.dim))
        pts[::2] = np.round(pts[::2] * 4096.0) / 4096.0  # on the cover's box edges
        cases.append((region, pts, region.contains(pts)))
    assert built == []
    assert len(regions[0]) > 4000 and cases[0][2].sum() > 300
    for region, pts, got in cases:
        want = np.zeros(len(pts), bool)
        for part in region.parts:
            want |= part_contains(part, pts)
        assert np.array_equal(got, want), region


# -- plumbing --------------------------------------------------------------

def test_region_json_round_trip():
    region = Region([
        OriginBall(2, 1.0),
        Annulus(2, 1.0, 2.0),
        AxisBox([3.0, 0.0], [4.0, 1.0]),
        ShiftedBall(2, 0.25, 5.0),
        Polytope([[6.0, 0.0], [7.0, 0.0], [6.0, 1.0]]),
    ])
    want = {"dim": 2, "parts": [
        {"kind": "origin_ball", "dim": 2, "radius": 1.0},
        {"kind": "annulus", "dim": 2, "inner": 1.0, "outer": 2.0},
        {"kind": "axis_box", "lo": [3.0, 0.0], "hi": [4.0, 1.0]},
        {"kind": "shifted_ball", "dim": 2, "radius": 0.25, "offset": 5.0},
        {"kind": "polytope", "dim": 2, "vertices": [[6.0, 0.0], [7.0, 0.0], [6.0, 1.0]]},
    ]}
    # key order is part of the form: compare the serialized text too
    assert json.dumps(region.to_json()) == json.dumps(want)
    back = Region.from_json(region.to_json())
    assert back.dim == 2 and len(back.parts) == 5
    assert abs(lebesgue(back) - lebesgue(region)) < 1e-12
    assert np.allclose(moment(back), moment(region), atol=1e-12)
    # each part kind has one JSON form, which part_from_json reads back
    tetra = Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for part in (*region.parts, tetra):
        obj = part.to_json()
        back = part_from_json(obj)
        assert type(back) is type(part), part
        assert json.dumps(back.to_json()) == json.dumps(obj), part


def test_region_validation():
    with pytest.raises(DomainError):
        Region([])
    with pytest.raises(DomainError):
        Region([OriginBall(2, 1.0), OriginBall(3, 1.0)])
    with pytest.raises(DomainError):
        Annulus(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        AxisBox([0, 0], [0, 1])
    with pytest.raises(DomainError):
        OriginBall(1, 1.0)
    empty = Region([], dim=2)
    assert lebesgue(empty) == 0.0 and np.all(moment(empty) == 0.0)


def test_axis_box_rejects_every_infinite_or_nan_bound():
    for lo, hi in (([-math.inf, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.inf]),
                   ([0.0, math.nan], [1.0, 1.0]), ([0.0, 0.0], [math.nan, 1.0])):
        with pytest.raises(DomainError, match="all finite"):
            AxisBox(lo, hi)


def _per_part_sums(region, abs_tol=1e-9):
    """Lebesgue measure, weighted measure, its bound and the moment, summed
    part by part, with the sums of absolute values for the moment.  The
    boxes are measured first, as one stack (box by box in 2D, where each
    is a closed form), and each part gets an equal share of what the ones
    before it left of ``abs_tol``."""
    boxes = [p for p in region.parts if isinstance(p, AxisBox)]
    rest = [p for p in region.parts if not isinstance(p, AxisBox)]
    mus = []
    if boxes and region.dim == 2:
        mus = [part_weighted_measure(b) for b in boxes]
    elif boxes:
        lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
        mus = [box_weighted_measure(lo, hi, abs_tol / (len(rest) + 1))]
    bound = sum(e for _, e in mus)
    for k, p in enumerate(rest):
        mus.append(part_weighted_measure(p, (abs_tol - bound) / (len(rest) - k)))
        bound += mus[-1][1]
    vols, moments = [], []
    for p in region.parts:
        if isinstance(p, AxisBox):
            vols.append(float(np.prod(p.hi - p.lo)))
            moments.append(vols[-1] * 0.5 * (p.lo + p.hi))
        else:
            vols.append(part_lebesgue(p))
            moments.append(part_moment(p))
    moments = np.array(moments).reshape(-1, region.dim)
    return (sum(vols), sum(v for v, _ in mus), sum(e for _, e in mus),
            moments.sum(axis=0), np.abs(moments).sum(axis=0))


def _mixed_regions():
    rng = np.random.default_rng(31)
    boxes2 = [AxisBox(lo, lo + rng.uniform(0.01, 0.5, 2))
              for lo in rng.uniform(-3.0, 3.0, (40, 2))]
    boxes3 = [AxisBox(lo, lo + rng.uniform(0.05, 0.5, 3))
              for lo in rng.uniform(-2.0, 2.0, (6, 3))]
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return [
        Region(boxes2[:20] + [Polytope(rng.uniform(-4.0, 4.0, (6, 2))), OriginBall(2, 0.4)]
               + boxes2[20:] + [Annulus(2, 0.5, 0.7), ShiftedBall(2, 0.3, 2.5)]),
        Region(boxes3[:3] + [OriginBall(3, 0.5), ShiftedBall(3, 0.2, -1.5)] + boxes3[3:]),
        Region([], dim=2),
        Region([], dim=3),
        Region([tri, Annulus(2, 1.5, 2.0)]),
        Region(boxes2[:1]),
        cube_cover(tri, 6),
    ]


def test_region_sums_equal_per_part_sums():
    # boxes are measured as one stack, the other parts one by one; the sums
    # are linear, so the random parts need not be disjoint here
    for region in _mixed_regions():
        vol, mu, bound, mom, mom_abs = _per_part_sums(region)
        assert abs(region.lebesgue() - vol) <= 1e-14 * vol
        wm = region.weighted_measure()
        assert abs(wm.value - mu) <= 1e-14 * mu
        assert wm.error_bound == bound
        assert np.all(np.abs(region.moment() - mom) <= 1e-14 * mom_abs)


def test_region_weighted_measure_meets_abs_tol_as_a_whole():
    # each part alone meets the full abs_tol, so before the shares the
    # four balls' bounds summed to 1.0005e-12 and the six boxes' to 1.2 * 3e-13
    balls = Region([ShiftedBall(3, 0.5, 2.0 + 3.0 * i) for i in range(4)])
    boxes = Region([AxisBox([i, 0.0, 0.0], [i + 1.0, 1.0, 1.0]) for i in range(6)])
    for region, abs_tol in ((balls, 1e-12), (balls, 1e-13), (boxes, 4e-13), (boxes, 1e-9)):
        wm = region.weighted_measure(abs_tol)
        assert 0.0 < wm.error_bound <= abs_tol
        parts = sum(part_weighted_measure(p, 1e-9)[0] for p in region.parts)
        assert abs(wm.value - parts) <= wm.error_bound + 1e-9
    # the boxes' roundoff terms alone sum above 3e-13: no share can meet it
    with pytest.raises(AccuracyError):
        boxes.weighted_measure(3e-13)


def test_box_regions_never_measure_a_part_at_a_time(monkeypatch):
    import orliczval.regions as regions

    def refuse(*args, **kwargs):
        raise AssertionError("a per-part function was called")

    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for name in ("part_weighted_measure", "part_lebesgue", "part_moment"):
        monkeypatch.setattr(regions, name, refuse)
    cover = cube_cover(tri, 12)
    assert len(cover.parts) == 4095
    vol = cover.lebesgue()
    assert 0.5 - 2.0 ** -12 < vol < 0.5
    assert 0.0 < cover.weighted_measure().value < polygon_weighted_measure(tri.vertices)
    xi = PolynomialComposer([1.0, 0.5])
    h = SimpleFunction.indicator(cover, 2.0)
    assert np.allclose(psi(xi, h), float(xi(2.0)) * cover.moment(), rtol=1e-14, atol=0.0)


def test_weighted_measure_cache_reuse():
    region = Region([AxisBox([1, 1, 1], [2, 2, 2])])
    first = weighted_measure(region, abs_tol=1e-8)
    second = weighted_measure(region, abs_tol=1e-8)
    assert first is second


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_measurement_serves_every_looser_request(monkeypatch):
    import orliczval.facets as facets
    from orliczval.norms import norm_report

    phi = PowerYoung(2.5)
    h = SimpleFunction(3, [(1.0, Region([AxisBox([0.2, 0.1, 0.3], [0.9, 0.8, 1.2])])),
                           (2.0, Region([ShiftedBall(3, 0.4, 1.5)])),
                           (0.5, Region([AxisBox([-1.0, -0.5, 0.0], [-0.2, 0.5, 0.6])]))])
    norm_report(phi, h)  # each term asked for 1e-9 / 3
    calls = _count_calls(monkeypatch, facets, "_integrate")
    for _, region in h.terms:
        assert weighted_measure(region, 1e-9).error_bound <= 1e-9 / 3.0
        assert indicator_norm(phi, region, 1e-9) > 0.0
    assert calls == []


def test_a_tighter_request_measures_again():
    region = Region([AxisBox([0.0, 0.0, 0.0], [1.0, 2.0, 1.5]), ShiftedBall(3, 0.3, -2.0)])
    loose = region.weighted_measure(1e-6)
    assert loose.error_bound <= 1e-6
    for abs_tol in (1e-11, 1e-13):
        tight = region.weighted_measure(abs_tol)
        assert tight is not loose and tight.error_bound <= abs_tol
        assert abs(tight.value - loose.value) <= loose.error_bound + tight.error_bound
        assert region.weighted_measure(1e-6) is tight
    # a closed form is measured once, whatever is asked
    disk = Region([OriginBall(2, 1.0)])
    assert disk.weighted_measure(1e-3) is disk.weighted_measure(1e-15)
    # a NaN or nonpositive request never reads the kept measurement
    for bad in (math.nan, 0.0, -1e-9):
        with pytest.raises(DomainError):
            region.weighted_measure(bad)


def test_a_stack_of_3d_boxes_is_one_boundary_reduction(monkeypatch):
    import orliczval.facets as facets

    rng = np.random.default_rng(11)
    lo = rng.uniform(-1.5, 1.5, (7, 3))
    hi = lo + rng.uniform(0.1, 0.8, (7, 3))
    region = Region.from_boxes(lo, hi)
    calls = _count_calls(monkeypatch, facets, "_integrate_cones")
    wm = region.weighted_measure(1e-10)
    assert len(calls) == 1
    assert region._parts is None  # no AxisBox was built
    assert wm.error_bound <= 1e-10
    parts = [part_weighted_measure(AxisBox(a, b), 1e-12) for a, b in zip(lo, hi)]
    assert len(calls) == 1 + len(parts)
    assert (abs(wm.value - sum(v for v, _ in parts))
            <= wm.error_bound + sum(e for _, e in parts) + 1e-15 * wm.value)


def test_a_quadrature_rejects_a_tolerance_that_is_not_positive():
    for part in (AxisBox([0.5, 0.5, 0.5], [1.0, 2.0, 1.5]), ShiftedBall(3, 0.4, 1.5)):
        for bad in (0.0, -5.0, math.nan, -math.inf):
            with pytest.raises(DomainError, match="abs_tol"):
                part_weighted_measure(part, bad)


@pytest.mark.parametrize("part", [
    OriginBall(2, 1.0), Annulus(3, 0.5, 1.0), AxisBox([0.0, 0.0], [1.0, 2.0]),
    ShiftedBall(3, 0.5, 0.0), Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])],
    ids=["origin_ball", "annulus", "box2", "centred_ball", "polygon", "flat_polytope"])
def test_a_closed_form_rejects_a_tolerance_that_is_not_positive(part):
    # the same answer as a quadrature part: no closed form hides a bad request
    region = Region([part])
    good = region.weighted_measure(1e-9)
    assert good.error_bound == 0.0 and part_weighted_measure(part, 1e-9)[1] == 0.0
    for bad in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(DomainError, match="abs_tol must be a positive number"):
            part_weighted_measure(part, bad)
        with pytest.raises(DomainError, match="abs_tol must be a positive number"):
            region.weighted_measure(bad)
