"""The one cell engine behind refine and symmetric_difference.

The reference below shares no code with ``orliczval.regions``: it
enumerates every cell of the product grid of cuts, in C order, and sums
each side's values over the parts whose half-open interval holds the
cell's midpoint.  Radial parts are intervals in |x|, boxes in x.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from orliczval.functions import (
    SimpleFunction,
    difference,
    lattice_max_min,
    refine,
)
from orliczval.polytopes import Polytope, polygon_weighted_measure
from orliczval.regions import (
    Annulus,
    AxisBox,
    OriginBall,
    Region,
    lebesgue,
    symmetric_difference,
    weighted_measure,
)
from orliczval.valuations import PolynomialComposer, psi

_VALUES = (1.0, -2.5, 0.75, 3.0)


# -- independent reference -------------------------------------------------

def _reference_cells(fside, gside):
    # each side is a list of (value, lo, hi) with lo, hi tuples of coordinates
    both = fside + gside
    n = len(both[0][1]) if both else 1
    cuts = [sorted({c for _, lo, hi in both for c in (lo[ax], hi[ax])}) for ax in range(n)]
    cells = []
    for idx in itertools.product(*[range(len(c) - 1) for c in cuts]):
        lo = [cuts[ax][i] for ax, i in enumerate(idx)]
        hi = [cuts[ax][i + 1] for ax, i in enumerate(idx)]
        mid = [0.5 * (s + t) for s, t in zip(lo, hi)]

        def covered(side):
            return sum(v for v, plo, phi in side
                       if all(s <= m < t for s, m, t in zip(plo, mid, phi)))

        a, b = covered(fside), covered(gside)
        if a != 0.0 or b != 0.0:
            cells.append((lo, hi, a, b))
    return cells


def _bounds(part):
    if isinstance(part, OriginBall):
        return [0.0], [part.radius]
    if isinstance(part, Annulus):
        return [part.inner], [part.outer]
    return part.lo.tolist(), part.hi.tolist()


def _cells(pair):
    return [(*_bounds(part), a, b) for part, a, b in pair.cells]


# -- seeded inputs ---------------------------------------------------------

def _coordinate(rng, lattice):
    # lattice coordinates make touching, nested and shared-face parts common
    return float(rng.integers(0, 7)) * 0.5 if lattice else float(rng.uniform(0.0, 3.0))


def _radial_side(rng, dim, k):
    lattice = rng.random() < 0.5
    radii = sorted({_coordinate(rng, lattice) for _ in range(2 * k)})
    return [OriginBall(dim, b) if a == 0.0 else Annulus(dim, a, b)
            for a, b in zip(radii[::2], radii[1::2])]


def _box_side(rng, n, k):
    boxes = []
    for _ in range(10 * k):
        if len(boxes) == k:
            break
        lattice = rng.random() < 0.6
        corners = np.array([[_coordinate(rng, lattice) for _ in range(n)] for _ in range(2)])
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        if np.any(lo >= hi) or any(np.all(np.maximum(lo, b.lo) < np.minimum(hi, b.hi))
                                   for b in boxes):
            continue
        boxes.append(AxisBox(lo, hi))
    return boxes


def _polygon_side(rng, k):
    parts = []
    for _ in range(k):
        if rng.random() < 0.4:
            parts += _box_side(rng, 2, 1)
        else:
            center = rng.uniform(0.0, 3.0, 2)
            parts.append(Polytope(center + rng.uniform(-1.0, 1.0, (int(rng.integers(3, 7)), 2))))
    return parts


def _function(rng, dim, parts):
    return SimpleFunction(dim, [(float(rng.choice(_VALUES)), Region([p])) for p in parts])


def _side(f):
    return [(v, *_bounds(p)) for v, region in f.terms for p in region.parts]


def _pairs(n, count, seed):
    """Seeded (f, g) pairs in n = 1 (radial, in the plane or space) to 4."""
    rng = np.random.default_rng(seed)
    kmax = 3 if n == 4 else 5
    for _ in range(count):
        kf, kg = (int(k) for k in rng.integers(0, kmax + 1, 2))
        if n == 1:
            dim = int(rng.integers(2, 4))
            fp, gp = _radial_side(rng, dim, kf), _radial_side(rng, dim, kg)
        else:
            dim = n
            fp, gp = _box_side(rng, n, kf), _box_side(rng, n, kg)
        yield _function(rng, dim, fp), _function(rng, dim, gp)


def _edge_pairs(n):
    """Touching, nested, disjoint, empty-side and shared-face pairs."""
    if n == 1:
        def f(*ivs):
            return SimpleFunction(2, [(v, Region([OriginBall(2, b) if a == 0.0
                                                  else Annulus(2, a, b)]))
                                      for v, a, b in ivs])
        return [(f((1.0, 0.0, 1.0)), f((2.0, 1.0, 2.0))),
                (f((1.0, 0.0, 3.0)), f((2.0, 1.0, 2.0))),
                (f((1.0, 0.0, 1.0)), f((2.0, 2.0, 3.0))),
                (f((1.0, 0.5, 1.0), (3.0, 1.0, 2.0)), f()),
                (f(), f()),
                (f((1.0, 1.0, 2.0)), f((-1.0, 1.0, 2.0)))]

    def f(*boxes):
        return SimpleFunction(n, [(v, Region([AxisBox([lo] * n, [hi] * n)]))
                                  for v, lo, hi in boxes])
    unit = (1.0, 0.0, 1.0)
    shifted = SimpleFunction(n, [(2.0, Region([AxisBox([1.0] + [0.0] * (n - 1),
                                                       [2.0] + [1.0] * (n - 1))]))])
    return [(f(unit), shifted),
            (f((1.0, 0.0, 3.0)), f((2.0, 1.0, 2.0))),
            (f(unit), f((2.0, 2.0, 3.0))),
            (f(unit, (3.0, 1.0, 2.0)), f()),
            (f(), f()),
            (f(unit), f((-1.0, 0.0, 1.0)))]


# -- the engine against the reference --------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_painted_cells_match_the_midpoint_reference(n):
    pairs = list(_pairs(n, 20 if n == 4 else 60, seed=100 + n)) + _edge_pairs(n)
    for f, g in pairs:
        assert _cells(refine(f, g)) == _reference_cells(_side(f), _side(g))


def test_touching_parts_meet_without_a_shared_cell():
    top, bottom = lattice_max_min(*_edge_pairs(2)[0])
    assert [r.lebesgue() for _, r in top.terms] == [1.0, 1.0]
    assert not bottom.terms


# -- symmetric difference is the one-sided cells ---------------------------

def _key(part):
    if isinstance(part, Polytope):
        return ("polytope", part.vertices.tolist())
    return (type(part).__name__, *_bounds(part))


def _region_pairs():
    rng = np.random.default_rng(7)
    for algebra in ("radial", "box", "polygon"):
        for _ in range(30):
            kf, kg = (int(k) for k in rng.integers(0, 5, 2))
            if algebra == "radial":
                dim = int(rng.integers(2, 4))
                fp, gp = _radial_side(rng, dim, kf), _radial_side(rng, dim, kg)
            elif algebra == "box":
                dim = int(rng.integers(2, 5))
                fp, gp = _box_side(rng, dim, min(kf, 3)), _box_side(rng, dim, min(kg, 3))
            else:
                dim = 2
                fp, gp = _polygon_side(rng, kf), _polygon_side(rng, kg)
            yield algebra, Region(fp, dim=dim), Region(gp, dim=dim)


def test_symmetric_difference_is_the_one_sided_cells_of_refine():
    seen = set()
    for algebra, r1, r2 in _region_pairs():
        cells = refine(SimpleFunction.indicator(r1), SimpleFunction.indicator(r2)).cells
        want = [_key(p) for p, a, b in cells if (a == 0.0) != (b == 0.0)]
        got = symmetric_difference(r1, r2)
        assert [_key(p) for p in got.parts] == want, algebra
        seen.add(algebra)
    assert seen == {"radial", "box", "polygon"}


def test_polygon_symmetric_difference_builds_no_overlap_cell(monkeypatch):
    import orliczval.regions as regions

    built = []

    class Counted(Polytope):
        def __init__(self, points):
            built.append(1)
            super().__init__(points)

    hexagon = [[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3.0]
    r1 = Region([Counted(hexagon), Counted(np.add(hexagon, [3.0, 0.0]))])
    r2 = Region([Counted(np.add(hexagon, [0.8, 0.3])), Counted(np.add(hexagon, [2.8, -0.4]))])
    monkeypatch.setattr(regions, "Polytope", Counted)
    built.clear()
    d = symmetric_difference(r1, r2)
    # one Polytope per kept piece, none for the two overlaps
    assert len(built) == len(d.parts) > 0
    overlap = sum(polygon_weighted_measure(a.vertices) for a in r1.parts) + sum(
        polygon_weighted_measure(b.vertices) for b in r2.parts) - weighted_measure(d).value
    assert overlap > 0.1


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_adjacent_radial_intervals_measure_as_their_union(dim):
    for inner, mid, outer in ((0.0, 1.0, 2.0), (0.5, 1.0, 2.0), (1.0, 2.0, 3.0)):
        first = OriginBall(dim, mid) if inner == 0.0 else Annulus(dim, inner, mid)
        union = OriginBall(dim, outer) if inner == 0.0 else Annulus(dim, inner, outer)
        d = symmetric_difference(Region([first]), Region([Annulus(dim, mid, outer)]))
        assert len(d.parts) == 2
        whole = Region([union])
        assert math.isclose(lebesgue(d), lebesgue(whole), rel_tol=1e-15)
        assert math.isclose(weighted_measure(d).value, weighted_measure(whole).value,
                            rel_tol=1e-15)


# -- lattice results carry one term per distinct value ---------------------

def _disjoint_polygon_side(rng, k):
    # one convex part per slot [1.5 j, 1.5 j + 1.5) x [0, 1.5): disjoint
    # within a side, and both sides share the slots, so they overlap
    parts = []
    for j in range(k):
        corner = np.array([1.5 * j, 0.0])
        if rng.random() < 0.4:
            lo, hi = np.sort(rng.uniform(0.0, 1.5, (2, 2)), axis=0)
            parts.append(AxisBox(corner + lo, corner + hi))
        else:
            center = corner + rng.uniform(0.5, 1.0, 2)
            parts.append(Polytope(center + rng.uniform(-0.5, 0.5, (int(rng.integers(3, 7)), 2))))
    return parts


def _function_pairs():
    rng = np.random.default_rng(21)
    for algebra in ("radial", "box", "polygon"):
        for _ in range(25):
            kf, kg = (int(k) for k in rng.integers(0, 5, 2))
            if algebra == "radial":
                dim = int(rng.integers(2, 4))
                fp, gp = _radial_side(rng, dim, kf), _radial_side(rng, dim, kg)
            elif algebra == "box":
                dim = int(rng.integers(2, 4))
                fp, gp = _box_side(rng, dim, kf), _box_side(rng, dim, kg)
            else:
                dim = 2
                fp, gp = _disjoint_polygon_side(rng, kf), _disjoint_polygon_side(rng, kg)
            yield algebra, _function(rng, dim, fp), _function(rng, dim, gp)


def _lattice_results(f, g):
    """Each grouped result of (f, g) with its pointwise rule and value per cell."""
    top, bottom = lattice_max_min(f, g)
    zero = SimpleFunction.zero(f.dim)
    pos, neg = lattice_max_min(f, zero)
    return [(top, f, g, np.maximum), (bottom, f, g, np.minimum),
            (difference(f, g), f, g, np.subtract),
            (pos, f, zero, np.maximum), (neg, f, zero, np.minimum)]


def test_lattice_results_have_one_term_per_distinct_value():
    seen = set()
    for algebra, f, g in _function_pairs():
        for h, left, right, rule in _lattice_results(f, g):
            values = [v for v, _ in h.terms]
            cells = refine(left, right).cells
            want = list(dict.fromkeys(float(rule(a, b)) for _, a, b in cells))
            assert values == [v for v in want if v != 0.0], algebra
        seen.add(algebra)
    assert seen == {"radial", "box", "polygon"}


def test_lattice_results_evaluate_as_the_pointwise_rule():
    rng = np.random.default_rng(22)
    for algebra, f, g in _function_pairs():
        lo, hi = {"radial": (-3.5, 3.5), "box": (-0.5, 3.5),
                  "polygon": ([-0.5, -0.5], [6.5, 2.0])}[algebra]
        pts = rng.uniform(lo, hi, (300, f.dim))
        for h, left, right, rule in _lattice_results(f, g):
            want = rule(left.evaluate(pts), right.evaluate(pts))
            assert np.array_equal(h.evaluate(pts), want), algebra


def test_lattice_results_measure_as_their_cells():
    xi = PolynomialComposer([0.5, -1.0, 0.25])
    for algebra, f, g in _function_pairs():
        for h, left, right, rule in _lattice_results(f, g):
            per_cell = SimpleFunction(f.dim, [(float(rule(a, b)), Region([part]))
                                              for part, a, b in refine(left, right).cells])
            assert len(per_cell.terms) >= len(h.terms)
            want = sum(r.lebesgue() for _, r in per_cell.terms)
            got = sum(r.lebesgue() for _, r in h.terms)
            assert math.isclose(got, want, rel_tol=1e-12), algebra
            # psi term by term over the cells, as a loop
            want = sum((xi(v) * r.moment() for v, r in per_cell.terms), np.zeros(f.dim))
            scale = sum(abs(xi(v)) * np.max(np.abs(r.moment())) for v, r in per_cell.terms)
            assert np.allclose(psi(xi, h), want, rtol=0, atol=1e-12 * scale), algebra


def test_psi_of_the_zero_function_is_the_zero_vector():
    for dim in (2, 3, 4):
        got = psi(PolynomialComposer([1.0]), SimpleFunction.zero(dim))
        assert got.shape == (dim,) and not got.any()


# -- pinned cells ----------------------------------------------------------

def _part_bytes(part):
    if isinstance(part, Polytope):
        return b"polytope" + part.vertices.tobytes()
    return type(part).__name__.encode() + np.array(_bounds(part), float).tobytes()


def _pinned_digests():
    """sha256, per algebra, of the refine cells and symmetric_difference parts
    of ``_function_pairs``: every coordinate and value, bit for bit."""
    out = {}
    for algebra, f, g in _function_pairs():
        cells, diff = out.setdefault(algebra, (hashlib.sha256(), hashlib.sha256()))
        for part, a, b in refine(f, g).cells:
            cells.update(_part_bytes(part) + np.array([a, b], float).tobytes())
        supports = (Region([p for _, r in h.terms for p in r.parts], dim=h.dim) for h in (f, g))
        for part in symmetric_difference(*supports).parts:
            diff.update(_part_bytes(part))
        diff.update(b"|")
    return {k: (c.hexdigest()[:16], d.hexdigest()[:16]) for k, (c, d) in out.items()}


_PINNED = {"radial": ("06e80717908e7342", "f0d00c5f21eb3a71"),
           "box": ("2be69d00723ffbe0", "8d84330c4bbdb751"),
           "polygon": ("5398127a8b78647a", "898095b904d9558f")}


def test_refined_cells_keep_their_bits():
    # recorded from the numpy clipping walk and re-validated grid cells; the
    # float walk and the cells built from their cuts give the same bits
    assert _pinned_digests() == _PINNED
