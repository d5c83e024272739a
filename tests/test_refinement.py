"""The one cell engine behind refine and symmetric_difference.

The reference below shares no code with ``orliczval.regions``: it
enumerates every cell of the product grid of cuts, in C order, and sums
each side's values over the parts whose half-open interval holds the
cell's midpoint.  Radial parts are intervals in |x|, boxes in x.
"""

import itertools
import math

import numpy as np
import pytest

from orliczval.functions import SimpleFunction, lattice_max_min, refine
from orliczval.polytopes import Polytope
from orliczval.regions import (
    Annulus,
    AxisBox,
    OriginBall,
    Region,
    lebesgue,
    symmetric_difference,
    weighted_measure,
)

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
    assert bottom.is_zero


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
