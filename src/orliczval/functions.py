"""Simple functions, grid functions, and exact common refinements.

A SimpleFunction is a finite weighted sum of region indicators with
pairwise disjoint regions and implicit value zero elsewhere.  Lattice
operations (pointwise max and min) are computed exactly by refining
both operands onto one shared partition.  The partition comes from the
one cell engine in ``regions`` (``refinement_cells``): radial parts and
axis boxes are painted on one compressed grid, planar polygons are
split pairwise, whichever algebra fits all parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .polytopes import rectangle_weighted_measures
# part_contains stays bound here: bench/tests checks that tracing wraps it here too
from .regions import (Region, _box_hull, _check_disjoint, part_contains,  # noqa: F401
                      refinement_cells)


class SimpleFunction:
    """Finitely many (value, region) terms over disjoint regions.

    Zero values and zero-measure regions are dropped on construction;
    other terms are kept as given, so two terms may share a value.
    """

    def __init__(self, dim, terms):
        kept = []
        for value, region in terms:
            if not isinstance(region, Region):
                region = Region([region])
            if region.dim != dim:
                raise DomainError("term region dimension disagrees")
            v = float(value)
            if not np.isfinite(v):
                raise DomainError("term values must be finite")
            if v == 0.0 or region.lebesgue() == 0.0:
                continue
            kept.append((v, region))
        self.dim = int(dim)
        self.terms = tuple(kept)

    @classmethod
    def indicator(cls, region, value=1.0):
        return cls(region.dim, [(value, region)])

    @classmethod
    def zero(cls, dim):
        return cls(dim, [])

    def scale(self, c):
        return SimpleFunction(self.dim, [(c * v, r) for v, r in self.terms])

    def evaluate(self, points):
        """Pointwise values; disjoint terms make the sum a selection."""
        pts = np.atleast_2d(np.asarray(points, float))
        out = np.zeros(len(pts))
        for v, region in self.terms:
            out += v * region.contains(pts)
        return out

    def support_box(self):
        return _box_hull([r.bounding_box() for _, r in self.terms], self.dim)

    def check_disjoint(self):
        return _check_disjoint([r for _, r in self.terms])

    def to_json(self):
        return {"dim": self.dim,
                "terms": [{"value": v, "region": r.to_json()}
                          for v, r in self.terms]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["dim"], [(t["value"], Region.from_json(t["region"]))
                                for t in obj["terms"]])

    def __repr__(self):
        return f"SimpleFunction(dim={self.dim}, terms={len(self.terms)})"


@dataclass(frozen=True)
class RefinedPair:
    """Two functions on one shared disjoint partition.

    cells is a list of (part, left value, right value); the partition
    covers both supports, and both functions vanish off the listed
    cells.
    """

    dim: int
    cells: tuple


def _flatten(f):
    return [(v, p) for v, region in f.terms for p in region.parts]


def refine(f, g):
    """Common disjoint partition carrying both functions' values.

    The cells come from ``regions.refinement_cells``, one engine with
    three exact algebras: origin-centered radial parts and axis boxes of
    equal dimension are painted on one grid of compressed cuts, planar
    polygons (2D boxes promoted) are split pairwise by
    ``polytopes.split_polygon``.  Cells where both sides vanish are
    never built.  Mixing algebras raises a capability error; the caller
    can rasterize both sides onto a GridFunction instead.
    """
    if f.dim != g.dim:
        raise DomainError("dimensions disagree")
    cells = refinement_cells(_flatten(f), _flatten(g), f.dim,
                             lambda a, b: (a != 0.0) | (b != 0.0))
    if cells is None:
        raise CapabilityError(
            "no exact common refinement for this part mix; rasterize both "
            "functions with rasterize() and use the grid-based operations")
    return RefinedPair(f.dim, tuple(cells))


def _by_value(dim, cells):
    # one term per distinct nonzero value, on the union of its cells, in first-seen order
    groups = {}
    for value, part in cells:
        if value != 0.0:
            groups.setdefault(value, []).append(part)
    return SimpleFunction(dim, [(v, Region(parts, dim=dim)) for v, parts in groups.items()])


def lattice_max_min(f, g):
    """Pointwise (max, min) of two refinable simple functions, one term per value."""
    pair = refine(f, g)
    top = _by_value(pair.dim, [(max(a, b), part) for part, a, b in pair.cells])
    bottom = _by_value(pair.dim, [(min(a, b), part) for part, a, b in pair.cells])
    return top, bottom


def difference(f, g):
    """f - g on the common refinement, one term per distinct nonzero value."""
    pair = refine(f, g)
    return _by_value(pair.dim, [(a - b, part) for part, a, b in pair.cells])


class GridFunction:
    """Piecewise-constant samples on a uniform grid over a box."""

    def __init__(self, lo, hi, values):
        self.lo = np.asarray(lo, float)
        self.hi = np.asarray(hi, float)
        self.values = np.asarray(values, float)
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise DomainError("lo and hi must be equal-length vectors")
        if self.values.ndim != len(self.lo):
            raise DomainError("value array rank must match the dimension")
        if not np.all(self.lo < self.hi):
            raise DomainError("need lo < hi on every axis")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")
        self.dim = len(self.lo)
        self.shape = self.values.shape
        self.widths = (self.hi - self.lo) / np.array(self.shape)
        self._mu_cache = None

    @property
    def cell_volume(self):
        return float(np.prod(self.widths))

    def cell_centers(self):
        axes = [self.lo[ax] + self.widths[ax] * (np.arange(m) + 0.5)
                for ax, m in enumerate(self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=1)

    def cell_bounds(self):
        centers = self.cell_centers()
        half = 0.5 * self.widths
        return centers - half, centers + half

    def flat_values(self):
        return self.values.reshape(-1)

    def cell_weighted_measures(self):
        """Per-cell integral of |x|, with a per-cell error bound.

        Planar cells get the exact closed form, all in one array call; in
        higher dimensions the midpoint value |center| * volume is used,
        whose error is at most volume times half the cell diagonal.
        Cached after first use.
        """
        if self._mu_cache is None:
            los, his = self.cell_bounds()
            if self.dim == 2:
                mus = rectangle_weighted_measures(los, his)
                errs = np.zeros(len(los))
            else:
                vol = self.cell_volume
                centers = self.cell_centers()
                mus = vol * np.linalg.norm(centers, axis=1)
                half_diag = 0.5 * float(np.linalg.norm(self.widths))
                errs = np.full(len(los), vol * half_diag)
            self._mu_cache = (mus, errs)
        return self._mu_cache

    def __repr__(self):
        return f"GridFunction(dim={self.dim}, shape={self.shape})"


def rasterize(f, shape):
    """Sample a simple function at cell centers over its support box."""
    lo, hi = f.support_box()
    if np.any(lo >= hi):
        raise DomainError("empty rasterization window")
    grid = GridFunction(lo, hi, np.zeros(shape))
    vals = f.evaluate(grid.cell_centers())
    return GridFunction(lo, hi, vals.reshape(shape))
