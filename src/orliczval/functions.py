"""Simple functions, grid functions, and exact common refinements.

A SimpleFunction is a finite weighted sum of region indicators with
pairwise disjoint regions and implicit value zero elsewhere.  Lattice
operations (pointwise max and min) are computed exactly by refining
both operands onto one shared partition.  The partition comes from the
one cell engine in ``regions`` (``refinement_cells``): radial parts and
axis boxes are painted on one compressed grid, planar polygons are
clipped, whichever algebra fits all parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .polytopes import polygon_weighted_measure
# part_contains stays bound here: bench/tests checks that tracing wraps it here too
from .regions import Region, part_contains, refinement_cells  # noqa: F401


class SimpleFunction:
    """Finitely many (value, region) terms over disjoint regions.

    Zero values and zero-measure regions are dropped on construction,
    so the term list is a canonical support description.
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

    @property
    def is_zero(self):
        return not self.terms

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
        if not self.terms:
            z = np.zeros(self.dim)
            return z, z
        boxes = [r.bounding_box() for _, r in self.terms]
        return (np.min([b[0] for b in boxes], axis=0),
                np.max([b[1] for b in boxes], axis=0))

    def check_disjoint(self, rng=None, samples=4000):
        all_parts = [p for _, r in self.terms for p in r.parts]
        Region(all_parts, dim=self.dim).check_disjoint(rng, samples)
        return True

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

    def left(self):
        return SimpleFunction(self.dim, [(a, part) for part, a, _ in self.cells])

    def right(self):
        return SimpleFunction(self.dim, [(b, part) for part, _, b in self.cells])


def _flatten(f):
    return [(v, p) for v, region in f.terms for p in region.parts]


def refine(f, g):
    """Common disjoint partition carrying both functions' values.

    The cells come from ``regions.refinement_cells``, one engine with
    three exact algebras: origin-centered radial parts and axis boxes of
    equal dimension are painted on one grid of compressed cuts, planar
    polygons (2D boxes promoted) are clipped by half-planes.  Mixing
    algebras raises a capability error; the caller can rasterize both
    sides onto a GridFunction instead.
    """
    if f.dim != g.dim:
        raise DomainError("dimensions disagree")
    cells = refinement_cells(_flatten(f), _flatten(g), f.dim)
    if cells is None:
        raise CapabilityError(
            "no exact common refinement for this part mix; rasterize both "
            "functions with rasterize() and use the grid-based operations")
    return RefinedPair(f.dim, tuple(cells))


def lattice_max_min(f, g):
    """Pointwise (max, min) of two refinable simple functions."""
    pair = refine(f, g)
    top = SimpleFunction(pair.dim,
                         [(max(a, b), part) for part, a, b in pair.cells])
    bottom = SimpleFunction(pair.dim,
                            [(min(a, b), part) for part, a, b in pair.cells])
    return top, bottom


def difference(f, g):
    """f - g as a simple function on the common refinement."""
    pair = refine(f, g)
    return SimpleFunction(pair.dim, [(a - b, part) for part, a, b in pair.cells])


def positive_negative_parts(f):
    """Split into (f max 0, f min 0); their sum reproduces f."""
    zero = SimpleFunction.zero(f.dim)
    return lattice_max_min(f, zero)


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

        Planar cells get the exact closed form; in higher dimensions the
        midpoint value |center| * volume is used, whose error is at most
        volume times half the cell diagonal.  Cached after first use.
        """
        if self._mu_cache is None:
            los, his = self.cell_bounds()
            if self.dim == 2:
                mus = np.empty(len(los))
                for i, (lo, hi) in enumerate(zip(los, his)):
                    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                                        [hi[0], hi[1]], [lo[0], hi[1]]])
                    mus[i] = polygon_weighted_measure(corners)
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


def rasterize(f, shape, lo=None, hi=None, pad=0.0):
    """Sample a simple function at cell centers over its support box."""
    box_lo, box_hi = f.support_box()
    lo = box_lo - pad if lo is None else np.asarray(lo, float)
    hi = box_hi + pad if hi is None else np.asarray(hi, float)
    if np.any(lo >= hi):
        raise DomainError("empty rasterization window")
    grid = GridFunction(lo, hi, np.zeros(shape))
    vals = f.evaluate(grid.cell_centers())
    return GridFunction(lo, hi, vals.reshape(shape))
