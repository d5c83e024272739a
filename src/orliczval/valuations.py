"""The moment-composition operator and its verification batteries.

Composing a continuous function through a simple function and taking
the moment vector of the result yields a vector-valued set functional.
This module provides the composer families, the operator itself, the
lattice-identity / covariance / growth-bound checks, the divergent
ball construction showing why the growth bound is necessary, and the
annular truncation probe for continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ConstructionError,
    DomainError,
    WitnessNotFoundError,
)
from .functions import SimpleFunction, lattice_max_min
from .norms import orlicz_norm
from .numerics import solve_monotone
from .polytopes import Polytope
from .regions import (
    Region,
    ShiftedBall,
    radial_part,
    refinement_cells,
    unit_ball_volume,
)
from .young import _sample_table, young_from_json

# The growth checks' sample heights: check_cphi, the only growth
# certificate, reads the growth grid, and the divergence witness search
# the wider search grid.  check_cphi reads a divergence off the last
# _TAIL ratios at either end, and a plan doubles a ball's center at most
# _CENTER_RETRIES times.
_GROWTH_GRID = np.geomspace(1e-6, 1e6, 241)
_SEARCH_GRID = np.geomspace(1e-6, 1e12, 4001)
_TAIL = 8
_CENTER_RETRIES = 60


class Composer:
    """A continuous scalar reparametrisation with value 0 at 0.

    Subclasses implement ``_values`` on float arrays over the real line;
    ``eval`` returns a float for a scalar.  :func:`check_cphi` alone
    certifies the growth bound |xi(b)| <= lambda * phi(|b|).
    """

    def eval(self, t):
        out = self._values(np.asarray(t, float))
        return float(out) if np.ndim(t) == 0 else out

    def __call__(self, t):
        return self.eval(t)

    def to_json(self):
        raise NotImplementedError


class PolynomialComposer(Composer):
    """Polynomial through the origin: coeffs are for degrees 1, 2, ..."""

    def __init__(self, coeffs):
        coeffs = [float(c) for c in coeffs]
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise DomainError("need finite coefficients for degrees >= 1")
        self.coeffs = tuple(coeffs)

    def _values(self, arr):
        return np.polyval(np.append(self.coeffs[::-1], 0.0), arr)

    def to_json(self):
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"PolynomialComposer({list(self.coeffs)!r})"


class OddComposer(Composer):
    """Odd extension sign(t) * phi(|t|) of a Young function."""

    def __init__(self, phi):
        self.phi = phi

    def _values(self, arr):
        return np.sign(arr) * np.asarray(self.phi.eval(np.abs(arr)))

    def to_json(self):
        return {"kind": "odd", "phi": self.phi.to_json()}

    def __repr__(self):
        return f"OddComposer({self.phi!r})"


@dataclass(eq=False)
class SigmoidComposer(Composer):
    """Bounded odd sigmoid scale * tanh(rate * t)."""

    scale: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        self.scale, self.rate = float(self.scale), float(self.rate)
        if not (0.0 < self.scale < math.inf and 0.0 < self.rate < math.inf):
            raise DomainError("scale and rate must be positive and finite")

    def _values(self, arr):
        return self.scale * np.tanh(self.rate * arr)

    def to_json(self):
        return {"kind": "sigmoid", "scale": self.scale, "rate": self.rate}


class TabulatedComposer(Composer):
    """Piecewise-linear interpolant through user samples.

    The sample range must contain 0 and interpolate to exactly 0 there;
    beyond the range the edge segments extend linearly, keeping the
    function continuous everywhere; at +-inf a flat edge gives its
    sample value and a sloped one +-inf.  As in ``DensityYoung``, the
    extension past the last sample is the last segment.
    """

    def __init__(self, samples):
        self.samples = samples = _sample_table(samples)
        slope = np.diff(samples[:, 1]) / np.diff(samples[:, 0])
        self._slope = np.append(slope, slope[-1])
        if not samples[0, 0] <= 0.0 <= samples[-1, 0]:
            raise DomainError("sample range must contain 0")
        if abs(self._values(0.0)) > 1e-12:
            raise DomainError("samples must interpolate to 0 at 0")

    def _values(self, arr):
        # v_i + slope_i (t - t_i); the first segment also extends below t_0,
        # and a flat edge keeps its sample value out to +-inf (0 * inf is NaN)
        ts = self.samples[:, 0]
        i = np.maximum(np.searchsorted(ts, arr, side="right") - 1, 0)
        with np.errstate(invalid="ignore"):
            step = self._slope[i] * (arr - ts[i])
        return self.samples[i, 1] + np.where(np.isinf(arr) & (self._slope[i] == 0.0), 0.0, step)

    def to_json(self):
        return {"kind": "tabulated", "samples": self.samples.tolist()}

    def __repr__(self):
        return f"TabulatedComposer(<{len(self.samples)} samples>)"


def composer_from_json(obj):
    kind = obj["kind"]
    if kind == "polynomial":
        return PolynomialComposer(obj["coeffs"])
    if kind == "odd":
        return OddComposer(young_from_json(obj["phi"]))
    if kind == "sigmoid":
        return SigmoidComposer(obj["scale"], obj["rate"])
    if kind == "tabulated":
        return TabulatedComposer(obj["samples"])
    raise DomainError(f"unknown composer kind {kind!r}")


def psi(xi, h):
    """Moment vector of the composed function: the composed term heights
    times the region moments.  Exact for simple functions; the implicit
    zero off the support contributes nothing because the composer
    vanishes at 0.  One composer call on the array of term values."""
    if not h.terms:
        return np.zeros(h.dim)
    heights = np.asarray(xi(np.array([v for v, _ in h.terms])), float)
    return heights @ np.array([region.moment() for _, region in h.terms])


def check_valuation_identity(xi, f, g):
    """Residual of the lattice identity on a refinable pair."""
    top, bottom = lattice_max_min(f, g)
    return psi(xi, top) + psi(xi, bottom) - psi(xi, f) - psi(xi, g)


def _transform_function(h, theta):
    terms = []
    for value, region in h.terms:
        if not all(isinstance(part, Polytope) for part in region.parts):
            raise CapabilityError(
                "covariance checking needs polytope regions (linear "
                "images of the other primitives leave the region "
                "algebra); rebuild the function over Polytope parts")
        terms.append((value, Region([p.transform(theta) for p in region.parts], dim=h.dim)))
    return SimpleFunction(h.dim, terms)


def check_covariance(xi, h, theta):
    """Residual of composing with the inverse map versus mapping the
    moment vector: psi(h after inverse) - theta @ psi(h).

    The precomposed function has each region replaced by its image, so
    both sides are exact polytope computations.
    """
    mat = np.asarray(theta, float)
    moved = _transform_function(h, mat)
    return psi(xi, moved) - mat @ psi(xi, h)


def check_cphi(xi, phi, delta=1.0):
    """Grid certificate for the growth bound |xi(b)| <= lambda * phi(delta |b|).

    Reports the sup of the ratio over the signed grid as the candidate
    bound; when the ratio climbs strictly monotonically into either
    grid end the sup is meaningless and a divergence flag is raised
    with the offending beta instead.  A certificate at grid scale, not
    a proof.
    """
    grid = _GROWTH_GRID
    denom = np.asarray(phi.eval(delta * grid))
    mag = np.maximum(np.abs(np.asarray(xi(grid))),
                     np.abs(np.asarray(xi(-grid))))
    ratios = mag / denom
    head = ratios[:_TAIL]
    rear = ratios[-_TAIL:]
    diverges_small = bool(np.all(np.diff(head) < 0.0) and head[0] > ratios[_TAIL])
    diverges_large = bool(np.all(np.diff(rear) > 0.0) and rear[-1] > ratios[-_TAIL - 1])
    certified = not (diverges_small or diverges_large)
    violation = None
    if diverges_small:
        violation = float(grid[0])
    elif diverges_large:
        violation = float(grid[-1])
    return {
        "certified_on_grid": certified,
        "lambda_candidate": float(np.max(ratios)) if certified else None,
        "sup_ratio": float(np.max(ratios)),
        "violation": violation,
        "diverges_small_end": diverges_small,
        "diverges_large_end": diverges_large,
        "delta": float(delta),
    }


def find_divergence_witnesses(xi, phi, count):
    """Heights whose composed value beats doubling multiples of phi.

    For each exponent i = 1..count, finds a height b of the search grid
    with s * xi(b) > 2**i * phi(|b|), the smallest such |b|, for one
    sign s: +1 when some height works at i = 1, else -1.  Returns
    (s, betas).  Raises when the grid runs out, which is exactly the
    certified case of :func:`check_cphi`.
    """
    candidates = np.concatenate((_SEARCH_GRID, -_SEARCH_GRID))
    values = np.asarray(xi(candidates))
    weights = np.asarray(phi.eval(np.abs(candidates)))
    order = np.argsort(np.abs(candidates), kind="stable")
    candidates, values, weights = candidates[order], values[order], weights[order]
    sign = 1.0 if np.any(values > 2.0 * weights) else -1.0
    values = sign * values
    betas = []
    for i in range(1, count + 1):
        ok = values > 2.0 ** i * weights
        k = np.argmax(ok)
        if not ok[k]:
            raise WitnessNotFoundError(
                f"no height on the grid beats 2**{i} times the gauge")
        betas.append(float(candidates[k]))
    return sign, betas


@dataclass(frozen=True)
class DivergencePlan:
    """Disjoint off-center balls witnessing unbounded moment growth.

    Ball j sits at center c_j * e1 with radius r_j chosen so that
    (c_j + r_j) * lambda(ball) equals the budget 1 / (2**i_j *
    phi(|beta_j|)); the budget caps each modular contribution by
    2**-i_j while the first moment coordinate of each composed term
    stays above c_j / (c_j + r_j).
    """

    xi: Composer
    phi: object
    dim: int
    sign: float
    exponents: tuple
    betas: tuple
    budgets: tuple
    centers: tuple
    radii: tuple

    def __len__(self):
        return len(self.betas)

    def ball(self, j):
        return ShiftedBall(self.dim, self.radii[j], self.centers[j])

    def validate(self):
        n = len(self.betas)
        if not (len(self.exponents) == len(self.budgets) == len(self.centers)
                == len(self.radii) == n and n >= 1):
            raise ConstructionError("ragged plan")
        if list(self.exponents) != sorted(set(self.exponents)):
            raise ConstructionError("exponents must be strictly increasing")
        omega = unit_ball_volume(self.dim)
        prev_c = None
        prev_ratio = None
        xis = np.asarray(self.xi(np.array(self.betas))).tolist()
        gauges = np.asarray(self.phi.eval(np.abs(self.betas))).tolist()
        for i, beta, x, gauge, budget, c, r in zip(
                self.exponents, self.betas, xis, gauges, self.budgets,
                self.centers, self.radii):
            if not self.sign * x > 2.0 ** i * gauge:
                raise ConstructionError(f"witness fails at beta = {beta!r}")
            if not 0.0 < r < 1.0:
                raise ConstructionError(f"radius out of range: {r!r}")
            if not c > r:
                raise ConstructionError("ball would contain the origin side")
            if prev_c is not None and not c > prev_c + 2.0:
                raise ConstructionError("centers too close")
            if abs((c + r) * omega * r ** self.dim - budget) > 1e-10 * max(1.0, budget):
                raise ConstructionError("budget equation violated")
            ratio = c / (c + r)
            if prev_ratio is not None and ratio < prev_ratio:
                raise ConstructionError("moment ratios must be nondecreasing")
            prev_c, prev_ratio = c, ratio
        return True


def build_divergence_plan(xi, phi, count, dim=2):
    """Construct and validate the ball family for ``count`` terms."""
    if dim < 2:
        raise DomainError("need dimension at least 2")
    sign, betas = find_divergence_witnesses(xi, phi, count)
    omega = unit_ball_volume(dim)
    exponents = []
    budgets = []
    centers = []
    radii = []
    prev_c = 0.0
    for j, beta in enumerate(betas, start=1):
        budget = 1.0 / (2.0 ** j * float(phi.eval(abs(beta))))
        c = max(3.0 * j, prev_c + 3.0)
        for _ in range(_CENTER_RETRIES):
            # Need a root r < 1, so the unit-radius value must reach the
            # budget; enlarging c only shrinks the root.
            if (c + 1.0) * omega >= budget:
                break
            c *= 2.0
        else:
            raise ConstructionError(
                f"no admissible radius below 1 for term {j} after "
                f"{_CENTER_RETRIES} center retries")
        r = solve_monotone(lambda rr: (c + rr) * omega * rr ** dim, budget,
                           lo=0.0, hi=1.0, rel_tol=1e-14)
        exponents.append(j)
        budgets.append(budget)
        centers.append(c)
        radii.append(r)
        prev_c = c
    plan = DivergencePlan(xi=xi, phi=phi, dim=dim, sign=sign,
                          exponents=tuple(exponents), betas=tuple(betas),
                          budgets=tuple(budgets), centers=tuple(centers),
                          radii=tuple(radii))
    plan.validate()
    return plan


_MODULAR_TOL = 1e-8  # what the measured modular of a truncation may be off by


def divergent_truncation(plan, J):
    """The J-term truncation with its modular and moment bookkeeping.

    Returns the truncated simple function, its measured modular with
    the closed-form cap sum of 2**-i_j <= 1, the first moment
    coordinate with its lower bound sum of c_j / (c_j + r_j), and one
    row per ball, all numbers Python floats: the ball's Lebesgue and
    weighted measure ``mu``, its first moment term and ratio, and the
    running sums of the moment terms, of the ratios (the lower bound),
    of the modular terms phi(|beta_j|) mu_j and of their caps 2**-i_j.
    Ball j is measured to ``_MODULAR_TOL / (J phi(|beta_j|))``, so the
    modular is within ``_MODULAR_TOL`` however the error falls on the
    balls.  The only code that tabulates the family.
    """
    if not 1 <= J <= len(plan):
        raise DomainError(f"J must lie in [1, {len(plan)}]")
    omega = unit_ball_volume(plan.dim)
    regions = [Region([plan.ball(j)]) for j in range(J)]
    xis = np.asarray(plan.xi(np.array(plan.betas[:J]))).tolist()
    gauges = np.asarray(plan.phi.eval(np.abs(plan.betas[:J]))).tolist()
    rows = []
    moment = lower = mod = cap = 0.0
    for j in range(J):
        beta, c, r = plan.betas[j], plan.centers[j], plan.radii[j]
        lam = omega * r ** plan.dim
        mu = float(regions[j].weighted_measure(_MODULAR_TOL / (J * gauges[j])).value)
        term = xis[j] * c * lam
        ratio = c / (c + r)
        moment += term
        lower += ratio
        mod += gauges[j] * mu
        cap += 2.0 ** -plan.exponents[j]
        rows.append({"j": j + 1, "exponent": plan.exponents[j], "beta": beta,
                     "center": c, "radius": r, "ball_lebesgue": lam,
                     "moment_term": term, "ratio": ratio,
                     "running_moment": moment, "running_lower_bound": lower,
                     "mu": mu, "modular_prefix": mod, "modular_cap": cap})
    h = SimpleFunction(plan.dim, zip(plan.betas, regions))
    h.check_disjoint()
    return {"h": h, "modular": mod, "modular_bound": cap,
            "first_moment": float(psi(plan.xi, h)[0]), "lower_bound": lower,
            "sign": plan.sign, "rows": rows}


def continuity_probe(xi, phi, h, K):
    """Annular truncations h_k of h and their distance to h.

    Truncation k keeps the part of h with radius in [2**-(k+1), k+2),
    so the discarded tail is the cells of h off that annulus, from the
    cell engine.  The table reports the norm of the tail and the moment
    gap |psi(h_k) - psi(h)|, both nonincreasing and eventually 0 for
    boundedly supported h.  The moment gap is exactly 0 throughout
    because radially symmetric regions have zero moment.
    """
    if K < 0:
        raise DomainError("need K >= 0")
    values = [v for v, _ in h.terms]
    if values and min(values) < 0.0 < max(values):
        raise DomainError("probe is defined for one-signed functions; "
                          "split into positive and negative parts first")
    parts = [(v, p) for v, region in h.terms for p in region.parts]
    rows = []
    for k in range(K + 1):
        kept = [(1.0, radial_part(h.dim, 2.0 ** -(k + 1), k + 2))]
        cells = refinement_cells(parts, kept, h.dim, lambda a, b: (a != 0.0) & (b == 0.0))
        if cells is None:  # a part outside the radial algebra
            raise DomainError(
                "continuity probing needs radially supported functions "
                "(origin balls and annuli)")
        tail = SimpleFunction(h.dim, [(a, Region([p])) for p, a, _ in cells])
        norm_tail = orlicz_norm(phi, tail)
        psi_gap = float(np.max(np.abs(psi(xi, tail)))) if tail.terms else 0.0
        rows.append({"k": k, "norm_tail": norm_tail, "psi_gap": psi_gap})
    return rows
