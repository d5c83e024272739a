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
from .functions import GridFunction, SimpleFunction, lattice_max_min
from .norms import modular, orlicz_norm
from .numerics import solve_monotone
from .polytopes import Polytope, UnimodularMap
from .regions import (
    Region,
    ShiftedBall,
    radial_interval,
    radial_part,
    unit_ball_volume,
)

_WITNESS_GRID = (1e-6, 1e6, 241)


def _default_grid():
    lo, hi, m = _WITNESS_GRID
    return np.geomspace(lo, hi, m)


class Composer:
    """A continuous scalar reparametrisation with value 0 at 0.

    Subclasses implement ``eval`` for scalar or array arguments on all
    of the real line.  An optional ``cphi_witness = (lambda_bound,
    phi)`` asserts the growth certificate |f(b)| <= lambda_bound *
    phi(|b|); it is checked on a sign-symmetric sample grid at
    construction time.
    """

    def __init__(self, cphi_witness=None):
        if cphi_witness is not None:
            lam, phi = cphi_witness
            lam = float(lam)
            if lam < 0.0:
                raise DomainError("witness bound must be nonnegative")
            cphi_witness = (lam, phi)
        self.cphi_witness = cphi_witness
        if cphi_witness is not None:
            self.certify_witness(_default_grid())

    def eval(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)

    def certify_witness(self, grid):
        """Check the stored growth bound on ``grid`` and its negation."""
        if self.cphi_witness is None:
            raise DomainError("no growth witness stored")
        lam, phi = self.cphi_witness
        grid = np.asarray(grid, float)
        grid = grid[grid > 0.0]
        bound = lam * np.asarray(phi.eval(grid))
        for signed in (grid, -grid):
            mag = np.abs(np.asarray(self.eval(signed)))
            bad = mag > bound * (1.0 + 1e-12)
            if np.any(bad):
                b = float(signed[np.argmax(bad)])
                raise DomainError(
                    f"growth witness violated at beta = {b!r}: "
                    f"|value| = {float(np.abs(self.eval(b)))!r} exceeds "
                    f"bound {float(lam * phi.eval(abs(b)))!r}")
        return True

    def to_json(self):
        raise NotImplementedError


class PolynomialComposer(Composer):
    """Polynomial through the origin: coeffs are for degrees 1, 2, ..."""

    def __init__(self, coeffs, cphi_witness=None):
        coeffs = [float(c) for c in coeffs]
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise DomainError("need finite coefficients for degrees >= 1")
        self.coeffs = tuple(coeffs)
        super().__init__(cphi_witness)

    def eval(self, t):
        arr = np.asarray(t, float)
        out = np.polyval(np.append(self.coeffs[::-1], 0.0), arr)
        return float(out) if np.ndim(t) == 0 else out

    def to_json(self):
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"PolynomialComposer({list(self.coeffs)!r})"


def identity_composer():
    return PolynomialComposer([1.0])


class OddComposer(Composer):
    """Odd extension sign(t) * phi(|t|) of a Young function."""

    def __init__(self, phi, cphi_witness=None):
        self.phi = phi
        super().__init__(cphi_witness)

    def eval(self, t):
        arr = np.asarray(t, float)
        out = np.sign(arr) * np.asarray(self.phi.eval(np.abs(arr)))
        return float(out) if np.ndim(t) == 0 else out

    def to_json(self):
        return {"kind": "odd", "phi": self.phi.to_json()}

    def __repr__(self):
        return f"OddComposer({self.phi!r})"


class SigmoidComposer(Composer):
    """Bounded odd sigmoid scale * tanh(rate * t)."""

    def __init__(self, scale=1.0, rate=1.0, cphi_witness=None):
        scale = float(scale)
        rate = float(rate)
        if scale <= 0.0 or rate <= 0.0:
            raise DomainError("scale and rate must be positive")
        self.scale = scale
        self.rate = rate
        super().__init__(cphi_witness)

    def eval(self, t):
        arr = np.asarray(t, float)
        out = self.scale * np.tanh(self.rate * arr)
        return float(out) if np.ndim(t) == 0 else out

    def to_json(self):
        return {"kind": "sigmoid", "scale": self.scale, "rate": self.rate}

    def __repr__(self):
        return f"SigmoidComposer(scale={self.scale!r}, rate={self.rate!r})"


class TabulatedComposer(Composer):
    """Piecewise-linear interpolant through user samples.

    The sample range must contain 0 and interpolate to exactly 0 there;
    beyond the range the edge segments extend linearly, keeping the
    function continuous everywhere.
    """

    def __init__(self, samples, cphi_witness=None):
        samples = np.asarray(samples, float)
        if samples.ndim != 2 or samples.shape[1] != 2 or len(samples) < 2:
            raise DomainError("need an (m, 2) sample table with m >= 2")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples must be finite")
        t = samples[:, 0]
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("sample points must be strictly increasing")
        if not (t[0] <= 0.0 <= t[-1]):
            raise DomainError("sample range must contain 0")
        if abs(np.interp(0.0, t, samples[:, 1])) > 1e-12:
            raise DomainError("samples must interpolate to 0 at 0")
        self.samples = samples
        self._slope_lo = (samples[1, 1] - samples[0, 1]) / (t[1] - t[0])
        self._slope_hi = (samples[-1, 1] - samples[-2, 1]) / (t[-1] - t[-2])
        super().__init__(cphi_witness)

    def eval(self, t):
        arr = np.asarray(t, float)
        ts, vs = self.samples[:, 0], self.samples[:, 1]
        inner = np.interp(arr, ts, vs)
        below = vs[0] + self._slope_lo * (arr - ts[0])
        above = vs[-1] + self._slope_hi * (arr - ts[-1])
        out = np.where(arr < ts[0], below, np.where(arr > ts[-1], above, inner))
        return float(out) if np.ndim(t) == 0 else out

    def to_json(self):
        return {"kind": "tabulated", "samples": self.samples.tolist()}

    def __repr__(self):
        return f"TabulatedComposer(<{len(self.samples)} samples>)"


def composer_from_json(obj):
    from .young import young_from_json

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
    """Moment vector of the composed function: sum of value-composed
    term heights times region moments.  Exact for simple functions;
    the implicit zero off the support contributes nothing because the
    composer vanishes at 0."""
    out = np.zeros(h.dim)
    for value, region in h.terms:
        out += xi(value) * region.moment()
    return out


def psi_quadrature(xi, grid):
    """Moment vector of a composed grid function.

    Cellwise exact for the piecewise-constant grid itself (each cell
    moment is volume times center); approximation error enters only
    through rasterization of whatever the grid represents.
    """
    if not isinstance(grid, GridFunction):
        raise DomainError("psi_quadrature expects a GridFunction")
    vals = np.asarray(xi(grid.flat_values()))
    centers = grid.cell_centers()
    return grid.cell_volume * (vals[:, None] * centers).sum(axis=0)


def check_valuation_identity(xi, f, g):
    """Residual of the lattice identity on a refinable pair."""
    top, bottom = lattice_max_min(f, g)
    return psi(xi, top) + psi(xi, bottom) - psi(xi, f) - psi(xi, g)


def check_sign_decomposition(xi, h):
    """Residual of psi(h) = psi(h max 0) + psi(h min 0)."""
    pos, neg = lattice_max_min(h, SimpleFunction.zero(h.dim))
    return psi(xi, pos) + psi(xi, neg) - psi(xi, h)


def _transform_function(h, theta):
    parts = []
    for value, region in h.terms:
        for part in region.parts:
            if not isinstance(part, Polytope):
                raise CapabilityError(
                    "covariance checking needs polytope regions (linear "
                    "images of the other primitives leave the region "
                    "algebra); rebuild the function over Polytope parts")
            parts.append((value, part.transform(theta)))
    return SimpleFunction(h.dim, [(v, Region([p])) for v, p in parts])


def check_covariance(xi, h, theta):
    """Residual of composing with the inverse map versus mapping the
    moment vector: psi(h after inverse) - theta @ psi(h).

    The precomposed function has each region replaced by its image, so
    both sides are exact polytope computations.
    """
    mat = theta.matrix if isinstance(theta, UnimodularMap) else np.asarray(theta, float)
    moved = _transform_function(h, mat)
    return psi(xi, moved) - mat @ psi(xi, h)


def check_cphi(xi, phi, beta_grid=None, delta=1.0, tail=8):
    """Grid certificate for the growth bound |xi(b)| <= lambda * phi(delta |b|).

    Reports the sup of the ratio over the signed grid as the candidate
    bound; when the ratio climbs strictly monotonically into either
    grid end the sup is meaningless and a divergence flag is raised
    with the offending beta instead.  A certificate at grid scale, not
    a proof.
    """
    if beta_grid is None:
        beta_grid = _default_grid()
    grid = np.asarray(beta_grid, float)
    grid = np.sort(grid[grid > 0.0])
    if len(grid) < 2 * tail:
        raise DomainError("growth-bound grid too short")
    denom = np.asarray(phi.eval(delta * grid))
    mag = np.maximum(np.abs(np.asarray(xi(grid))),
                     np.abs(np.asarray(xi(-grid))))
    ratios = mag / denom
    head = ratios[:tail]
    rear = ratios[-tail:]
    diverges_small = bool(np.all(np.diff(head) < 0.0) and head[0] > ratios[tail])
    diverges_large = bool(np.all(np.diff(rear) > 0.0) and rear[-1] > ratios[-tail - 1])
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


def find_divergence_witnesses(xi, phi, count, grid=None):
    """Heights whose composed value beats doubling multiples of phi.

    For each exponent i = 1..count, finds a grid height b with
    s * xi(b) > 2**i * phi(|b|) for a sign s fixed across the whole
    sequence.  Returns (s, betas).  Raises when the grid runs out,
    which is exactly the certified case of :func:`check_cphi`.
    """
    if grid is None:
        grid = np.geomspace(1e-6, 1e12, 4001)
    grid = np.asarray(grid, float)
    candidates = np.concatenate((grid, -grid))
    values = np.asarray(xi(candidates))
    weights = np.asarray(phi.eval(np.abs(candidates)))
    order = np.argsort(np.abs(candidates), kind="stable")
    candidates, values, weights = candidates[order], values[order], weights[order]
    sign = 0.0
    betas = []
    for i in range(1, count + 1):
        threshold = 2.0 ** i * weights
        if sign == 0.0:
            ok_pos = values > threshold
            ok_neg = -values > threshold
            if np.any(ok_pos):
                sign = 1.0
                ok = ok_pos
            elif np.any(ok_neg):
                sign = -1.0
                ok = ok_neg
            else:
                raise WitnessNotFoundError(
                    f"no height on the grid beats 2**{i} times the gauge")
        else:
            ok = sign * values > threshold
            if not np.any(ok):
                raise WitnessNotFoundError(
                    f"no height on the grid beats 2**{i} times the gauge "
                    f"with consistent sign")
        betas.append(float(candidates[np.argmax(ok)]))
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

    def ratios(self):
        c = np.asarray(self.centers)
        r = np.asarray(self.radii)
        return c / (c + r)

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
        for i, beta, budget, c, r in zip(self.exponents, self.betas,
                                         self.budgets, self.centers, self.radii):
            if not (self.sign * self.xi(beta)
                    > 2.0 ** i * self.phi.eval(abs(beta))):
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


def build_divergence_plan(xi, phi, count, dim=2, grid=None, max_retries=60):
    """Construct and validate the ball family for ``count`` terms."""
    if dim < 2:
        raise DomainError("need dimension at least 2")
    sign, betas = find_divergence_witnesses(xi, phi, count, grid)
    omega = unit_ball_volume(dim)
    exponents = []
    budgets = []
    centers = []
    radii = []
    prev_c = 0.0
    for j, beta in enumerate(betas, start=1):
        budget = 1.0 / (2.0 ** j * float(phi.eval(abs(beta))))
        c = max(3.0 * j, prev_c + 3.0)
        for _ in range(max_retries):
            # Need a root r < 1, so the unit-radius value must reach the
            # budget; enlarging c only shrinks the root.
            if (c + 1.0) * omega >= budget:
                break
            c *= 2.0
        else:
            raise ConstructionError(
                f"no admissible radius below 1 for term {j} after "
                f"{max_retries} center retries")
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


def divergent_truncation(plan, J, abs_tol=1e-6):
    """The J-term truncation with its modular and moment bookkeeping.

    Returns the truncated simple function, its modular (quadrature)
    together with the closed-form cap sum of 2**-i_j <= 1, and the
    first moment coordinate with its per-term lower bounds
    c_j / (c_j + r_j), all as a row table.  The modular tolerance is
    deliberately coarse: splitting a tight budget over many balls runs
    the ball quadrature into roundoff, and the only claim made about
    the modular is its distance to the closed-form cap.
    """
    if not 1 <= J <= len(plan):
        raise DomainError(f"J must lie in [1, {len(plan)}]")
    terms = [(plan.betas[j], Region([plan.ball(j)])) for j in range(J)]
    h = SimpleFunction(plan.dim, terms)
    h.check_disjoint()
    rows = []
    running_moment = 0.0
    running_bound = 0.0
    modular_bound = 0.0
    omega = unit_ball_volume(plan.dim)
    for j in range(J):
        lam = omega * plan.radii[j] ** plan.dim
        term_moment = float(plan.xi(plan.betas[j])) * plan.centers[j] * lam
        ratio = plan.centers[j] / (plan.centers[j] + plan.radii[j])
        running_moment += term_moment
        running_bound += ratio
        modular_bound += 2.0 ** -plan.exponents[j]
        rows.append({
            "j": j + 1,
            "exponent": plan.exponents[j],
            "beta": plan.betas[j],
            "center": plan.centers[j],
            "radius": plan.radii[j],
            "ball_lebesgue": lam,
            "moment_term": term_moment,
            "ratio": ratio,
            "running_moment": running_moment,
            "running_lower_bound": running_bound,
        })
    value = modular(plan.phi, h, abs_tol=abs_tol)
    first_moment = float(psi(plan.xi, h)[0])
    return {
        "h": h,
        "modular": value,
        "modular_bound": modular_bound,
        "first_moment": first_moment,
        "lower_bound": running_bound,
        "sign": plan.sign,
        "rows": rows,
    }


def continuity_probe(xi, phi, h, K):
    """Annular truncations h_k of h and their distance to h.

    Truncation k keeps the part of h with radius in [2**-(k+1), k+2);
    the table reports the norm of the discarded tail and the moment gap
    |psi(h_k) - psi(h)|, both nonincreasing and eventually 0 for
    boundedly supported h.  The moment gap is exactly 0 throughout
    because radially symmetric regions have zero moment.
    """
    if K < 0:
        raise DomainError("need K >= 0")
    values = [v for v, _ in h.terms]
    if values and min(values) < 0.0 < max(values):
        raise DomainError("probe is defined for one-signed functions; "
                          "split into positive and negative parts first")
    intervals = [(v, radial_interval(p)) for v, region in h.terms for p in region.parts]
    if any(iv is None for _, iv in intervals):
        raise DomainError(
            "continuity probing needs radially supported functions "
            "(origin balls and annuli)")
    rows = []
    for k in range(K + 1):
        lo_cut = 2.0 ** -(k + 1)
        hi_cut = float(k + 2)
        tail_terms = []
        for v, (a, b) in intervals:
            if a < lo_cut:
                tail_terms.append((v, radial_part(h.dim, a, min(b, lo_cut))))
            if b > hi_cut:
                tail_terms.append((v, radial_part(h.dim, max(a, hi_cut), b)))
        tail = SimpleFunction(h.dim, [(v, Region([p])) for v, p in tail_terms])
        norm_tail = orlicz_norm(phi, tail)
        psi_gap = float(np.max(np.abs(psi(xi, tail)))) if tail.terms else 0.0
        rows.append({"k": k, "norm_tail": norm_tail, "psi_gap": psi_gap})
    return rows
