"""Young functions and their convex conjugates.

A Young function here is a convex, strictly increasing ``phi`` on
``[0, inf)`` with ``phi(0) = 0``, generated by a nondecreasing density
``phi'`` with ``phi'(0) = 0``, ``phi'(s) > 0`` for ``s > 0`` and
``phi'(s) -> inf``.  Three closed-form families are provided together
with a sampled-density family:

``PowerYoung(p, scale)``
    ``phi(t) = scale * t**p / p`` with ``p > 1``.  Conjugation stays in
    the family and sends exponent ``p`` to ``q = p / (p - 1)``.
``ExpYoung(scale, rate)``
    ``phi(t) = scale * (exp(rate*t) - rate*t - 1)``.
``LogYoung(scale, rate)``
    ``phi(t) = scale * ((1 + rate*t) * log1p(rate*t) - rate*t)``, the
    conjugate family of ``ExpYoung``.  Both keep full relative precision
    as ``t -> 0``, where the closed forms cancel (see ``_expm1_minus``).
``DensityYoung(samples, tail_slope)``
    ``phi'`` given by samples ``(s_i, d_i)`` interpolated piecewise
    linearly, the tail past the last sample being the last segment.
    Evaluation integrates each segment in closed form, so no quadrature
    error enters.  When the sampled values are strictly increasing the
    conjugate is again a ``DensityYoung`` with the sample columns
    swapped and the tail slope inverted, which makes biconjugation
    exactly involutive; a flat segment raises ``CapabilityError``.

The conjugate is ``phi*(t) = integral_0^t sup{s : phi'(s) <= t} ds``;
Young's inequality ``s*t <= phi(s) + phi*(t)`` holds with equality at
``t = phi'(s)`` (see :meth:`ConjugatePair.gap`).

Each family seeds ``phi^{-1}(y)`` in closed form (power, density) or by
Newton's method on floats (exp, log); :meth:`YoungFunction.inverse`
root-solves only where one call of ``phi`` fails to certify the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .numerics import _certifies, solve_monotone


def _as_nonnegative(t):
    arr = np.asarray(t, dtype=float)
    # minimum keeps NaN, so this rejects NaN along with every t < 0
    if not np.minimum.reduce(arr, axis=None, initial=0.0) >= 0.0:
        raise DomainError("Young functions are defined for t >= 0")
    return arr


def _scalar_like(t, arr):
    return float(arr) if np.ndim(t) == 0 else arr


def _sample_table(samples):
    """``samples`` of a density or a composer as an ``(m, 2)`` float table: ``m >= 2``
    finite rows, the first column strictly increasing; else ``DomainError``."""
    try:
        table = np.asarray(samples, dtype=float)
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise DomainError("need an (m, 2) sample table with m >= 2")
    if not np.all(np.isfinite(table)):
        raise DomainError("samples must be finite")
    if np.any(np.diff(table[:, 0]) <= 0.0):
        raise DomainError("sample points must be strictly increasing")
    return table


# Taylor coefficients 1/k! of expm1(x) - x, highest first, k = 18 ... 2
_EXPM1_MINUS = tuple(1.0 / math.factorial(k) for k in range(18, 1, -1))


def _expm1_minus(x):
    """``expm1(x) - x`` to a few ulp for every ``x``.

    The difference cancels for ``|x| < 1``, so there it is summed as its
    Taylor series by Horner's rule (the first omitted term is below
    ``3e-17`` of the sum), which is skipped when no ``|x| < 1``; beyond,
    the difference is accurate as it stands.  Overflow gives ``inf``.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    with np.errstate(over="ignore"):
        out = np.expm1(x) - np.minimum(x, 710.0)  # inf - inf would be NaN
    if not small.any():
        return out
    return np.where(small, _expm1_minus_series(np.minimum(np.maximum(x, -1.0), 1.0)), out)


def _expm1_minus_series(x):
    """The Taylor series of ``expm1(x) - x`` for a float or array ``|x| <= 1``."""
    acc = 0.0
    for c in _EXPM1_MINUS:
        acc = acc * x + c
    return acc * x * x


def _expm1_minus_float(x):
    """:func:`_expm1_minus` of one float, without numpy; overflow raises."""
    return _expm1_minus_series(x) if abs(x) < 1.0 else math.expm1(x) - x


def _newton_down(step, u):
    """Newton's method, ``step(u)`` its step, from an upper bound ``u`` of the
    root of a convex increasing function: the iterates fall to the root
    until a step is down to rounding (or NaN)."""
    for _ in range(100):
        du = step(u)
        u -= du
        if not du > 1e-15 * u:
            break
    return u


class YoungFunction:
    """Common interface of all Young-function families."""

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t):
        """Evaluate ``phi(t)`` for scalar or array ``t >= 0``."""
        raise NotImplementedError

    def density(self, s):
        """Evaluate the generating density ``phi'(s)``."""
        raise NotImplementedError

    def conjugate(self):
        """Return the convex conjugate as a :class:`YoungFunction`."""
        raise NotImplementedError

    def inverse(self, y, rel_tol=1e-12):
        """Solve ``phi(t) = y`` for ``t >= 0``: the family's seed when ``phi``
        at ``seed (1 -+ rel_tol/2)`` brackets ``y`` as the result of
        :func:`solve_monotone` is bracketed, else that solve from ``t = 0``."""
        if y < 0.0:
            raise DomainError("phi takes no negative values")
        if y == 0.0:
            return 0.0
        try:
            t = self._seed(float(y))
        except ArithmeticError:  # overflow, or y / scale = 0 in a Newton step
            t = math.nan
        if _certifies(self.eval, y, t, rel_tol):
            return t
        return solve_monotone(self.eval, y, lo=0.0, rel_tol=rel_tol)

    def _seed(self, y):
        """An estimate of ``phi^{-1}(y)`` for ``y > 0``; NaN means none."""
        return math.nan

    def to_json(self):
        """The closed-form families' JSON: their name and their fields."""
        return {"family": self._family, "params": asdict(self)}


def _scaled_power(arr, scale, q, divisor=1.0):
    """``scale * arr**q / divisor``, with each finite entry that overflows
    recomputed as ``(arr * (scale / divisor)**(1/q))**q``, which is finite
    wherever the value is."""
    try:
        with np.errstate(over="raise"):  # free until an entry overflows
            return scale * arr ** q / divisor
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):  # np.where drops 0 * inf
            out = scale * arr ** q / divisor
            fixed = (arr * np.float64(scale / divisor) ** (1.0 / q)) ** q
            return np.where(np.isinf(out) & (arr < math.inf), fixed, out)


@dataclass
class PowerYoung(YoungFunction):
    """``phi(t) = scale * t**p / p`` for ``p > 1``, ``scale > 0``; ``eval`` and
    ``density`` stay finite where ``t**p`` alone overflows (``_scaled_power``)."""

    _family = "power"
    p: float
    scale: float = 1.0

    def __post_init__(self):
        self.p, self.scale = float(self.p), float(self.scale)
        if not 1.0 < self.p < math.inf:
            raise DomainError(f"power family needs finite p > 1, got {self.p!r}")
        if not 0.0 < self.scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {self.scale!r}")

    def eval(self, t):
        return _scalar_like(t, _scaled_power(_as_nonnegative(t), self.scale, self.p, self.p))

    def density(self, s):
        return _scalar_like(s, _scaled_power(_as_nonnegative(s), self.scale, self.p - 1.0))

    def conjugate(self):
        q = self.p / (self.p - 1.0)
        return PowerYoung(q, self.scale ** (1.0 - q))

    def _seed(self, y):
        return (self.p / self.scale * y) ** (1.0 / self.p)


@dataclass
class _ScaleRate(YoungFunction):
    """The ``(scale, rate)`` parameters that ``ExpYoung`` and ``LogYoung`` share."""

    scale: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        self.scale, self.rate = float(self.scale), float(self.rate)
        if not (0.0 < self.scale < math.inf and 0.0 < self.rate < math.inf):
            raise DomainError("scale and rate must be positive and finite")

    def _conjugate_rate(self):
        """``1 / (scale * rate)``, the rate of the conjugate family."""
        if self.scale * self.rate == 0.0:
            raise DomainError(f"{self!r} has no conjugate: scale * rate underflows to 0")
        return 1.0 / (self.scale * self.rate)


class ExpYoung(_ScaleRate):
    """``phi(t) = scale * (exp(rate*t) - rate*t - 1)``."""

    _family = "exp"

    def eval(self, t):
        arr = _as_nonnegative(t)
        return _scalar_like(t, self.scale * _expm1_minus(self.rate * arr))

    def density(self, s):
        arr = _as_nonnegative(s)
        with np.errstate(over="ignore"):
            return _scalar_like(s, self.scale * self.rate * np.expm1(self.rate * arr))

    def conjugate(self):
        return LogYoung(self.scale, self._conjugate_rate())

    def _seed(self, y):
        # u = rate t solves expm1(u) - u = z >= u^2/2, so u = log1p(z + u)
        # is at most log1p(z + sqrt(2z))
        z = y / self.scale
        u = _newton_down(lambda u: (_expm1_minus_float(u) - z) / math.expm1(u),
                         math.log1p(z + math.sqrt(2.0 * z)))
        return u / self.rate


class LogYoung(_ScaleRate):
    """``phi(t) = scale * ((1 + rate*t) * log1p(rate*t) - rate*t)``.

    Closed under conjugation with :class:`ExpYoung`: the conjugate of
    ``LogYoung(a, b)`` is ``ExpYoung(a, 1/(a*b))`` and vice versa.
    """

    _family = "log"

    def eval(self, t):
        # (1 + u) log1p(u) - u = (1 + u) (expm1(-l) + l) with l = log1p(u)
        arr = _as_nonnegative(t)
        u = self.rate * arr
        return _scalar_like(t, self.scale * (1.0 + u) * _expm1_minus(-np.log1p(u)))

    def density(self, s):
        arr = _as_nonnegative(s)
        return _scalar_like(s, self.scale * self.rate * np.log1p(self.rate * arr))

    def conjugate(self):
        return ExpYoung(self.scale, self._conjugate_rate())

    def _seed(self, y):
        # l = log1p(rate t) solves exp(l) (expm1(-l) + l) = z >= l^2/2,
        # and exp(l) (l - 1) < z puts l below log(z) once l >= 2
        z = y / self.scale
        l = _newton_down(lambda l: (_expm1_minus_float(-l) - z * math.exp(-l)) / l,
                         min(math.sqrt(2.0 * z), max(2.0, math.log1p(z))))
        return math.expm1(l) / self.rate


class DensityYoung(YoungFunction):
    """Young function generated by a sampled density.

    Parameters
    ----------
    samples : array_like, shape (m, 2)
        Rows ``(s_i, d_i)`` with ``s_0 = 0``, ``d_0 = 0``, the ``s_i``
        strictly increasing and the ``d_i`` nondecreasing and finite.
    tail_slope : float, optional
        Slope of the density beyond the last sample.  Defaults to the
        slope of the last segment, falling back to the mean slope
        ``d_m / s_m`` and finally to ``1.0``; must be positive, so that
        the density is unbounded, and finite.
    """

    def __init__(self, samples, tail_slope=None):
        samples = _sample_table(samples)
        s, d = samples[:, 0], samples[:, 1]
        if s[0] != 0.0 or d[0] != 0.0:
            raise DomainError("the density must start at (0, 0)")
        if np.any(np.diff(d) < 0.0):
            raise DomainError("density values must be nondecreasing")
        slope = np.diff(d) / np.diff(s)
        if tail_slope is None:
            tail_slope = next((x for x in (slope[-1], d[-1] / s[-1]) if x > 0.0), 1.0)
        tail_slope = float(tail_slope)
        if not 0.0 < tail_slope < math.inf:
            raise DomainError("tail slope must be positive and finite")
        self.samples, self.tail_slope = samples, tail_slope
        # per segment, the tail last: phi (_cum) and phi' (_d) at its start, its slope
        self._cum = np.concatenate(([0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * np.diff(s))))
        self._slope = np.append(slope, tail_slope)
        self._s, self._d = s, d
        self._conjugate = None  # built on the first call of conjugate()

    def _segment(self, t):
        """The segment index ``i`` of each ``t >= 0`` and its offset ``t - s_i``."""
        arr = _as_nonnegative(t)
        i = np.searchsorted(self._s, arr, side="right") - 1
        return i, arr - self._s[i]

    def eval(self, t):
        i, dt = self._segment(t)
        return _scalar_like(t, self._cum[i] + dt * (self._d[i] + 0.5 * self._slope[i] * dt))

    def density(self, s_query):
        i, dt = self._segment(s_query)
        return _scalar_like(s_query, self._d[i] + self._slope[i] * dt)

    def conjugate(self):
        """Transpose the sample table; exact and involutive.

        The interpolated density is continuous and piecewise linear, so
        its sup-inverse is the plain inverse whenever the sampled values
        are strictly increasing, and that inverse is the piecewise
        linear interpolant through the swapped samples ``(d_i, s_i)``.
        A flat segment puts a jump into the inverse: the exact conjugate
        exists, but no sample table can carry it, hence ``CapabilityError``.
        The conjugate is built once, and its own conjugate is ``self``.
        """
        if self._conjugate is not None:
            return self._conjugate
        if np.any(np.diff(self._d) <= 0.0):
            i = int(np.argmin(np.diff(self._d)))
            raise CapabilityError(
                "density grid too coarse to invert: flat segment at "
                f"s in [{float(self._s[i])!r}, {float(self._s[i + 1])!r}] "
                f"(value {float(self._d[i])!r}); refine the samples so the "
                "density increases strictly"
            )
        conj = DensityYoung(np.column_stack((self._d, self._s)), tail_slope=1.0 / self.tail_slope)
        conj._conjugate, self._conjugate = self, conj
        return conj

    def _seed(self, y):
        # on the segment (or the tail) where phi reaches y, the stable root
        # dt of cum + d dt + slope dt^2 / 2 = y
        i = int(np.searchsorted(self._cum, y)) - 1
        d, r = float(self._d[i]), y - float(self._cum[i])
        root = math.hypot(d, math.sqrt(2.0 * float(self._slope[i])) * math.sqrt(r))
        return float(self._s[i]) + 2.0 * r / (d + root)

    def to_json(self):
        return {"density": self.samples.tolist(), "tail_slope": self.tail_slope}

    def __repr__(self):
        return (f"DensityYoung(<{len(self._s)} samples on "
                f"[0, {float(self._s[-1])!r}]>, tail_slope={self.tail_slope!r})")

    def __eq__(self, other):
        return (isinstance(other, DensityYoung)
                and np.array_equal(self.samples, other.samples)
                and self.tail_slope == other.tail_slope)


# The closed-form families by name, for their JSON and the CLI's ``--phi``.
_FAMILIES = {cls._family: cls for cls in (PowerYoung, ExpYoung, LogYoung)}


def young_from_json(obj):
    """Rebuild a Young function from its JSON form."""
    if "density" in obj:
        return DensityYoung(obj["density"], obj.get("tail_slope"))
    family = obj["family"]
    if family not in _FAMILIES:
        raise DomainError(f"unknown Young family {family!r}")
    return _FAMILIES[family](**obj.get("params", {}))


class ConjugatePair:
    """A Young function together with its conjugate.

    Provides the Young-inequality gap and a grid check of the defining
    duality relations.
    """

    def __init__(self, phi):
        self.phi = phi
        self.phi_star = phi.conjugate()

    def gap(self, s, t):
        """``phi(s) + phi*(t) - s*t``; nonnegative, zero at ``t = phi'(s)``."""
        return self.phi.eval(s) + self.phi_star.eval(t) - s * t

    def check(self, s_grid, rel_tol=1e-9):
        """Verify Young's inequality and the equality case on a grid.

        Returns a report dict; ``ok`` is False when the inequality is
        violated beyond rounding or the equality-case gap exceeds
        ``rel_tol`` at the scale of the terms.
        """
        worst_neg = 0.0
        worst_eq = 0.0
        for s in np.asarray(s_grid, dtype=float):
            t = self.phi.density(s)
            scale = max(1.0, abs(self.phi.eval(s)), abs(self.phi_star.eval(t)))
            g_eq = self.gap(s, t) / scale
            worst_eq = max(worst_eq, abs(g_eq))
            for t_off in (0.5 * t, 2.0 * t + 1.0):
                g = self.gap(s, t_off)
                sc = max(1.0, abs(self.phi.eval(s)), abs(self.phi_star.eval(t_off)))
                worst_neg = min(worst_neg, g / sc)
        ok = worst_neg >= -rel_tol and worst_eq <= rel_tol
        return {"ok": ok, "worst_negative_gap": worst_neg,
                "worst_equality_gap": worst_eq}


def delta2_report(phi):
    """Check the doubling condition ``phi(2t) <= C * phi(t)``.

    For the power family the condition is exact with ``C = 2**p`` and
    no threshold.  For every other family the ratio ``phi(2t)/phi(t)``
    is examined on a fixed geometric grid of 200 points from ``1e-6``
    to ``50``; this is a finite-grid check, not a proof.  The verdict is
    negative when the supremum of the ratio exceeds ``1e6``.

    Returns a dict with keys ``holds``, ``kind`` (``"exact"`` or
    ``"grid"``), ``constant``, ``threshold``, ``sup_ratio``,
    ``witness_t`` and ``tail_growing``.
    """
    if isinstance(phi, PowerYoung):
        c = 2.0 ** phi.p
        return {"holds": True, "kind": "exact", "constant": c, "threshold": 0.0,
                "sup_ratio": c, "witness_t": None, "tail_growing": False}
    ts = np.geomspace(1e-6, 50.0, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.asarray(phi.eval(2.0 * ts)) / np.asarray(phi.eval(ts))
    i = int(np.nanargmax(ratios))
    sup_ratio = float(ratios[i])
    tail_growing = bool(ratios[-1] > ratios[-2] > ratios[-3])
    holds = sup_ratio <= 1e6
    return {"holds": holds, "kind": "grid",
            "constant": sup_ratio if holds else None,
            "threshold": 1e-6, "sup_ratio": sup_ratio,
            "witness_t": float(ts[i]), "tail_growing": tail_growing}


def limit_report(phi):
    """Slope behaviour of ``phi`` at infinity and of its inverse.

    Tabulates ``phi(t)/t`` on a fixed geometric grid of 400 points in
    ``[1, 1e13]`` and ``phi^{-1}(y)/y`` (inverted to ``1e-12``) on the
    image grid, and reports whether the former climbs above ``1e6`` and
    the latter falls below ``1e-6`` within the grid, along with
    monotonicity of both ratio sequences.
    """
    ts = np.geomspace(1.0, 1e13, 400)
    with np.errstate(over="ignore"):
        vals = np.asarray(phi.eval(ts))
    ratios = vals / ts
    finite = np.isfinite(ratios)
    grow_ok = bool(np.all(np.diff(ratios[finite]) > -1e-9 * ratios[finite][:-1]))
    ratio_max = float(ratios[-1]) if np.all(finite) else math.inf
    ys = vals[finite & (vals > 0.0)]
    ys = ys[ys < 1e300]
    inv_ratios = []
    for y in ys[:: max(1, len(ys) // 60)]:
        inv_ratios.append(phi.inverse(float(y), rel_tol=1e-12) / float(y))
    inv_ratios = np.asarray(inv_ratios)
    shrink_ok = bool(np.all(np.diff(inv_ratios) < 1e-9 * inv_ratios[:-1] + 1e-30))
    return {
        "ratio_max": ratio_max,
        "ratio_exceeds_1e6": bool(ratio_max > 1e6),
        "ratio_monotone_up": grow_ok,
        "inverse_ratio_min": float(np.min(inv_ratios)),
        "inverse_ratio_below_1e-6": bool(np.min(inv_ratios) < 1e-6),
        "inverse_ratio_monotone_down": shrink_ok,
    }
