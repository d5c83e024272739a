"""Modulars and norms on the weighted function spaces.

The modular of ``h`` is the weighted integral of ``phi(|h|)``; for a
simple function that is a finite sum of exact or quadrature-controlled
region measures, for a grid function a cellwise sum.  Two norms are
built on it, and both are monotone root problems for
:func:`~orliczval.numerics.solve_monotone`: the gauge norm ``1/u`` with
``modular(u*h) = 1``, and the averaged norm ``(1 + modular(k*h)) / k``
at the ``k`` where, by Young's equality, the conjugate modular
``sum mu_i phi*(phi'(k v_i))`` reaches one.  They are equivalent within
a factor of two.  For one atom, in every family, and for a power gauge
over any atoms, both roots have a closed form; it is kept once one call
of the function at ``root (1 -+ rel_tol/2)`` brackets the target
(:func:`~orliczval.numerics._certifies`), and solved for otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, DomainError
from .functions import GridFunction, SimpleFunction
from .numerics import _certifies, solve_monotone
from .regions import Region
from .young import PowerYoung


# elements of one points x atoms block in a norm solve's vector call: the
# call's temporaries stay a small multiple of this, whatever the atom count
_BLOCK = 1 << 14


def _atoms(h, abs_tol):
    """Distinct nonzero |values|, ascending, and the summed weighted measure
    of each: the modular depends on ``h`` only through these."""
    if isinstance(h, SimpleFunction):
        per_term = abs_tol / max(len(h.terms), 1)
        vals = np.array([abs(v) for v, _ in h.terms])
        mus = np.array([r.weighted_measure(per_term).value for _, r in h.terms])
    elif isinstance(h, GridFunction):
        vals = np.abs(h.flat_values())
        mus = h.cell_weighted_measures()[0][vals > 0.0]
        vals = vals[vals > 0.0]
    else:
        raise DomainError(f"cannot take atoms of {type(h).__name__}")
    # a stable sort keeps equal values in input order, and each run of
    # them is summed from its first member (np.unique costs twice as much)
    order = np.argsort(vals, kind="stable")
    vals, mus = vals[order], mus[order]
    first = np.empty(len(vals), bool)
    first[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return vals[first], np.add.reduceat(mus, first)


def _weighted_sum(f, u, vals, mus):
    """``sum_i f(u * v_i) * mu_i`` for a float ``u``, or for each entry of a
    1D array ``u`` taken in blocks of at most ``_BLOCK`` points x atoms;
    overflow and ``inf - inf`` give ``inf``."""
    if np.ndim(u) == 0:
        return _block_sum(f, u * vals, mus)
    rows = max(1, _BLOCK // len(vals))
    if len(u) <= rows:
        return _block_sum(f, np.multiply.outer(u, vals), mus)
    return np.concatenate([_block_sum(f, np.multiply.outer(u[i:i + rows], vals), mus)
                           for i in range(0, len(u), rows)])


def _block_sum(f, t, mus):
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(f(t))
        return (np.where(np.isnan(y), np.inf, y) * mus).sum(axis=-1)


def modular(phi, h, abs_tol=1e-9):
    """Weighted integral of ``phi(|h|)``.

    Exact up to the region measure tolerance for simple functions; for
    grid functions in dimension three and up the cell measures are
    midpoint approximations (see ``cell_weighted_measures``).
    """
    vals, mus = _atoms(h, abs_tol)
    if len(vals) == 0:
        return 0.0
    return float(_weighted_sum(phi.eval, 1.0, vals, mus))


def luxemburg_norm(phi, h, rel_tol=1e-10, abs_tol=1e-9):
    """Gauge norm ``1/u`` for the ``u`` with ``modular(u * h) = 1``.

    Zero functions have norm zero.  One atom ``v`` of measure ``mu`` has
    norm ``v / phi^{-1}(1/mu)`` (see :meth:`YoungFunction.inverse`), and a
    power gauge ``M^(1/p)`` for the modular ``M`` of ``h``, once one call of
    the modular certifies it.  Otherwise the modular, increasing in ``u``
    from zero to infinity, is root-solved from ``u = 0`` with a bracket that
    starts at ``1 / max|h|`` and doubles as needed, so it finds the one root.
    """
    return _luxemburg(phi, *_atoms(h, abs_tol), rel_tol)


def _luxemburg(phi, vals, mus, rel_tol=1e-10):
    if len(vals) == 0:
        return 0.0
    if len(vals) == 1 and mus[0] > 0.0:
        return float(vals[0]) / phi.inverse(1.0 / float(mus[0]), rel_tol)
    u = _power_root(phi, vals, mus, 1.0) if isinstance(phi, PowerYoung) else np.nan

    def modular_at(u):
        return _weighted_sum(phi.eval, u, vals, mus)

    if not _certifies(modular_at, 1.0, u, rel_tol):
        u = solve_monotone(modular_at, 1.0, lo=0.0, hi=1.0 / float(vals[-1]), rel_tol=rel_tol)
    return 1.0 / u


def _power_root(phi, vals, mus, c):
    """The ``u`` with ``c * modular(u h) = 1`` under a power gauge, where
    ``modular(u h) = m (u max|h|)^p``; NaN unless it is a positive float."""
    m = c * phi.scale / phi.p * float(np.dot((vals / vals[-1]) ** phi.p, mus))
    d = float(vals[-1]) * m ** (1.0 / phi.p)
    return 1.0 / d if d > 0.0 else np.nan


def orlicz_norm(phi, h, rel_tol=1e-12, abs_tol=1e-9):
    """Averaged norm ``inf_k (1 + modular(k * h)) / k``.

    The derivative of the objective vanishes where
    ``sum mu_i phi*(phi'(k v_i)) = 1``, and by Young's equality
    ``phi*(phi'(t)) = t phi'(t) - phi(t)``.  The left side is nondecreasing
    in ``k``, zero at ``k = 0`` and unbounded because ``phi'`` is.  Its root
    is ``phi*'(phi*^{-1}(1/mu)) / v`` for one atom ``v`` of measure ``mu``,
    as ``(phi')^{-1} = phi*'``, and ``((p - 1) M)^(-1/p)`` for a power gauge
    and the modular ``M`` of ``h``: each is kept once one call of the left
    side certifies it.  Otherwise one monotone root solve from ``k = 0``
    finds the minimiser.  Where ``phi'`` is flat the root is not unique,
    but every root gives the same minimum.
    """
    return _orlicz(phi, *_atoms(h, abs_tol), rel_tol)


def _orlicz(phi, vals, mus, rel_tol=1e-12):
    if len(vals) == 0:
        return 0.0
    conjugate_modular = _conjugate_modular(phi, vals, mus)
    k = _minimiser_seed(phi, vals, mus, rel_tol)
    if not _certifies(conjugate_modular, 1.0, k, rel_tol):
        k = solve_monotone(conjugate_modular, 1.0, lo=0.0,
                           hi=1.0 / float(vals[-1]), rel_tol=rel_tol)
    return (1.0 + float(_weighted_sum(phi.eval, k, vals, mus))) / k


def _conjugate_modular(phi, vals, mus):
    """``k -> sum mu_i phi*(phi'(k v_i))``, the averaged norm's root problem.

    An entry whose product ``t phi'(t)`` alone overflows, with ``phi'`` and
    ``phi`` finite, is taken as ``t (phi'(t) - phi(t)/t)``; that form is not
    used throughout, as it gives ``inf - inf`` where ``phi`` overflows first.
    """
    def gap(t):
        d, y = phi.density(t), phi.eval(t)
        out = t * d - y
        if np.isinf(out).any():
            out = np.where(np.isinf(out) & np.isfinite(d) & np.isfinite(y), t * (d - y / t), out)
        return out

    return lambda k: _weighted_sum(gap, k, vals, mus)


def _minimiser_seed(phi, vals, mus, rel_tol):
    """The averaged norm's minimiser in closed form (see :func:`orlicz_norm`),
    or NaN."""
    if isinstance(phi, PowerYoung):  # the conjugate modular is (p - 1) modular
        return _power_root(phi, vals, mus, phi.p - 1.0)
    y = 1.0 / float(mus[0]) if len(vals) == 1 and mus[0] > 0.0 else np.inf
    if y == np.inf:  # several atoms, or 1/mu overflows
        return np.nan
    try:
        star = phi.conjugate()
    except (CapabilityError, DomainError):  # a flat density; scale * rate out of range
        return np.nan
    return float(star.density(star.inverse(y, rel_tol))) / float(vals[0])


def indicator_norm(phi, region, abs_tol=1e-9, rel_tol=1e-12):
    """Closed-form averaged norm of an indicator function.

    For an indicator of weighted measure ``mu > 0`` the minimisation
    collapses to ``mu * conj_inverse(1 / mu)`` where ``conj_inverse``
    inverts the convex conjugate of ``phi``; zero measure gives zero.
    """
    if not isinstance(region, Region):
        region = Region([region])
    mu = region.weighted_measure(abs_tol).value
    if mu == 0.0:
        return 0.0
    return mu * phi.conjugate().inverse(1.0 / mu, rel_tol=rel_tol)


def norm_report(phi, h, abs_tol=1e-9):
    """Both norms plus the two-sided equivalence check.

    Returns a dict with ``luxemburg``, ``orlicz``, ``ratio`` (orlicz
    over luxemburg, NaN for the zero function), ``equivalence_ok`` for
    ``luxemburg <= orlicz <= 2 * luxemburg`` up to rounding slack, and
    ``modular_at_luxemburg`` which sits at 1 for nonzero ``h``.
    """
    vals, mus = _atoms(h, abs_tol)
    lux = _luxemburg(phi, vals, mus)
    orl = _orlicz(phi, vals, mus)
    if lux == 0.0:
        return {"luxemburg": 0.0, "orlicz": orl, "ratio": float("nan"),
                "equivalence_ok": orl == 0.0, "modular_at_luxemburg": 0.0}
    mod_at = float(_weighted_sum(phi.eval, 1.0 / lux, vals, mus))
    slack = 1e-9 * max(1.0, lux)
    ok = (lux <= orl + slack) and (orl <= 2.0 * lux + slack)
    return {"luxemburg": lux, "orlicz": orl, "ratio": orl / lux,
            "equivalence_ok": bool(ok), "modular_at_luxemburg": mod_at}
