"""Root finding: :func:`solve_monotone`, for the norms with no closed form
and wherever :func:`_certifies` rejects a norm's or inverse's closed-form seed.

``f`` is called on one vector of points per step (k-section, Miranker,
IBM J. Res. Dev. 13, 1969).  The first call samples ``hi`` times
``2^-8, 2^-6, 2^-4, 2^-3``, quarter powers of two from ``2^-2`` to
``2^2.75`` and ``2^(3...16)``; while the target is not reached, the next
call goes on from the largest point by ``2^(1...16)``.  Each narrowing
call then takes 8 uniform interior points of the bracket, which alone
shrink it at least 9x, and 10 at the root estimate plus and minus
``w * 10^-2j``, ``j = 1...5``, for the width ``w``.  The estimate is
inverse interpolation (Brent, 1973, ch. 4) through up to four values in
hand around the bracket, or the secant fraction where those are not
strictly increasing and finite or the estimate leaves the bracket.
Each point is classified by ``f(x) < target`` itself, so the bracket
holds whatever the estimate; on smooth ``f`` a norm takes three or four
calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BracketError

# multiples of hi in the first call
_FIRST = 2.0 ** np.concatenate(((-8.0, -6.0, -4.0, -3.0), np.arange(-8, 12) / 4.0,
                                np.arange(3, 17)))
_EXPANSION = 2.0 ** np.arange(1, 17)
# width fractions from lo: the grid, then the offsets from the estimate
_STEP = np.concatenate((np.arange(1, 9) / 9.0, -(10.0 ** -np.arange(10, 1, -2)),
                        10.0 ** -np.arange(2, 11, 2)))
_IN_CLUSTER = (np.arange(len(_STEP)) >= 8) * 1.0


def _inverse_interpolation(xs, ys, target, lo):
    """``x`` at ``target`` on the polynomial in ``y`` through the points,
    as an offset from ``lo`` (Lagrange form); None unless the values are
    strictly increasing and finite."""
    if not (-math.inf < ys[0] and ys[-1] < math.inf and all(map(operator.lt, ys, ys[1:]))):
        return None
    est = 0.0
    for i, yi in enumerate(ys):
        w = xs[i] - lo
        for j, yj in enumerate(ys):
            if j != i:
                w *= (target - yj) / (yi - yj)
        est += w
    return est


def solve_monotone(f, target, lo=0.0, hi=None, rel_tol=1e-12):
    """Solve ``f(x) = target`` for nondecreasing ``f`` on ``[lo, inf)``.

    ``f`` maps a 1D float array to an array of its shape (``inf`` is above
    any target).  The first call takes ``lo`` and the multiples of ``hi``
    (default ``max(1, 2*lo)``) above ``lo`` listed in the module docstring.
    Returns the midpoint, a float, of the final bracket
    ``f(lo) < target <= f(hi)`` of relative width ``rel_tol``.
    Raises ``BracketError`` on a target that is not finite (inf would give
    the edge where ``f`` overflows), a NaN, ``f(lo) > target`` or no bracket.
    """
    if not -math.inf < target < math.inf:
        raise BracketError(f"cannot solve for the target {target!r}: it is not finite")
    def g(x):
        y = np.asarray(f(x), float)
        if np.isnan(y).any():
            raise BracketError(
                f"f({float(x[np.isnan(y)][0])!r}) is NaN while solving for {target!r}")
        return y

    hi = max(1.0, 2.0 * lo) if hi is None else hi
    with np.errstate(over="ignore"):
        x = hi * _FIRST
        x = np.concatenate(((lo,), x[(x > lo) & (x < math.inf)]))
        y = g(x)
        if y[0] > target:
            raise BracketError(f"lower end does not bracket: f({lo!r}) = {float(y[0])!r} "
                               f"already past target {target!r}")
        while y[-1] < target:
            lo, flo = float(x[-1]), float(y[-1])
            x = lo * _EXPANSION
            x = x[x < math.inf]
            if not (len(x) and lo > 0.0):
                raise BracketError(f"no bracket above f({lo!r}) = {flo!r}, target {target!r}")
            y = g(x)
        while True:
            k = np.count_nonzero(y < target)
            if k:
                lo, flo = float(x[k - 1]), float(y[k - 1])
            if k < len(x):
                hi, fhi = float(x[k]), float(y[k])
            width, mid = hi - lo, 0.5 * (lo + hi)
            if width <= rel_tol * max(abs(hi), 1e-300) or mid <= lo or mid >= hi:
                return mid
            est = None
            if 0 < k < len(x):
                est = _inverse_interpolation(x[max(k - 2, 0):k + 2].tolist(),
                                             y[max(k - 2, 0):k + 2].tolist(), target, lo)
            if est is not None and 0.0 < est < width:
                t = est / width
            else:
                # the secant fraction, 0 when an end is infinite
                t = (target - flo) / (fhi - flo) if fhi - flo < math.inf else 0.0
            x = lo + width * (_STEP + t * _IN_CLUSTER)
            # into the open bracket (np.clip costs twice as much)
            np.minimum(np.maximum(x, math.nextafter(lo, hi), out=x),
                       math.nextafter(hi, lo), out=x)
            x.sort()
            y = g(x)


def _certifies(f, target, t, rel_tol=1e-12):
    """Whether one call of ``f`` at ``t (1 -+ rel_tol/2)`` brackets ``target``
    as :func:`solve_monotone` brackets its result; False unless ``0 < t < inf``."""
    if not 0.0 < t < math.inf:
        return False
    with np.errstate(over="ignore"):
        below, above = f(t * np.array([1.0 - 0.5 * rel_tol, 1.0 + 0.5 * rel_tol]))
    return bool(below < target <= above)
