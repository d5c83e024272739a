"""Root finding: :func:`solve_monotone`, for both norms and every inverse.

``f`` is called on one vector of points per step (k-section, Miranker,
IBM J. Res. Dev. 13, 1969): ``hi * 2^(1...16)`` until the target is
bracketed, then 8 uniform interior points of the bracket, which alone
shrink it at least 9x, and 16 at the secant estimate (Brent, 1973,
ch. 4) plus and minus ``w * 10^-j``, ``j = 1...8``, for the width ``w``.
Each point is classified by ``f(x) < target`` itself, so the bracket
holds whatever the estimate; on smooth ``f`` a norm takes about six calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketError

_EXPANSION = 2.0 ** np.arange(1, 17)
# width fractions from lo: the grid, then the offsets from the secant fraction
_STEP = np.concatenate((np.arange(1, 9) / 9.0, -(10.0 ** -np.arange(1, 9)),
                        10.0 ** -np.arange(1, 9)))
_IN_CLUSTER = (np.arange(24) >= 8) * 1.0


def solve_monotone(f, target, lo=0.0, hi=None, rel_tol=1e-12):
    """Solve ``f(x) = target`` for nondecreasing ``f`` on ``[lo, inf)``.

    ``f`` maps a 1D float array to an array of its shape (``inf`` is above
    any target).  The first call takes ``lo``, ``hi`` (default ``max(1, 2*lo)``)
    and ``hi * 2^(1...16)``.  Returns the midpoint, a float, of the final
    bracket ``f(lo) < target <= f(hi)`` of relative width ``rel_tol``.
    Raises ``BracketError`` on a NaN, on ``f(lo) > target`` or with no bracket.
    """
    def g(x):
        y = np.asarray(f(x), float)
        if np.isnan(y).any():
            raise BracketError(
                f"f({float(x[np.isnan(y)][0])!r}) is NaN while solving for {target!r}")
        return y

    hi = max(1.0, 2.0 * lo) if hi is None else hi
    with np.errstate(over="ignore"):
        x = np.concatenate(((lo, hi), hi * _EXPANSION))
        x = x[x < math.inf]
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
            # the secant fraction, 0 when an end is infinite
            t = (target - flo) / (fhi - flo) if fhi - flo < math.inf else 0.0
            x = lo + width * (_STEP + t * _IN_CLUSTER)
            # into the open bracket (np.clip costs twice as much)
            np.minimum(np.maximum(x, math.nextafter(lo, hi), out=x),
                       math.nextafter(hi, lo), out=x)
            x.sort()
            y = g(x)
