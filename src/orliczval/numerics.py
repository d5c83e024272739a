"""Root finding and one-dimensional minimisation.

All root finding in the package goes through :func:`solve_monotone`:
bracketing bisection with relative tolerance ``1e-12`` and geometric
bracket expansion by a factor of 2.  One-dimensional minimisation of
unimodal objectives goes through :func:`minimize_unimodal`, a golden
section search on the logarithmic axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketError

_REL_TOL = 1e-12
_EXPANSION = 2.0
_MAX_EXPANSIONS = 2000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_monotone(f, target, lo=0.0, hi=None, rel_tol=_REL_TOL, increasing=True):
    """Solve ``f(x) = target`` for monotone ``f`` on ``[lo, inf)``.

    The upper bracket end is expanded geometrically (factor 2) from
    ``hi`` (default ``max(1, 2*lo)``) until the target is enclosed, then
    the interval is bisected down to relative width ``rel_tol``.

    Parameters
    ----------
    f : callable
        Monotone function of one float argument.  ``inf`` return values
        are tolerated and treated as larger than any target.
    target : float
        Right-hand side.
    lo : float
        Lower end of the search interval; ``f(lo)`` must lie on the
        correct side of ``target``.
    hi : float, optional
        Initial upper end for the expansion phase.
    rel_tol : float
        Relative width of the final bracket.
    increasing : bool
        Direction of monotonicity.

    Returns
    -------
    float
        Midpoint of the final bracket.

    Raises
    ------
    BracketError
        If the target cannot be enclosed after repeated expansion, with
        the last bracket and function values in the message.
    """
    sign = 1.0 if increasing else -1.0

    def g(x):
        y = f(x)
        if math.isnan(y):
            raise BracketError(f"f({x!r}) is NaN while solving for {target!r}")
        return sign * y

    goal = sign * target
    flo = g(lo)
    if flo > goal:
        raise BracketError(
            f"lower end does not bracket: f({lo!r}) = {sign * flo!r} "
            f"already past target {target!r}"
        )
    if hi is None:
        hi = max(1.0, 2.0 * lo)
    fhi = g(hi)
    n = 0
    while fhi < goal:
        lo, flo = hi, fhi
        hi *= _EXPANSION
        fhi = g(hi)
        n += 1
        if n > _MAX_EXPANSIONS or not math.isfinite(hi):
            raise BracketError(
                f"no bracket after {n} expansions: f({hi!r}) = {sign * fhi!r}, "
                f"target {target!r}"
            )
    while hi - lo > rel_tol * max(abs(hi), 1e-300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < goal:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minimize_unimodal(f, rel_tol=1e-12, k0=1.0, span=2.0 ** 60):
    """Minimise a unimodal ``f`` over ``(0, inf)``.

    A coarse geometric scan locates a three-point bracket around the
    minimiser, which golden-section search then shrinks to relative
    width ``rel_tol``.  Works on the log axis, so the tolerance is
    relative to the minimiser.

    Returns ``(argmin, min_value)``.
    """
    lo, hi = k0 / span, k0 * span
    ulo, uhi = math.log(lo), math.log(hi)
    m = max(int((uhi - ulo) / math.log(2.0)), 8)
    us = np.linspace(ulo, uhi, m + 1)
    vals = [f(math.exp(u)) for u in us]
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        raise BracketError("objective not finite anywhere on the scan grid")
    if i == 0 or i == m:
        raise BracketError(
            f"minimiser at scan edge k = {math.exp(us[i])!r}; widen the span"
        )
    a, b = us[i - 1], us[i + 1]
    # Golden-section on [a, b] in log space.
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(math.exp(x1)), f(math.exp(x2))
    while b - a > rel_tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(math.exp(x2))
    k = math.exp(0.5 * (a + b))
    return k, f(k)
