"""Root finding.

Every one-dimensional solve in the package goes through
:func:`solve_monotone`: bracketing bisection with relative tolerance
``1e-12`` and geometric bracket expansion by a factor of 2.  Both norms
and the inverse of a Young function are monotone root problems.
"""

from __future__ import annotations

import math

from .errors import BracketError

_REL_TOL = 1e-12
_EXPANSION = 2.0
_MAX_EXPANSIONS = 2000


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

