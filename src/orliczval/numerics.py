"""Root finding.

Every one-dimensional solve in the package goes through
:func:`solve_monotone`: a bracket found by geometric expansion (factor
2), then narrowed by safeguarded false position to relative width
``1e-12``.  Both norms and the inverse of a Young function are monotone
root problems.

The narrowing step is the Illinois rule (Dowell & Jarratt, BIT 11,
1971): the secant through the two bracket ends, with the residual at an
end that was kept twice in a row halved, so neither end sticks.  On
smooth functions it converges superlinearly, in about a dozen
evaluations where bisection takes forty.  Three safeguards bound the
rest:

* a step never comes closer to a bracket end than a quarter of the
  target width, so a one-sided approach ends with one step across the
  root;
* whenever two interpolation steps have not halved the bracket, the
  next step bisects, so the bracket halves at least every third step
  and a solve takes at most about three times bisection's count;
* an end with no slope to offer (an infinite residual, or a second
  exact hit of the target, which marks a plateau) makes the step bisect.
"""

from __future__ import annotations

import math

from .errors import BracketError

_REL_TOL = 1e-12
_EXPANSION = 2.0
_MAX_EXPANSIONS = 2000


def solve_monotone(f, target, lo=0.0, hi=None, rel_tol=_REL_TOL):
    """Solve ``f(x) = target`` for nondecreasing ``f`` on ``[lo, inf)``.

    The upper bracket end is expanded geometrically (factor 2) from
    ``hi`` (default ``max(1, 2*lo)``) until the target is enclosed, so
    that ``f(lo) < target <= f(hi)``.  The bracket is then narrowed by
    the safeguarded Illinois step of the module docstring down to
    relative width ``rel_tol``: superlinear on smooth ``f``, and at most
    about three times bisection's count of steps on any ``f``.

    Parameters
    ----------
    f : callable
        Nondecreasing function of one float argument.  ``inf`` return
        values are tolerated and treated as larger than any target.
    target : float
        Right-hand side.
    lo : float
        Lower end of the search interval; ``f(lo)`` must not exceed
        ``target``.
    hi : float, optional
        Initial upper end for the expansion phase.
    rel_tol : float
        Relative width of the final bracket.

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
    def g(x):
        y = f(x)
        if math.isnan(y):
            raise BracketError(f"f({x!r}) is NaN while solving for {target!r}")
        return y

    flo = g(lo)
    if flo > target:
        raise BracketError(
            f"lower end does not bracket: f({lo!r}) = {flo!r} "
            f"already past target {target!r}"
        )
    if hi is None:
        hi = max(1.0, 2.0 * lo)
    fhi = g(hi)
    n = 0
    while fhi < target:
        lo, flo = hi, fhi
        hi *= _EXPANSION
        fhi = g(hi)
        n += 1
        if n > _MAX_EXPANSIONS or not math.isfinite(hi):
            raise BracketError(
                f"no bracket after {n} expansions: f({hi!r}) = {fhi!r}, "
                f"target {target!r}"
            )
    # residuals at the ends, ``moved`` the end the last step replaced
    # (+1 lo, -1 hi), ``hits`` the exact hits of the target so far
    rlo, rhi = flo - target, fhi - target
    moved, hits = 0, int(rhi == 0.0)
    # the bracket width two interpolation steps ago, and the steps since
    ref, steps = hi - lo, 0
    while True:
        width = hi - lo
        tol = rel_tol * max(abs(hi), 1e-300)
        mid = 0.5 * (lo + hi)
        if width <= tol or mid <= lo or mid >= hi:
            break
        stalled = steps == 2 and width > 0.5 * ref
        if steps == 2:
            ref, steps = width, 0
        t = rlo / (rlo - rhi) if rlo < rhi else 0.0
        if stalled or not 0.0 < t <= 1.0 or (rhi == 0.0 and hits > 1):
            x = mid
        else:
            x = min(max(lo + t * width, lo + 0.25 * tol), hi - 0.25 * tol)
            steps += 1
        y = g(x) - target
        if y < 0.0:
            lo, rlo = x, y
            if moved > 0:
                rhi *= 0.5
            moved = 1
        else:
            hi, rhi = x, y
            hits += y == 0.0
            if moved < 0:
                rlo *= 0.5
            moved = -1
    return 0.5 * (lo + hi)
