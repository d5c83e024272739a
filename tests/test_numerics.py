"""The one root finder, ``numerics.solve_monotone``, and the solves on it.

Oracles: the final bracket is rebuilt from the points the solver
evaluated (the largest point below the target and the smallest at or
above it), so its width and the bracketing are checked on ``f`` itself;
a plain bisection written here gives the evaluation count to compare
with; closed-form roots, and closed-form ``PowerYoung`` inverses and
norms; and scipy's bounded Brent minimiser of the averaged-norm
objective, ``test_norms._reference_orlicz``.
"""

import math

import numpy as np
import pytest

from orliczval.errors import BracketError
from orliczval.norms import luxemburg_norm, orlicz_norm
from orliczval.numerics import solve_monotone
from orliczval.young import DensityYoung, ExpYoung, LogYoung, PowerYoung

from test_norms import _reference_orlicz, _shells

REL_TOL = 1e-12


def _solve(f, target, **kw):
    """The answer, the evaluation count and the final bracket of a solve."""
    seen = []

    def counted(x):
        y = f(x)
        seen.append((x, y))
        return y

    x = solve_monotone(counted, target, rel_tol=REL_TOL, **kw)
    lo = max(p for p, y in seen if y < target)
    hi = min(p for p, y in seen if y >= target)
    return x, len(seen), lo, hi


def _bisection_count(f, target, lo=0.0, hi=None):
    """Evaluations of the same bracket expansion followed by plain bisection."""
    n = 1
    hi = max(1.0, 2.0 * lo) if hi is None else hi
    n += 1
    while f(hi) < target:
        lo, hi = hi, 2.0 * hi
        n += 1
    while hi - lo > REL_TOL * max(abs(hi), 1e-300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        n += 1
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return n


def _check_bracket(f, target, **kw):
    x, n, lo, hi = _solve(f, target, **kw)
    assert f(lo) < target <= f(hi)
    assert hi - lo <= REL_TOL * abs(hi)
    assert x == 0.5 * (lo + hi)
    return x, n


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 7.0, 20.0, 50.0])
def test_smooth_roots_in_few_evaluations(p):
    for target in (0.05, 0.5, 0.9):
        x, n = _check_bracket(lambda t: t ** p, target)
        assert math.isclose(x, target ** (1.0 / p), rel_tol=REL_TOL)
        assert n <= 20, (target, n)
    for target in (0.5, 2.0, 1e3):
        x, n = _check_bracket(math.exp, target, lo=-50.0)
        assert math.isclose(x, math.log(target), rel_tol=REL_TOL)
        assert n <= 20, (target, n)


@pytest.mark.parametrize("p", [1.01, 2.0, 50.0])
def test_wide_brackets_within_three_times_bisection(p):
    # targets from 1e-300 to 1e300, bracketed by up to a thousand doublings;
    # a root far below the first bracket's top is where interpolation stalls
    for target in (1e-300, 1e-100, 1e-3, 7.0, 1e100, 1e300):
        def f(t):
            return t ** p if t < 1e300 ** (1.0 / p) else math.inf
        x, n = _check_bracket(f, target)
        assert math.isclose(x, target ** (1.0 / p), rel_tol=REL_TOL)
        assert n <= 3 * _bisection_count(f, target), (target, n)


def _adversaries():
    for a in (1e-9, 0.013, 0.11, 0.37, math.pi / 10.0, 0.5, 0.77, 0.999):
        yield pytest.param((lambda a: lambda t: 0.0 if t < a else 1.0)(a), 0.5,
                           id=f"step at {a:.4g}")
        yield pytest.param((lambda a: lambda t: t if t < a else math.inf)(a), 0.999 * a,
                           id=f"inf from {a:.4g}")
        # flat at the target from a to 1.5: the root is the plateau's left end
        yield pytest.param((lambda a: lambda t: min(t, a) if t < 1.5 else t)(a), a,
                           id=f"flat from {a:.4g}")


@pytest.mark.parametrize("f,target", list(_adversaries()))
def test_adversarial_functions_cost_at_most_a_few_steps_over_bisection(f, target):
    _check_bracket(f, target)
    assert _solve(f, target)[1] <= _bisection_count(f, target) + 8


def test_lower_end_past_the_target_raises():
    with pytest.raises(BracketError, match="lower end"):
        solve_monotone(lambda t: t + 1.0, 0.5)


def test_nan_raises_bracket_error_in_every_phase():
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: math.nan, 1.0)
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: t if t < 4.0 else math.nan, 100.0)
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: t * t if t < 0.3 or t >= 0.8 else math.nan, 0.25)
    with pytest.raises(BracketError, match="no bracket"):
        solve_monotone(lambda t: 0.0, 1.0)


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 7.0, 20.0, 50.0])
def test_power_inverse_matches_the_closed_form(p):
    for scale in (0.3, 1.0, 5.0):
        phi = PowerYoung(p, scale)
        for y in (1e-30, 1e-6, 0.2, 1.0, 7.0, 1e6, 1e30):
            want = (p * y / scale) ** (1.0 / p)
            assert math.isclose(phi.inverse(y), want, rel_tol=1e-12), (scale, y)


def test_norms_match_closed_forms_and_the_brent_reference():
    rng = np.random.default_rng(12)
    for case in range(60):
        n = int(rng.integers(1, 8))
        vals = 10.0 ** rng.uniform(-3.0, 3.0, n)
        mus = 10.0 ** rng.uniform(-4.0, 3.0, n)
        h = _shells(vals, mus)
        mus = np.array([r.weighted_measure().value for _, r in h.terms])
        p, scale = rng.uniform(1.05, 6.0), rng.uniform(0.3, 3.0)
        phi = PowerYoung(p, scale)
        # modular(k h) = A k^p: the gauge norm is A^(1/p), the averaged
        # norm p/(p-1) (A (p-1))^(1/p) at k^p = 1 / (A (p-1))
        a = scale * float(np.sum(mus * vals ** p)) / p
        assert math.isclose(luxemburg_norm(phi, h, rel_tol=REL_TOL), a ** (1.0 / p),
                            rel_tol=1e-12), case
        assert math.isclose(orlicz_norm(phi, h), p / (p - 1.0) * (a * (p - 1.0)) ** (1.0 / p),
                            rel_tol=1e-12), case
        other = (ExpYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
                 LogYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
                 DensityYoung(np.column_stack((
                     np.linspace(0.0, 3.0, 7),
                     np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, 6))))))))[case % 3]
        assert math.isclose(orlicz_norm(other, h), _reference_orlicz(other, h),
                            rel_tol=1e-12), (case, other)
