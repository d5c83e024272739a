"""The one root finder, ``numerics.solve_monotone``, and the solves on it.

Oracles: the final bracket is rebuilt from the points the solver
evaluated (the largest point below the target and the smallest at or
above it), so its width and the bracketing are checked on ``f`` itself,
and so is the shrink of every narrowing call; a plain bisection written
here gives the evaluation count to compare the call count with;
closed-form roots, and closed-form ``PowerYoung`` inverses and norms;
and scipy's bounded Brent minimiser of the averaged-norm objective,
``test_norms._reference_orlicz``.

``solve_monotone`` calls ``f`` on arrays, so every function here is an
array form: ``np.exp``, powers, and ``np.where`` adversaries.
"""

import math

import numpy as np
import pytest

from orliczval import norms
from orliczval.errors import BracketError
from orliczval.norms import luxemburg_norm, orlicz_norm
from orliczval.numerics import solve_monotone
from orliczval.young import DensityYoung, ExpYoung, LogYoung, PowerYoung

from test_norms import _reference_orlicz, _shells

REL_TOL = 1e-12


def _solve(f, target, **kw):
    """The answer, the calls as (points, values) pairs, and the final bracket."""
    calls = []

    def counted(x):
        y = f(x)
        calls.append((np.array(x), np.array(y)))
        return y

    x = solve_monotone(counted, target, rel_tol=REL_TOL, **kw)
    xs = np.concatenate([p for p, _ in calls])
    ys = np.concatenate([y for _, y in calls])
    return x, calls, xs[ys < target].max(), xs[ys >= target].min()


def _bisection_count(f, target, lo=0.0, hi=None):
    """Scalar evaluations of the same bracket expansion followed by plain bisection."""
    def f1(x):
        with np.errstate(over="ignore"):
            return float(f(np.array([x]))[0])

    n = 1
    hi = max(1.0, 2.0 * lo) if hi is None else hi
    n += 1
    while f1(hi) < target:
        lo, hi = hi, 2.0 * hi
        n += 1
    while hi - lo > REL_TOL * max(abs(hi), 1e-300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        n += 1
        if f1(mid) < target:
            lo = mid
        else:
            hi = mid
    return n


def _check_bracket(f, target, **kw):
    x, calls, lo, hi = _solve(f, target, **kw)
    with np.errstate(over="ignore"):
        assert f(np.array([lo]))[0] < target <= f(np.array([hi]))[0]
    assert hi - lo <= REL_TOL * abs(hi)
    assert type(x) is float and x == 0.5 * (lo + hi)
    return x, len(calls)


def _power(p):
    return lambda t: t ** p


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 7.0, 20.0, 50.0])
def test_smooth_roots_in_few_calls(p):
    for target in (0.05, 0.5, 0.9):
        x, n = _check_bracket(_power(p), target)
        assert math.isclose(x, target ** (1.0 / p), rel_tol=REL_TOL)
        assert n <= 6, (target, n)
    for target in (0.5, 2.0, 1e3):
        x, n = _check_bracket(np.exp, target, lo=-50.0)
        assert math.isclose(x, math.log(target), rel_tol=REL_TOL)
        assert n <= 6, (target, n)


def _capped_power(p):
    # t^p up to 1e300, inf beyond
    return lambda t: np.where(t < 1e300 ** (1.0 / p), t ** p, math.inf)


@pytest.mark.parametrize("p", [1.01, 2.0, 50.0])
def test_wide_brackets_within_bisection(p):
    # targets from 1e-300 to 1e300, bracketed by up to a thousand
    # doublings, and roots far below the first bracket's top
    f = _capped_power(p)
    for target in (1e-300, 1e-100, 1e-3, 7.0, 1e100, 1e300):
        x, n = _check_bracket(f, target)
        assert math.isclose(x, target ** (1.0 / p), rel_tol=REL_TOL)
        assert n <= _bisection_count(f, target), (target, n)


def _adversaries():
    for a in (1e-9, 0.013, 0.11, 0.37, math.pi / 10.0, 0.5, 0.77, 0.999):
        yield pytest.param((lambda a: lambda t: np.where(t < a, 0.0, 1.0))(a), 0.5,
                           id=f"step at {a:.4g}")
        yield pytest.param((lambda a: lambda t: np.where(t < a, t, math.inf))(a), 0.999 * a,
                           id=f"inf from {a:.4g}")
        # flat at the target from a to 1.5: the root is the plateau's left end
        yield pytest.param((lambda a: lambda t: np.where(t < 1.5, np.minimum(t, a), t))(a), a,
                           id=f"flat from {a:.4g}")


@pytest.mark.parametrize("f,target", list(_adversaries()))
def test_adversarial_functions_cost_at_most_bisection(f, target):
    _, n = _check_bracket(f, target)
    assert n <= _bisection_count(f, target)


def _smooth_and_adversaries():
    for p in (1.01, 2.0, 50.0):
        for target in (1e-300, 0.5, 1e300):
            yield pytest.param(_capped_power(p), target, id=f"t^{p} = {target:g}")
    yield from _adversaries()


@pytest.mark.parametrize("f,target", list(_smooth_and_adversaries()))
def test_every_narrowing_call_shrinks_the_bracket_ninefold(f, target):
    # a narrowing call evaluates inside the bracket the calls before it
    # left; its grid's widest gap is a ninth of that, up to rounding
    _, calls, _, _ = _solve(f, target)
    lo, hi = -math.inf, math.inf
    narrowing = 0
    for x, y in calls:
        width = hi - lo
        inside = hi < math.inf and lo < x.min() and x.max() < hi
        lo = max(lo, x[y < target].max(initial=-math.inf))
        hi = min(hi, x[y >= target].min(initial=math.inf))
        if inside:
            assert hi - lo <= width / 9.0 + 4.0 * math.ulp(hi), (width, hi - lo)
            narrowing += 1
    assert narrowing >= 1


def test_lower_end_past_the_target_raises():
    with pytest.raises(BracketError, match="lower end"):
        solve_monotone(lambda t: t + 1.0, 0.5)


def test_a_target_that_is_not_finite_raises():
    # an infinite target would return the edge where f overflows
    for target in (math.inf, -math.inf, math.nan):
        with pytest.raises(BracketError, match="not finite"):
            solve_monotone(lambda t: t * t, target)


def test_nan_raises_bracket_error_in_every_phase():
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: np.full_like(t, math.nan), 1.0)
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: np.where(t < 4.0, t, math.nan), 1e6)
    with pytest.raises(BracketError, match="NaN"):
        solve_monotone(lambda t: np.where((t < 0.3) | (t >= 0.8), t * t, math.nan), 0.25)
    with pytest.raises(BracketError, match="no bracket"):
        solve_monotone(np.zeros_like, 1.0)


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


def _gauges(rng):
    """One seeded gauge of each family."""
    return (PowerYoung(rng.uniform(1.05, 6.0), rng.uniform(0.3, 3.0)),
            ExpYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
            LogYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
            DensityYoung(np.column_stack((
                np.linspace(0.0, 3.0, 7),
                np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, 6))))))))


def _seeded_solve_counts(cases=70, seed=2024):
    """Points of each call of every solve in ``cases`` rounds of the two
    norms of 1-3 atoms and one inverse, for each gauge family.

    The two norms and the inverse are posed to the solver directly, as
    their root solves, since each returns a certified closed form first
    wherever it can and would then reach the solver on only some cases.
    """
    record = []

    def counted(f, target, **kw):
        calls = []

        def g(x):
            calls.append(len(x))
            return f(x)

        record.append(calls)
        return solve_monotone(g, target, **kw)

    rng = np.random.default_rng(seed)
    for _ in range(cases):
        for phi in _gauges(rng):
            n = int(rng.integers(1, 4))
            h = _shells(10.0 ** rng.uniform(-3.0, 3.0, n), 10.0 ** rng.uniform(-4.0, 3.0, n))
            vals, mus = norms._atoms(h, 1e-9)
            counted(lambda u: norms._weighted_sum(phi.eval, u, vals, mus), 1.0,
                    lo=0.0, hi=1.0 / float(vals[-1]), rel_tol=1e-10)
            counted(norms._conjugate_modular(phi, vals, mus), 1.0,
                    lo=0.0, hi=1.0 / float(vals[-1]), rel_tol=1e-12)
            counted(phi.eval, 10.0 ** rng.uniform(-6.0, 6.0), lo=0.0, rel_tol=1e-12)
    return record


def test_seeded_norm_and_inverse_solves_take_about_four_calls():
    """840 solves: at most 4.2 calls on average and 6 in all, and no more
    points than the solver before inverse interpolation.

    That solver (a secant estimate, 18 points in its first call and 24 in
    each after) took 5.52 calls and 126.5 points per solve on this set,
    and up to 7 calls; this one takes 3.93 calls and 91.7 points, and up
    to 5 calls.
    """
    record = _seeded_solve_counts()
    calls = np.array([len(c) for c in record])
    points = np.array([sum(c) for c in record])
    assert len(record) == 840
    assert calls.mean() <= 4.2 and calls.max() <= 6, (calls.mean(), calls.max())
    assert points.mean() <= 126.5, points.mean()
