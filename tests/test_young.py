"""Young-function families: conjugation, duality, doubling, growth."""

import inspect
import math

import numpy as np
import pytest

from orliczval.errors import CapabilityError, DomainError
from orliczval.numerics import _certifies, solve_monotone
from orliczval.young import (
    ConjugatePair,
    DensityYoung,
    ExpYoung,
    LogYoung,
    PowerYoung,
    delta2_report,
    limit_report,
    _expm1_minus,
    young_from_json,
)


def legendre_transform(phi, t, iters=220):
    """Numeric conjugate sup_{s >= 0} (s*t - phi(s)).

    Independent oracle: uses only phi.eval, brackets the concave
    objective by doubling, then ternary search.
    """

    def obj(s):
        return s * t - phi.eval(s)

    hi = 1.0
    while obj(2.0 * hi) > obj(hi):
        hi *= 2.0
        if hi > 1e300:
            raise AssertionError("legendre oracle failed to bracket")
    a, b = 0.0, 2.0 * hi
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if obj(m1) < obj(m2):
            a = m1
        else:
            b = m2
    return obj(0.5 * (a + b))


def _close(a, b, tol=1e-8):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_power_conjugate_is_holder_partner():
    phi = PowerYoung(3.0)
    star = phi.conjugate()
    assert isinstance(star, PowerYoung)
    assert star.p == 1.5
    assert star.scale == 1.0


def test_conjugates_match_legendre_oracle():
    # log-type conjugates grow exponentially, so their oracle grid must
    # stop while the maximiser exp(t)-ish is still representable
    families = [
        (PowerYoung(1.5), 1e3), (PowerYoung(2.0), 1e3),
        (PowerYoung(3.0), 1e3), (PowerYoung(5.0), 1e3),
        (PowerYoung(2.0, scale=0.7), 1e3),
        (ExpYoung(), 1e3), (ExpYoung(scale=2.0, rate=0.5), 1e3),
        (LogYoung(), 1e2), (LogYoung(scale=0.5, rate=2.0), 1e2),
    ]
    for phi, t_max in families:
        star = phi.conjugate()
        for t in np.geomspace(1e-3, t_max, 25):
            want = legendre_transform(phi, float(t))
            got = star.eval(float(t))
            assert _close(got, want), (phi, t, got, want)


def test_exp_conjugate_closed_form():
    star = ExpYoung().conjugate()
    assert isinstance(star, LogYoung)
    # (1 + t)*log(1 + t) - t at t = 1, cross-checked against the oracle.
    want = 2.0 * math.log(2.0) - 1.0
    assert abs(star.eval(1.0) - want) < 1e-15
    assert abs(legendre_transform(ExpYoung(), 1.0) - want) < 1e-10
    assert star.eval(0.0) == 0.0


def test_exp_and_log_families_keep_full_precision_at_small_arguments():
    # expm1(u) - u and (1 + u) log1p(u) - u cancel as u -> 0; the reference
    # carries enough digits to resolve u**2 next to u
    mp = pytest.importorskip("mpmath")
    us = np.geomspace(1e-300, 1e2, 601)
    cases = ((ExpYoung(), lambda u: mp.expm1(u) - u),
             (LogYoung(), lambda u: (1 + u) * mp.log1p(u) - u))
    for phi, exact in cases:
        want = []
        for u in us:
            with mp.workdps(40 + 2 * max(0, -int(math.log10(u)))):
                want.append(float(exact(mp.mpf(float(u)))))
        want = np.array(want)
        got = phi.eval(us)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got[normal] / want[normal] - 1.0) <= 1e-15), phi
        # u**2/2 underflows below about 1e-154: zero or a subnormal there
        assert np.all(np.abs(got[~normal] - want[~normal]) <= 4.0 * np.finfo(float).smallest_subnormal)
        assert [phi.eval(float(u)) for u in us[::50]] == got[::50].tolist()


def test_expm1_minus_is_within_four_ulp_of_mpmath():
    # the hot path of both exponential families: a few thousand points in
    # [-1, 1], where the series is summed, and geometric points on both
    # sides out to where expm1 overflows (about 709.78)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    far = np.geomspace(1.0, 709.78, 400)
    xs = np.concatenate((rng.uniform(-1.0, 1.0, 3000), [-1.0, -0.5, 0.5, 1.0], far, -far))
    with mp.workdps(60):
        want = np.array([float(mp.expm1(mp.mpf(x)) - x) for x in xs.tolist()])
    got = _expm1_minus(xs)
    ulps = np.abs(got - want) / np.spacing(want)
    assert ulps.max() <= 4.0, xs[np.argmax(ulps)]
    assert [float(_expm1_minus(x)) for x in xs[::97]] == got[::97].tolist()
    # inf where expm1 overflows, also next to a point of the series
    over = np.array([709.79, 710.0, 1e3, 1e300])
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(np.expm1(over)))
    assert np.all(_expm1_minus(over) == math.inf)
    assert _expm1_minus(np.array([0.5, 710.0])).tolist() == [got[3002], math.inf]


def test_young_gap_nonnegative_and_tight_at_density():
    for phi in (PowerYoung(2.0), PowerYoung(3.5), ExpYoung(), LogYoung()):
        pair = ConjugatePair(phi)
        for s in np.geomspace(1e-4, 50.0, 40):
            t_eq = phi.density(float(s))
            scale = max(1.0, phi.eval(float(s)), pair.phi_star.eval(t_eq))
            assert abs(pair.gap(float(s), t_eq)) <= 1e-10 * scale
            for t in (0.3 * t_eq, 3.0 * t_eq + 1.0):
                sc = max(1.0, phi.eval(float(s)), pair.phi_star.eval(t))
                assert pair.gap(float(s), t) >= -1e-12 * sc
        report = pair.check(np.geomspace(1e-3, 10.0, 15))
        assert report["ok"], report


def test_young_gap_helper():
    pair = ConjugatePair(PowerYoung(2.0))
    assert pair.gap(3.0, 3.0) == 0.0
    assert pair.gap(3.0, 5.0) > 0.0


def test_biconjugation_is_identity():
    for phi in (PowerYoung(3.0), ExpYoung(), LogYoung(scale=2.0, rate=0.25)):
        back = phi.conjugate().conjugate()
        assert back == phi
    phi = PowerYoung(2.5, scale=0.3)
    back = phi.conjugate().conjugate()
    assert back.p == pytest.approx(2.5, abs=1e-14)
    assert back.scale == pytest.approx(0.3, rel=1e-14)


def test_density_family_tracks_power():
    s = np.linspace(0.0, 4.0, 2001)
    phi = DensityYoung(np.column_stack((s, s ** 2)))
    ref = PowerYoung(3.0)
    for t in (0.1, 0.77, 2.0, 3.7):
        assert abs(phi.eval(t) - ref.eval(t)) < 1e-5
    # beyond the last sample the density continues linearly
    assert phi.density(5.0) == pytest.approx(16.0 + phi.tail_slope * 1.0)
    assert phi.eval(5.0) > phi.eval(4.0)


def test_density_eval_is_exact_piecewise():
    # a hand-sized table where the segment integrals are dyadic
    table = [(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)]
    phi = DensityYoung(table, tail_slope=2.0)
    assert phi.eval(0.0) == 0.0
    assert phi.eval(1.0) == 1.0            # triangle: 1*2/2
    assert phi.eval(3.0) == 1.0 + 6.0      # trapezoid: (2+4)/2*2
    assert phi.eval(5.0) == 7.0 + 4.0 * 2.0 + 0.5 * 2.0 * 4.0
    assert phi.density(2.0) == 3.0


def test_density_conjugate_swaps_samples_and_is_involutive():
    rng = np.random.default_rng(7)
    s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, 12))))
    d = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.8, 12))))
    phi = DensityYoung(np.column_stack((s, d)), tail_slope=2.0)
    star = phi.conjugate()
    assert np.array_equal(star.samples[:, 0], d)
    assert np.array_equal(star.samples[:, 1], s)
    assert star.tail_slope == 0.5
    back = star.conjugate()
    assert np.array_equal(back.samples, phi.samples)
    assert back.tail_slope == phi.tail_slope


def test_density_conjugate_matches_legendre_oracle():
    s = np.linspace(0.0, 6.0, 400)
    phi = DensityYoung(np.column_stack((s, s ** 1.5)))
    star = phi.conjugate()
    for t in (0.3, 1.0, 4.7, 11.0):
        assert _close(star.eval(t), legendre_transform(phi, t), 1e-9)


def test_flat_density_segment_blocks_conjugation():
    phi = DensityYoung([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0)])
    with pytest.raises(CapabilityError):
        phi.conjugate()


def test_density_texts_print_plain_floats():
    with pytest.raises(CapabilityError) as info:
        DensityYoung([[0, 0], [1, 0], [2, 1]]).conjugate()
    assert str(info.value) == (
        "density grid too coarse to invert: flat segment at s in [0.0, 1.0] "
        "(value 0.0); refine the samples so the density increases strictly")
    assert repr(DensityYoung([[0, 0], [1, 1]])) == (
        "DensityYoung(<2 samples on [0, 1.0]>, tail_slope=1.0)")


def test_density_validation():
    with pytest.raises(DomainError):
        DensityYoung([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])   # decreasing
    with pytest.raises(DomainError):
        DensityYoung([(0.5, 0.0), (1.0, 1.0)])               # s0 != 0
    with pytest.raises(DomainError):
        DensityYoung([(0.0, 0.5), (1.0, 1.0)])               # d0 != 0
    with pytest.raises(DomainError):
        DensityYoung([(0.0, 0.0), (1.0, 1.0)], tail_slope=0.0)
    with pytest.raises(DomainError):
        PowerYoung(1.0)
    with pytest.raises(DomainError):
        ExpYoung(scale=-1.0)


def test_every_parameter_must_be_positive_and_finite():
    # NaN fails every comparison, so only a test of `0 < x < inf` (or
    # `1 < p < inf`) turns away both NaN and inf
    for bad in (math.nan, math.inf):
        for make in (lambda x: PowerYoung(x), lambda x: PowerYoung(2.0, x),
                     lambda x: ExpYoung(x), lambda x: ExpYoung(1.0, x),
                     lambda x: LogYoung(x), lambda x: LogYoung(1.0, x),
                     lambda x: DensityYoung([(0.0, 0.0), (1.0, 1.0)], tail_slope=x),
                     lambda x: young_from_json({"family": "exp", "params": {"rate": x}})):
            with pytest.raises(DomainError, match="finite"):
                make(bad)


def test_delta2_power_is_exact():
    report = delta2_report(PowerYoung(3.0))
    assert report == {
        "holds": True, "kind": "exact", "constant": 8.0, "threshold": 0.0,
        "sup_ratio": 8.0, "witness_t": None, "tail_growing": False,
    }
    assert delta2_report(PowerYoung(2.0, scale=5.0))["constant"] == 4.0


def test_delta2_exp_fails_on_grid():
    report = delta2_report(ExpYoung())
    assert not report["holds"]
    assert report["kind"] == "grid"
    assert report["sup_ratio"] > 1e19
    assert report["witness_t"] == pytest.approx(50.0)
    assert report["tail_growing"]


def test_both_reports_take_only_the_gauge():
    for report in (delta2_report, limit_report):
        assert list(inspect.signature(report).parameters) == ["phi"], report
        with pytest.raises(TypeError):
            report(ExpYoung(), t_max=50.0)


def test_delta2_density_family_holds_on_grid():
    s = np.linspace(0.0, 8.0, 200)
    phi = DensityYoung(np.column_stack((s, s ** 2)))
    report = delta2_report(phi)
    assert report["holds"] and report["kind"] == "grid"
    assert report["sup_ratio"] < 10.0


def test_limit_report_hits_thresholds():
    for phi in (PowerYoung(1.5), PowerYoung(2.0), PowerYoung(5.0), ExpYoung()):
        rep = limit_report(phi)
        assert rep["ratio_exceeds_1e6"], (phi, rep)
        assert rep["ratio_monotone_up"]
        assert rep["inverse_ratio_below_1e-6"], (phi, rep)
        assert rep["inverse_ratio_monotone_down"]
    rep = limit_report(LogYoung())
    assert rep["ratio_monotone_up"] and rep["inverse_ratio_monotone_down"]


def test_inverse_round_trip():
    for phi in (PowerYoung(1.5), PowerYoung(4.0), ExpYoung(), LogYoung(),
                DensityYoung([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])):
        for t in (1e-3, 0.5, 1.0, 17.5):
            y = phi.eval(t)
            assert phi.inverse(y) == pytest.approx(t, rel=1e-9)
    assert PowerYoung(2.0).inverse(0.0) == 0.0


def test_negative_arguments_rejected():
    phi = PowerYoung(2.0)
    with pytest.raises(DomainError):
        phi.eval(-1.0)
    with pytest.raises(DomainError):
        phi.density(np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        phi.inverse(-2.0)


def test_nan_arguments_rejected():
    for phi in (PowerYoung(2.0), ExpYoung(), LogYoung(),
                DensityYoung([(0.0, 0.0), (1.0, 1.0)])):
        for f in (phi.eval, phi.density):
            with pytest.raises(DomainError):
                f(math.nan)
            with pytest.raises(DomainError):
                f(np.array([1.0, math.nan]))


def test_power_overflow_is_inf_without_a_warning():
    # the suite turns RuntimeWarnings into errors (see pyproject.toml)
    assert PowerYoung(1e308).eval(2.0) == math.inf
    assert PowerYoung(1e308).density(2.0) == math.inf


def test_power_gauge_is_finite_wherever_its_value_is():
    # t**p overflowing before the scaling must not make phi infinite
    assert PowerYoung(2.0).eval(1.4e154) == pytest.approx(9.8e307, rel=1e-15)
    assert PowerYoung(3.0, 1e-20).density(1e160) == pytest.approx(1e300, rel=1e-15)
    both = PowerYoung(2.0).eval(np.array([2.0, 1.4e154, 2e154, math.inf]))
    assert both[0] == 2.0 and both[1] == pytest.approx(9.8e307, rel=1e-15)
    assert both[2:].tolist() == [math.inf, math.inf]
    assert math.isclose(PowerYoung(2.0).inverse(1e308), math.sqrt(2.0) * 1e154, rel_tol=1e-11)
    assert math.isclose(PowerYoung(3.0).inverse(1e308), 3.0 ** (1 / 3) * 1e308 ** (1 / 3),
                        rel_tol=1e-11)
    # below the overflow threshold every entry is scale * t**p / p bit for bit
    rng = np.random.default_rng(5)
    for _ in range(30):
        p, scale = 1.0 + rng.uniform(0.01, 6.0), 10.0 ** rng.uniform(-5.0, 5.0)
        phi = PowerYoung(p, scale)
        t = 10.0 ** rng.uniform(-300.0, 300.0 / p - 6.0, 50)
        assert np.array_equal(phi.eval(t), scale * t ** p / p)
        assert np.array_equal(phi.density(t), scale * t ** (p - 1.0))
        assert phi.eval(float(t[0])) == float(scale * np.asarray(t[0]) ** p / p)


def test_conjugate_rate_underflow_is_a_domain_error():
    for phi in (ExpYoung(1e-300, 1e-300), LogYoung(1e-300, 1e-300)):
        with pytest.raises(DomainError):
            phi.conjugate()
    # every other input keeps 1 / (scale * rate), rounded once
    assert ExpYoung(3.0, 7.0).conjugate().rate == 1.0 / (3.0 * 7.0)
    assert LogYoung(3.0, 7.0).conjugate().rate == 1.0 / (3.0 * 7.0)


def test_every_family_is_infinite_at_infinity_without_warnings():
    # an all-zero sample table and a zero second-to-last sample used to
    # multiply 0 by inf, and ExpYoung took inf - inf
    import warnings

    families = (PowerYoung(2.5), ExpYoung(), LogYoung(),
                DensityYoung([(0.0, 0.0), (1.0, 1.0)]),
                DensityYoung([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
                DensityYoung([(0.0, 0.0), (1.0, 0.0)], 2.0),
                DensityYoung([(0.0, 0.0), (1.0, 0.0)], 1.0),
                DensityYoung([(0.0, 0.0), (1.0, 1.0)], 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in families:
            for f in (phi.eval, phi.density):
                assert f(math.inf) == math.inf, (phi, f.__name__)
                out = f(np.array([0.0, 2.0, math.inf]))
                assert np.all(np.isfinite(out[:2])) and out[2] == math.inf, (phi, f.__name__)


def test_eval_vectorized():
    phi = ExpYoung()
    ts = np.array([0.0, 1.0, 2.0])
    out = phi.eval(ts)
    assert out.shape == ts.shape
    assert out[0] == 0.0
    assert isinstance(phi.eval(1.0), float)


def test_json_round_trip():
    for phi in (PowerYoung(2.5, scale=0.3), ExpYoung(scale=2.0),
                LogYoung(rate=0.5),
                DensityYoung([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], 2.0)):
        assert young_from_json(phi.to_json()) == phi
    with pytest.raises(DomainError):
        young_from_json({"family": "cubic"})


def test_convexity_on_grids():
    for phi in (PowerYoung(1.2), ExpYoung(), LogYoung(),
                DensityYoung([(0.0, 0.0), (0.5, 0.25), (2.0, 4.0)])):
        ts = np.linspace(0.0, 9.0, 200)
        vals = np.asarray(phi.eval(ts))
        mids = np.asarray(phi.eval(0.5 * (ts[:-1] + ts[1:])))
        assert np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] == 0.0


def _seeded_gauges(seed=31):
    """Seeded gauges of the four families, as the benchmark draws them, and
    their conjugates."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 0.8, 5))))
        d = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, 5))))
        out += [PowerYoung(rng.uniform(1.3, 4.0), rng.uniform(0.5, 2.0)),
                ExpYoung(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                LogYoung(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                DensityYoung(np.column_stack((s, d)), rng.uniform(0.5, 2.0))]
    return out + [phi.conjugate() for phi in out]


def _seeded_targets(phi, rng, count=40):
    top = 300.0 if isinstance(phi, (PowerYoung, DensityYoung)) else 8.0
    return [float(y) for y in 10.0 ** rng.uniform(-12.0, top, count)]


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-9])
def test_each_seed_agrees_with_the_solve_and_its_bracket_holds(rel_tol):
    rng = np.random.default_rng(7)
    for phi in _seeded_gauges():
        for y in _seeded_targets(phi, rng):
            t = phi._seed(y)
            solved = solve_monotone(phi.eval, y, lo=0.0, rel_tol=rel_tol)
            assert abs(t - solved) <= 2.0 * rel_tol * solved, (phi, y, t, solved)
            below, above = phi.eval(t * np.array([1.0 - rel_tol / 2.0, 1.0 + rel_tol / 2.0]))
            assert below < y <= above, (phi, y)
            assert phi.inverse(y, rel_tol) == t


@pytest.mark.parametrize("bad_seed", [lambda t: 1.1 * t, lambda t: math.nan])
def test_a_seed_that_fails_its_certificate_falls_back_to_the_solve(monkeypatch, bad_seed):
    rng = np.random.default_rng(8)
    for phi in _seeded_gauges():
        cls = type(phi)
        targets = _seeded_targets(phi, rng, 10)
        seeds = [phi._seed(y) for y in targets]
        with monkeypatch.context() as mp:
            mp.setattr(cls, "_seed", lambda self, y: bad_seed(seeds[targets.index(y)]))
            got = [phi.inverse(y) for y in targets]
        assert got == [solve_monotone(phi.eval, y, lo=0.0) for y in targets], phi


def test_inverse_neither_raises_nor_warns_at_extreme_arguments():
    # the suite turns RuntimeWarnings into errors (see pyproject.toml); a
    # seed that overflows, divides by zero or misses falls back to the solve
    density = DensityYoung([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0), (2.0, 3.0)], 2.0)
    gauges = [PowerYoung(2.5, 0.7), PowerYoung(3.0, 1e-300), PowerYoung(3.0, 1e300),
              ExpYoung(1e-300, 1e300), ExpYoung(1e300, 1e-300), ExpYoung(1e300, 1e300),
              LogYoung(1e-300, 1e300), LogYoung(1e300, 1e-300), LogYoung(1e300, 1e300),
              density, density.conjugate(), DensityYoung([(0.0, 0.0), (1.0, 0.0)], 2.0),
              DensityYoung([(0.0, 0.0), (1.0, 1.0)], 1e-300)]
    edges = [float(c) for c in density._cum[1:]] + [5e-324, 1e-310, 1e-200, 1.0, 1e300, 1.7e308]
    fallbacks = 0
    for phi in gauges:
        for y in edges:
            try:
                seed = phi._seed(y)
            except ArithmeticError:
                seed = math.nan
            if _certifies(phi.eval, y, seed):
                assert phi.inverse(y) == seed, (phi, y)
            else:
                fallbacks += 1
                assert phi.inverse(y) == solve_monotone(phi.eval, y, lo=0.0), (phi, y)
    assert 0 < fallbacks < len(gauges) * len(edges)  # both branches are taken


def test_a_small_tail_slope_neither_overflows_nor_warns():
    # phi(t) = 1/2 + x + 1e-300 x^2 / 2 with x = t - 1 past the last sample:
    # the tail's square must be scaled before it can overflow
    import warnings

    phi = DensityYoung([(0.0, 0.0), (1.0, 1.0)], 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isclose(phi.eval(1e200), 1e200, rel_tol=1e-15)
        assert math.isclose(phi.density(1e200), 1.0 + 1e-100, rel_tol=1e-15)
        t = phi.inverse(1e300)
        assert math.isclose(t, (math.sqrt(3.0) - 1.0) * 1e300, rel_tol=1e-12)
        assert _certifies(phi.eval, 1e300, t, 1e-12)


def _two_branch_eval(phi, t):
    """``phi`` by the former formulas: segments up to the last sample, then the tail."""
    s, d = phi.samples[:, 0], phi.samples[:, 1]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * np.diff(s))))
    idx = np.clip(np.searchsorted(s, t, side="right") - 1, 0, len(s) - 2)
    dt_in = np.minimum(t, s[-1]) - s[idx]
    val_in = cum[idx] + d[idx] * dt_in + 0.5 * (np.diff(d) / np.diff(s))[idx] * dt_in ** 2
    dt_out = t - s[-1]
    val_out = cum[-1] + d[-1] * dt_out + 0.5 * phi.tail_slope * dt_out ** 2
    return np.where(t <= s[-1], val_in, val_out)


def _two_branch_density(phi, t):
    s, d = phi.samples[:, 0], phi.samples[:, 1]
    return np.where(t <= s[-1], np.interp(t, s, d), d[-1] + phi.tail_slope * (t - s[-1]))


def test_one_segment_formula_agrees_with_the_two_branch_formulas():
    rng = np.random.default_rng(20)
    for _ in range(40):
        m = int(rng.integers(2, 12))
        s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, m - 1))))
        rise = rng.uniform(0.0, 3.0, m - 1) * (rng.random(m - 1) > 0.25)  # some flat
        d = np.concatenate(([0.0], np.cumsum(rise)))
        tail = None if rng.random() < 0.5 else float(rng.uniform(0.01, 5.0))
        phi = DensityYoung(np.column_stack((s, d)), tail)
        t = np.concatenate((s, 0.5 * (s[:-1] + s[1:]), rng.uniform(0.0, s[-1], 20),
                            s[-1] + np.geomspace(1e-9, 1e12, 20)))
        for f, two_branch in ((phi.eval, _two_branch_eval), (phi.density, _two_branch_density)):
            old = two_branch(phi, t)
            assert np.all(np.isfinite(old))
            np.testing.assert_array_max_ulp(f(t), old, maxulp=4)
            assert [f(float(x)) for x in t[::7]] == list(f(t)[::7])  # scalars alike


def test_both_sampled_tables_share_one_validator():
    from orliczval.valuations import TabulatedComposer

    for table, message in (([[0.0, 0.0], [1.0]], "need an (m, 2) sample table"),
                           ([[0.0, 0.0]], "need an (m, 2) sample table"),
                           ([[0.0, 0.0], [1.0, math.nan]], "samples must be finite"),
                           ([[0.0, 0.0], [0.0, 1.0]], "strictly increasing")):
        said = []
        for make in (DensityYoung, TabulatedComposer):
            with pytest.raises(DomainError) as info:
                make(table)
            said.append(str(info.value))
        assert said[0] == said[1] and message in said[0], table
