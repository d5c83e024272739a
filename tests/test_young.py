"""Young-function families: conjugation, duality, doubling, growth."""

import math

import numpy as np
import pytest

from orliczval.errors import (
    DensityResolutionError,
    DomainError,
    InvalidDensityError,
)
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
    young_gap,
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
    assert young_gap(PowerYoung(2.0), 3.0, 3.0) == 0.0
    assert young_gap(PowerYoung(2.0), 3.0, 5.0) > 0.0


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
    with pytest.raises(DensityResolutionError):
        phi.conjugate()


def test_density_validation():
    with pytest.raises(InvalidDensityError):
        DensityYoung([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])   # decreasing
    with pytest.raises(InvalidDensityError):
        DensityYoung([(0.5, 0.0), (1.0, 1.0)])               # s0 != 0
    with pytest.raises(InvalidDensityError):
        DensityYoung([(0.0, 0.5), (1.0, 1.0)])               # d0 != 0
    with pytest.raises(InvalidDensityError):
        DensityYoung([(0.0, 0.0), (1.0, 1.0)], tail_slope=0.0)
    with pytest.raises(InvalidDensityError):
        PowerYoung(1.0)
    with pytest.raises(InvalidDensityError):
        ExpYoung(scale=-1.0)


def test_delta2_power_is_exact():
    report = delta2_report(PowerYoung(3.0))
    assert report == {
        "holds": True, "kind": "exact", "constant": 8.0, "threshold": 0.0,
        "sup_ratio": 8.0, "witness_t": None, "tail_growing": False,
    }
    assert delta2_report(PowerYoung(2.0, scale=5.0))["constant"] == 4.0


def test_delta2_exp_fails_on_grid():
    report = delta2_report(ExpYoung(), t_max=50.0)
    assert not report["holds"]
    assert report["kind"] == "grid"
    assert report["sup_ratio"] > 1e19
    assert report["witness_t"] == pytest.approx(50.0)
    assert report["tail_growing"]


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
    rep = limit_report(LogYoung(), t_max=1e8)
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


def test_every_family_is_infinite_at_infinity_without_warnings():
    # an all-zero sample table and a zero second-to-last sample used to
    # multiply 0 by inf, and ExpYoung took inf - inf
    import warnings

    families = (PowerYoung(2.5), ExpYoung(), LogYoung(),
                DensityYoung([(0.0, 0.0), (1.0, 1.0)]),
                DensityYoung([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
                DensityYoung([(0.0, 0.0), (1.0, 0.0)], 2.0))
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
