"""Composer families, the moment-composition operator, and its checks.

Oracles: Monte Carlo integration of xi(h(x))*x for the operator, the
exact simplex moment (1/6, 1/6), hand-derived p = 2 norm formulas for
the truncation tails, and independent recomputation of every ball
construction equation from the returned plan data.
"""

import math

import numpy as np
import pytest

from orliczval.errors import (
    CapabilityError,
    ConstructionError,
    DomainError,
    WitnessNotFoundError,
)
from orliczval.functions import SimpleFunction, rasterize
from orliczval.polytopes import Polytope, diagonal_unimodular, random_unimodular, shear
from orliczval.regions import Annulus, AxisBox, OriginBall, Region, unit_ball_volume
from orliczval.suites import _polytope_function
from orliczval.valuations import (
    OddComposer,
    PolynomialComposer,
    SigmoidComposer,
    TabulatedComposer,
    build_divergence_plan,
    check_covariance,
    check_cphi,
    check_sign_decomposition,
    check_valuation_identity,
    composer_from_json,
    continuity_probe,
    divergent_truncation,
    find_divergence_witnesses,
    identity_composer,
    psi,
    psi_quadrature,
)
from orliczval.young import PowerYoung


def _mc_psi(xi, f, lo, hi, samples=200_000, seed=11):
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    pts = rng.uniform(lo, hi, size=(samples, len(lo)))
    vals = np.asarray(xi(f.evaluate(pts)))[:, None] * pts
    vol = float(np.prod(hi - lo))
    est = vol * vals.mean(axis=0)
    err = vol * vals.std(axis=0) / math.sqrt(samples)
    return est, err


def _tri(scale=1.0):
    return Region([Polytope([[0.0, 0.0], [scale, 0.0], [0.0, scale]])])


def _ring(a, b, dim=2):
    return Region([Annulus(dim, a, b)])


def _ball(r, dim=2):
    return Region([OriginBall(dim, r)])


def _box(lo, hi):
    return Region([AxisBox(lo, hi)])


def test_polynomial_composer_values():
    xi = PolynomialComposer([1.0, 0.0, 2.0])
    assert xi(0.0) == 0.0
    assert math.isclose(xi(2.0), 2.0 + 16.0)
    assert math.isclose(xi(-2.0), -2.0 - 16.0)
    assert np.allclose(xi(np.array([0.0, 1.0])), [0.0, 3.0])


def test_odd_and_sigmoid_composers():
    phi = PowerYoung(2.0)
    odd = OddComposer(phi)
    assert odd(0.0) == 0.0
    assert math.isclose(odd(3.0), 4.5)
    assert math.isclose(odd(-3.0), -4.5)
    sig = SigmoidComposer(scale=2.0, rate=0.5)
    assert sig(0.0) == 0.0
    assert abs(sig(100.0) - 2.0) < 1e-12
    assert math.isclose(sig(1.0), 2.0 * math.tanh(0.5))


def test_tabulated_composer_interpolation_and_extension():
    xi = TabulatedComposer([[-1.0, -2.0], [0.0, 0.0], [2.0, 1.0]])
    assert xi(0.0) == 0.0
    assert math.isclose(xi(1.0), 0.5)
    assert math.isclose(xi(-0.5), -1.0)
    # Beyond the table the edge slopes continue.
    assert math.isclose(xi(4.0), 2.0)
    assert math.isclose(xi(-2.0), -4.0)


def test_tabulated_composer_validation():
    with pytest.raises(DomainError):
        TabulatedComposer([[1.0, 1.0], [2.0, 2.0]])  # range misses 0
    with pytest.raises(DomainError):
        TabulatedComposer([[-1.0, 0.5], [1.0, 0.5]])  # nonzero at 0
    with pytest.raises(DomainError):
        TabulatedComposer([[0.0, 0.0], [0.0, 1.0]])  # not increasing


def test_growth_witness_certification():
    phi = PowerYoung(2.0)
    OddComposer(phi, cphi_witness=(1.0, phi))  # ratio is exactly 1
    with pytest.raises(DomainError):
        # Linear growth beats any multiple of t**2/2 near zero.
        PolynomialComposer([1.0], cphi_witness=(5.0, phi))


def test_composer_json_round_trips():
    composers = [PolynomialComposer([1.0, -0.5, 0.25]),
                 OddComposer(PowerYoung(3.0, 2.0)),
                 SigmoidComposer(1.5, 0.7),
                 TabulatedComposer([[-2.0, 1.0], [0.0, 0.0], [1.0, 3.0]])]
    grid = np.linspace(-5.0, 5.0, 41)
    for xi in composers:
        back = composer_from_json(xi.to_json())
        assert np.allclose(xi(grid), back(grid), rtol=0, atol=0)


def test_psi_simplex_value():
    xi = identity_composer()
    h = SimpleFunction(2, [(1.0, _tri())])
    assert np.max(np.abs(psi(xi, h) - np.array([1 / 6, 1 / 6]))) <= 1e-12


def test_psi_zero_and_indicator_law():
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(psi(xi, SimpleFunction.zero(3)), np.zeros(3))
    box = _box([1.0, 2.0], [3.0, 5.0])
    h = SimpleFunction(2, [(2.0, box)])
    assert np.allclose(psi(xi, h), 16.0 * box.moment(), rtol=0, atol=1e-12)


def test_psi_additivity_over_disjoint_terms():
    xi = PolynomialComposer([0.5, 1.0])
    terms = [(1.5, _ball(1.0)), (-2.0, _ring(1.0, 2.0)),
             (3.0, _box([3.0, 0.0], [4.0, 1.0]))]
    whole = psi(xi, SimpleFunction(2, terms))
    parts = sum(psi(xi, SimpleFunction(2, [t])) for t in terms)
    assert np.allclose(whole, parts, rtol=0, atol=1e-15)


def test_psi_against_monte_carlo():
    xi = PolynomialComposer([1.0, 0.5])
    f = SimpleFunction(2, [(1.5, _tri(2.0)), (-0.5, _box([2.5, 0.0], [3.5, 2.0]))])
    exact = psi(xi, f)
    est, err = _mc_psi(xi, f, [0.0, 0.0], [3.5, 2.0])
    assert np.all(np.abs(exact - est) < 4.0 * err + 1e-12)


def test_psi_quadrature_grid_paths():
    xi = PolynomialComposer([0.0, 1.0])
    box = _box([0.0, 1.0], [2.0, 2.0])
    f = SimpleFunction(2, [(3.0, box)])
    grid = rasterize(f, (16, 16))
    assert np.allclose(psi_quadrature(xi, grid), xi(3.0) * box.moment(),
                       rtol=0, atol=1e-12)
    zero_grid = rasterize(f, (4, 4))
    zero_grid.values[:] = 0.0
    assert np.array_equal(psi_quadrature(xi, zero_grid), np.zeros(2))


def test_psi_quadrature_even_cancellation():
    # An even function on an origin-symmetric grid composes to an even
    # integrand, whose moment vector cancels to 0.
    from orliczval.functions import GridFunction
    m = 8
    centers = np.linspace(-1.0 + 1.0 / m, 1.0 - 1.0 / m, m)
    values = np.tile(np.abs(centers)[:, None], (1, m))
    grid = GridFunction([-1.0, -1.0], [1.0, 1.0], values)
    xi = PolynomialComposer([1.0, 0.0, 2.0])
    assert np.max(np.abs(psi_quadrature(xi, grid))) < 1e-12


def test_valuation_identity_trivial_and_disjoint():
    xi = PolynomialComposer([1.0, 2.0])
    f = SimpleFunction(2, [(2.0, _ball(1.0)), (1.0, _ring(2.0, 3.0))])
    assert np.max(np.abs(check_valuation_identity(xi, f, f))) == 0.0
    g = SimpleFunction(2, [(3.0, _ring(4.0, 5.0))])
    assert np.max(np.abs(check_valuation_identity(xi, f, g))) <= 1e-12


def test_valuation_identity_random_pairs():
    rng = np.random.default_rng(7)
    xi = PolynomialComposer([1.0, -0.5, 0.25])
    worst = 0.0
    for _ in range(30):
        cuts = np.sort(rng.uniform(0.1, 4.0, size=4))
        f = SimpleFunction(2, [(rng.uniform(-2, 2), _ring(cuts[0], cuts[2]))])
        g = SimpleFunction(2, [(rng.uniform(-2, 2), _ring(cuts[1], cuts[3]))])
        worst = max(worst, np.max(np.abs(check_valuation_identity(xi, f, g))))
    for dim in (2, 3):
        for _ in range(30):
            lo1 = rng.uniform(-2, 1, size=dim)
            lo2 = rng.uniform(-2, 1, size=dim)
            f = SimpleFunction(dim, [(rng.uniform(-2, 2),
                                      _box(lo1, lo1 + rng.uniform(0.5, 2, dim)))])
            g = SimpleFunction(dim, [(rng.uniform(-2, 2),
                                      _box(lo2, lo2 + rng.uniform(0.5, 2, dim)))])
            worst = max(worst, np.max(np.abs(check_valuation_identity(xi, f, g))))
    assert worst <= 1e-9


def test_sign_decomposition():
    xi = PolynomialComposer([1.0, 0.0, 1.0])
    h = SimpleFunction(2, [(2.5, _ball(1.0)), (-1.5, _ring(1.0, 2.0)),
                           (0.5, _ring(2.0, 3.0))])
    assert np.max(np.abs(check_sign_decomposition(xi, h))) <= 1e-12


def test_covariance_identity_and_shear():
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    h = SimpleFunction(2, [(2.0, _tri())])
    assert np.max(np.abs(check_covariance(xi, h, np.eye(2)))) == 0.0
    theta = shear(2, 0, 1, 0.5)
    assert np.max(np.abs(check_covariance(xi, h, theta))) <= 1e-12


def test_covariance_random_maps():
    rng = np.random.default_rng(13)
    xi = PolynomialComposer([1.0, 0.5])
    worst = 0.0
    for dim in (2, 3):
        if dim == 2:
            polys = [Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                     Polytope([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])]
        else:
            polys = [Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
        h = SimpleFunction(dim, [(i + 1.0, Region([p]))
                                 for i, p in enumerate(polys)])
        for _ in range(10):
            theta = random_unimodular(dim, rng)
            worst = max(worst, np.max(np.abs(check_covariance(xi, h, theta))))
    assert worst <= 1e-9


@pytest.mark.parametrize("dim, k", [(2, 2.0 ** 16), (2, 2.0 ** -16),
                                    (3, 2.0 ** 10), (3, 2.0 ** -10)])
def test_covariance_under_extreme_diagonal_maps(dim, k):
    # images with aspect ratios up to 2^32 (2D) and 2^30 (3D) keep their rank
    rng = np.random.default_rng(17)
    theta = diagonal_unimodular(dim, k)
    for xi in (PolynomialComposer([1.0, 0.5]), PolynomialComposer([0.0, 0.0, 0.0, 1.0])):
        for _ in range(4):
            h = _polytope_function(rng, dim)
            want = theta.matrix @ psi(xi, h)
            residual = check_covariance(xi, h, theta)
            assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(want))


def test_covariance_rejects_non_polytopes():
    xi = identity_composer()
    h = SimpleFunction(2, [(1.0, _ball(1.0))])
    with pytest.raises(CapabilityError) as info:
        check_covariance(xi, h, np.eye(2))
    assert "Polytope" in str(info.value)


def test_cphi_certified_ratio_one():
    phi = PowerYoung(2.0)
    report = check_cphi(OddComposer(phi), phi)
    assert report["certified_on_grid"]
    assert math.isclose(report["lambda_candidate"], 1.0, rel_tol=1e-12)
    assert report["violation"] is None


def test_cphi_small_end_divergence():
    phi = PowerYoung(2.0)
    report = check_cphi(identity_composer(), phi)
    assert not report["certified_on_grid"]
    assert report["diverges_small_end"]
    assert report["lambda_candidate"] is None
    assert math.isclose(report["violation"], 1e-6)


def test_cphi_large_end_divergence():
    phi = PowerYoung(2.0)
    # t**3/2 equals t * phi(t): ratio grows like |t| at the tail.
    report = check_cphi(PolynomialComposer([0.0, 0.0, 0.5]), phi)
    assert report["diverges_large_end"]
    assert math.isclose(report["violation"], 1e6)
    quartic = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    assert check_cphi(quartic, phi)["diverges_large_end"]


def test_cphi_delta_scaling():
    phi = PowerYoung(2.0)
    report = check_cphi(OddComposer(phi), phi, delta=2.0)
    assert report["certified_on_grid"]
    assert math.isclose(report["lambda_candidate"], 0.25, rel_tol=1e-12)


def test_witness_search_quartic():
    phi = PowerYoung(2.0)
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    sign, betas = find_divergence_witnesses(xi, phi, 20)
    assert sign == 1.0
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    for i, beta in enumerate(betas, start=1):
        assert beta ** 4 > 2.0 ** i * beta ** 2 / 2.0


def test_witness_search_fails_for_dominated_composer():
    # The odd extension of phi itself has ratio exactly 1, so no height
    # ever beats the doubled gauge.
    phi = PowerYoung(2.0)
    with pytest.raises(WitnessNotFoundError):
        find_divergence_witnesses(OddComposer(phi), phi, 3)


def test_witness_search_small_end_violations_exist():
    # A bounded sigmoid still violates phi-domination near zero, so
    # witnesses exist there; the certificate check flags the same end.
    sign, betas = find_divergence_witnesses(SigmoidComposer(), PowerYoung(2.0), 3)
    assert sign == 1.0
    assert all(b < 1.0 for b in betas)
    report = check_cphi(SigmoidComposer(), PowerYoung(2.0))
    assert report["diverges_small_end"]


def test_divergence_plan_equations():
    phi = PowerYoung(2.0)
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    plan = build_divergence_plan(xi, phi, 50, dim=2)
    assert plan.validate()
    omega = unit_ball_volume(2)
    prev_c = 0.0
    prev_ratio = 0.0
    for j, (i, beta, budget, c, r) in enumerate(zip(
            plan.exponents, plan.betas, plan.budgets, plan.centers,
            plan.radii), start=1):
        assert i == j
        assert math.isclose(budget, 1.0 / (2.0 ** j * beta ** 2 / 2.0),
                            rel_tol=1e-12)
        assert abs((c + r) * omega * r ** 2 - budget) <= 1e-10
        assert 0.0 < r < 1.0 and c > r and c > prev_c + 2.0
        ratio = c / (c + r)
        assert ratio > 0.8 and ratio >= prev_ratio
        prev_c, prev_ratio = c, ratio


def test_divergent_truncation_tables():
    phi = PowerYoung(2.0)
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    plan = build_divergence_plan(xi, phi, 50, dim=2)
    one = divergent_truncation(plan, 1)
    lam = unit_ball_volume(2) * plan.radii[0] ** 2
    hand = plan.betas[0] ** 4 * plan.centers[0] * lam
    assert math.isclose(one["first_moment"], hand, rel_tol=1e-12)
    for J in (1, 10, 50):
        result = divergent_truncation(plan, J)
        assert result["modular"] <= result["modular_bound"] <= 1.0
        assert result["first_moment"] > result["lower_bound"]
        assert len(result["rows"]) == J
        bounds = [row["running_lower_bound"] for row in result["rows"]]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    final = divergent_truncation(plan, 50)
    assert final["lower_bound"] > 40.0
    assert all(row["ratio"] > 0.8 for row in final["rows"])
    with pytest.raises(DomainError):
        divergent_truncation(plan, 0)


def test_continuity_probe_tail_formulas():
    phi = PowerYoung(2.0)
    xi = identity_composer()
    inner = SimpleFunction(2, [(1.0, _ring(1.0, 2.0))])
    rows = list(continuity_probe(xi, phi, inner, 3))
    assert all(row["norm_tail"] == 0.0 and row["psi_gap"] == 0.0
               for row in rows)

    wide = SimpleFunction(2, [(1.0, _ring(0.125, 4.0))])
    rows = continuity_probe(xi, phi, wide, 4)

    def mu(a, b):
        return 2.0 * math.pi * (b ** 3 - a ** 3) / 3.0

    # k = 0 keeps [1/2, 2): the tail is [1/8, 1/2) plus [2, 4).
    expected0 = math.sqrt(2.0 * (mu(0.125, 0.5) + mu(2.0, 4.0)))
    assert math.isclose(rows[0]["norm_tail"], expected0, rel_tol=1e-9)
    expected1 = math.sqrt(2.0 * (mu(0.125, 0.25) + mu(3.0, 4.0)))
    assert math.isclose(rows[1]["norm_tail"], expected1, rel_tol=1e-9)
    tails = [row["norm_tail"] for row in rows]
    assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
    assert tails[2] == tails[3] == 0.0
    assert all(row["psi_gap"] == 0.0 for row in rows)


def test_continuity_probe_rejections():
    phi = PowerYoung(2.0)
    xi = identity_composer()
    mixed = SimpleFunction(2, [(1.0, _ball(1.0)), (-1.0, _ring(1.0, 2.0))])
    with pytest.raises(DomainError):
        continuity_probe(xi, phi, mixed, 2)
    polygonal = SimpleFunction(2, [(1.0, _tri())])
    with pytest.raises(DomainError):
        continuity_probe(xi, phi, polygonal, 2)
