"""Simple functions, refinements, modulars, and the two norms.

Oracles: hand-derived closed forms for the weighted measure of disks
(2*pi*r**3/3) and for the p = 2 norms (gauge norm v*sqrt(mu/2), averaged
norm v*sqrt(2*mu) for a height-v indicator), direct substitution checks
that the gauge-norm defining equation holds at the computed value,
Monte Carlo integration of phi(|h|)*|x|, and scipy's bounded Brent
minimiser of (1 + modular(k*h)) / k for the averaged norm.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from orliczval import norms
from orliczval.errors import (
    CapabilityError,
    DisjointnessError,
    DomainError,
)
from orliczval.functions import (
    GridFunction,
    SimpleFunction,
    difference,
    lattice_max_min,
    rasterize,
    refine,
)
from orliczval.norms import (
    _atoms,
    _weighted_sum,
    indicator_norm,
    luxemburg_norm,
    modular,
    norm_report,
    orlicz_norm,
)
from orliczval.numerics import solve_monotone
from orliczval.polytopes import Polytope, polygon_weighted_measure
from orliczval.regions import Annulus, AxisBox, OriginBall, Region
from orliczval.young import DensityYoung, ExpYoung, LogYoung, PowerYoung

DISK_MU = 2.0 * math.pi / 3.0  # integral of |x| over the unit disk


def _mc_modular(phi, f, lo, hi, samples=200_000, seed=5):
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    pts = rng.uniform(lo, hi, size=(samples, len(lo)))
    vals = np.asarray(phi.eval(np.abs(f.evaluate(pts))))
    weighted = vals * np.linalg.norm(pts, axis=1)
    vol = float(np.prod(hi - lo))
    est = vol * float(np.mean(weighted))
    err = vol * float(np.std(weighted)) / math.sqrt(samples)
    return est, err


def _ball(r, dim=2):
    return Region([OriginBall(dim, r)])


def _ring(a, b, dim=2):
    return Region([Annulus(dim, a, b)])


def _box(lo, hi):
    return Region([AxisBox(lo, hi)])


def _shells(values, measures):
    """Concentric planar shells from the origin, shell i of weighted measure mu_i."""
    terms, r = [], 0.0
    for v, mu in zip(values, measures):
        outer = (r ** 3 + 3.0 * mu / (2.0 * math.pi)) ** (1.0 / 3.0)
        terms.append((v, _ring(r, outer)))
        r = outer
    return SimpleFunction(2, terms)


def _reference_orlicz(phi, h):
    """``inf_k (1 + sum mu_i phi(k v_i)) / k`` by scipy's bounded Brent on log k.

    A scan over e^-60 ... e^60 times ``1 / max v`` brackets the minimiser
    of the quasi-convex objective; it shares no code with the library's
    norm solvers.
    """
    from scipy.optimize import minimize_scalar

    vals = np.array([abs(v) for v, _ in h.terms])
    mus = np.array([r.weighted_measure().value for _, r in h.terms])

    def objective(u):
        k = math.exp(u)
        with np.errstate(over="ignore"):
            return (1.0 + float(np.sum(np.asarray(phi.eval(k * vals)) * mus))) / k

    grid = -math.log(float(np.max(vals))) + np.linspace(-60.0, 60.0, 241)
    i = int(np.argmin([objective(u) for u in grid]))
    assert 0 < i < len(grid) - 1
    with np.errstate(invalid="ignore"):  # the bracket may reach phi's overflow
        res = minimize_scalar(objective, bounds=(grid[i - 1], grid[i + 1]),
                              method="bounded", options={"xatol": 1e-10})
    return float(res.fun)


def test_simple_function_drops_trivial_terms():
    segment = Polytope([[0.0, 0.0], [1.0, 0.0]])
    f = SimpleFunction(2, [(0.0, _ball(1.0)),
                           (2.0, Region([segment])),
                           (3.0, _ring(2.0, 3.0))])
    assert len(f.terms) == 1
    assert f.terms[0][0] == 3.0
    with pytest.raises(DomainError):
        SimpleFunction(3, [(1.0, _ball(1.0, dim=2))])
    with pytest.raises(DomainError):
        SimpleFunction(2, [(math.nan, _ball(1.0))])


def test_simple_function_evaluate_selects_term_values():
    f = SimpleFunction(2, [(2.0, _ball(1.0)), (-5.0, _ring(1.0, 2.0))])
    pts = [[0.5, 0.0], [0.0, 1.5], [3.0, 0.0], [0.0, 0.0]]
    assert np.allclose(f.evaluate(pts), [2.0, -5.0, 0.0, 2.0])
    g = f.scale(-2.0)
    assert np.allclose(g.evaluate(pts), [-4.0, 10.0, 0.0, -4.0])
    assert not f.scale(0.0).terms


def test_simple_function_json_round_trip():
    f = SimpleFunction(2, [(1.5, _ball(1.0)),
                           (-2.0, _box([1.5, -1.0], [2.0, 1.0]))])
    g = SimpleFunction.from_json(f.to_json())
    assert g.dim == 2 and len(g.terms) == 2
    pts = np.random.default_rng(0).uniform(-3, 3, size=(200, 2))
    assert np.array_equal(f.evaluate(pts), g.evaluate(pts))


def test_simple_function_disjointness_check():
    good = SimpleFunction(2, [(1.0, _ball(1.0)), (2.0, _ring(1.0, 2.0))])
    assert good.check_disjoint()
    bad = SimpleFunction(2, [(1.0, _ball(2.0)), (2.0, _ring(1.0, 3.0))])
    with pytest.raises(DisjointnessError):
        bad.check_disjoint()


def test_support_box_covers_all_terms():
    f = SimpleFunction(2, [(1.0, _ball(2.0)), (1.0, _box([3.0, 3.0], [4.0, 5.0]))])
    lo, hi = f.support_box()
    assert np.allclose(lo, [-2.0, -2.0]) and np.allclose(hi, [4.0, 5.0])


def test_refine_radial_cells_and_lattice():
    f = SimpleFunction(2, [(2.0, _ball(2.0))])
    g = SimpleFunction(2, [(3.0, _ring(1.0, 3.0))])
    pair = refine(f, g)
    cells = {(round(a, 12), round(b, 12)) for _, a, b in pair.cells}
    assert cells == {(2.0, 0.0), (2.0, 3.0), (0.0, 3.0)}
    top, bottom = lattice_max_min(f, g)
    radii = np.array([[0.5, 0.0], [1.5, 0.0], [2.5, 0.0], [3.5, 0.0]])
    assert np.allclose(top.evaluate(radii), [2.0, 3.0, 3.0, 0.0])
    assert np.allclose(bottom.evaluate(radii), [0.0, 2.0, 0.0, 0.0])
    # Pointwise max + min equals f + g.
    pts = np.random.default_rng(1).uniform(-4, 4, size=(500, 2))
    assert np.allclose(top.evaluate(pts) + bottom.evaluate(pts),
                       f.evaluate(pts) + g.evaluate(pts))


def test_refine_boxes_grid_cells():
    f = SimpleFunction(2, [(1.0, _box([0.0, 0.0], [2.0, 2.0]))])
    g = SimpleFunction(2, [(1.0, _box([1.0, 1.0], [3.0, 3.0]))])
    top, bottom = lattice_max_min(f, g)
    assert math.isclose(sum(r.lebesgue() for _, r in top.terms), 7.0)
    assert math.isclose(sum(r.lebesgue() for _, r in bottom.terms), 1.0)
    pts = np.random.default_rng(2).uniform(-1, 4, size=(500, 2))
    assert np.allclose(top.evaluate(pts),
                       np.maximum(f.evaluate(pts), g.evaluate(pts)))


def test_refine_polygons_area_identity():
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    f = SimpleFunction(2, [(4.0, Region([tri]))])
    g = SimpleFunction(2, [(1.0, _box([0.0, 0.0], [1.0, 1.0]))])
    pair = refine(f, g)
    total = sum(p.volume() for p, _, _ in pair.cells)
    # Union area: 2 + 1 - overlap(1/2 + ... ) computed by hand: the box
    # corner (1,1) lies on the hypotenuse, so overlap is 1/2 + 1/4 + 1/4 = 1.
    assert math.isclose(total, 2.0 + 1.0 - 1.0, rel_tol=0, abs_tol=1e-12)
    d = difference(f, g)
    probe = np.array([[0.25, 0.25], [1.5, 0.25], [0.25, 1.5], [2.5, 2.5]])
    assert np.allclose(d.evaluate(probe), [3.0, 4.0, 4.0, 0.0])


def test_refine_mixed_parts_names_fallback():
    f = SimpleFunction(2, [(1.0, _ball(1.0))])
    g = SimpleFunction(2, [(1.0, _box([2.0, 2.0], [3.0, 3.0]))])
    with pytest.raises(CapabilityError) as info:
        refine(f, g)
    assert "rasterize" in str(info.value)


def test_positive_negative_split():
    f = SimpleFunction(2, [(2.0, _ball(1.0)), (-3.0, _ring(1.0, 2.0))])
    pos, neg = lattice_max_min(f, SimpleFunction.zero(2))
    pts = np.random.default_rng(3).uniform(-3, 3, size=(400, 2))
    assert np.all(pos.evaluate(pts) >= 0.0)
    assert np.all(neg.evaluate(pts) <= 0.0)
    assert np.allclose(pos.evaluate(pts) + neg.evaluate(pts), f.evaluate(pts))


def test_modular_is_a_lattice_valuation():
    phi = PowerYoung(3.0)
    f = SimpleFunction(2, [(2.0, _ball(2.0)), (1.0, _ring(2.0, 3.0))])
    g = SimpleFunction(2, [(3.0, _ring(1.0, 2.5))])
    top, bottom = lattice_max_min(f, g)
    lhs = modular(phi, top) + modular(phi, bottom)
    rhs = modular(phi, f) + modular(phi, g)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_rasterize_matches_on_aligned_grid():
    f = SimpleFunction(2, [(1.5, _box([0.0, 0.0], [1.0, 1.0]))])
    grid = rasterize(f, (8, 8))
    assert grid.shape == (8, 8)
    assert np.allclose(grid.values, 1.5)
    phi = PowerYoung(2.0)
    assert math.isclose(modular(phi, grid), modular(phi, f), rel_tol=1e-12)


def test_grid_modular_three_dimensional_midpoint():
    box = _box([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    f = SimpleFunction(3, [(2.0, box)])
    grid = rasterize(f, (6, 6, 6))
    phi = PowerYoung(2.0)
    exact = phi.eval(2.0) * box.weighted_measure().value
    assert math.isclose(modular(phi, grid), exact, rel_tol=1e-3)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridFunction([0.0, 0.0], [1.0], np.zeros((2, 2)))
    with pytest.raises(DomainError):
        GridFunction([0.0, 0.0], [1.0, 1.0], np.zeros(4))
    with pytest.raises(DomainError):
        GridFunction([1.0, 0.0], [1.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(DomainError):
        GridFunction([0.0, 0.0], [1.0, 1.0], np.full((2, 2), math.inf))


def test_planar_cell_measures_equal_the_polygon_closed_form():
    # one array call for all cells, cell by cell the polygon closed form;
    # the second grid has cells with a corner, and edges, on the origin
    for lo, hi, shape in (([-1.3, -0.7], [1.1, 2.0], (7, 5)),
                          ([-1.0, -1.0], [1.0, 1.0], (4, 8)),
                          ([2.0, 3.0], [2.5, 3.001], (3, 2))):
        grid = GridFunction(lo, hi, np.ones(shape))
        mus, errs = grid.cell_weighted_measures()
        los, his = grid.cell_bounds()
        want = [polygon_weighted_measure(AxisBox(a, b).corners_polygon())
                for a, b in zip(los, his)]
        assert np.all(np.abs(mus - want) <= 1e-14 * np.array(want))
        assert np.all(errs == 0.0)


def test_luxemburg_closed_form_power_two():
    # phi(t) = t**2/2, h = 3 on the unit disk: phi(3/k)*mu = 1 gives
    # k = 3*sqrt(mu/2).
    phi = PowerYoung(2.0)
    h = SimpleFunction(2, [(3.0, _ball(1.0))])
    expected = 3.0 * math.sqrt(DISK_MU / 2.0)
    assert math.isclose(luxemburg_norm(phi, h), expected, rel_tol=1e-9)


def test_orlicz_closed_form_power_two():
    # Averaged norm of v on the unit disk is v*sqrt(2*mu), twice the
    # gauge norm for this phi.
    phi = PowerYoung(2.0)
    h = SimpleFunction(2, [(3.0, _ball(1.0))])
    expected = 3.0 * math.sqrt(2.0 * DISK_MU)
    got = orlicz_norm(phi, h)
    assert math.isclose(got, expected, rel_tol=1e-9)
    assert math.isclose(got, 2.0 * luxemburg_norm(phi, h), rel_tol=1e-8)


def test_gauge_equation_holds_at_computed_norm():
    # Direct substitution with an independent modular formula.
    scale, rate, mu = 0.7, 1.3, DISK_MU
    phi = ExpYoung(scale, rate)
    h = SimpleFunction(2, [(2.0, _ball(1.0))])
    k = luxemburg_norm(phi, h)
    rho = scale * (math.expm1(rate * 2.0 / k) - rate * 2.0 / k) * mu
    assert math.isclose(rho, 1.0, rel_tol=1e-7)


def test_modular_at_luxemburg_is_one_across_families():
    # values near 1e3 on measures near 1e-4 put the root u = 1/norm many
    # doublings above the solve's first bracket 1 / max|h|
    unit = SimpleFunction(2, [(2.0, _ball(1.0)), (0.5, _ring(1.0, 2.0))])
    large = _shells([1e3, 7e2, 2e2], [1e-4, 3e-4, 2e-4])
    for h, tol in ((unit, 1e-7), (large, 1e-8)):
        for phi in (PowerYoung(2.0), PowerYoung(3.5, 0.4),
                    ExpYoung(0.5, 2.0), LogYoung(2.0, 1.0)):
            report = norm_report(phi, h)
            assert math.isclose(report["modular_at_luxemburg"], 1.0, rel_tol=tol)
            assert report["equivalence_ok"]
            assert 1.0 - 1e-9 <= report["ratio"] <= 2.0 + 1e-9


def test_indicator_norm_matches_minimisation():
    regions = [_ball(1.0), _ring(0.5, 1.5, dim=3),
               _box([0.0, 0.0], [2.0, 1.0]), _ball(2.0, dim=4)]
    phis = [PowerYoung(2.0), PowerYoung(3.0, 2.0), ExpYoung(1.0, 1.0),
            LogYoung(1.0, 2.0)]
    for region in regions:
        f = SimpleFunction.indicator(region)
        for phi in phis:
            closed = indicator_norm(phi, region)
            minimised = orlicz_norm(phi, f)
            assert math.isclose(closed, minimised, rel_tol=1e-8), (region, phi)


def test_orlicz_norm_matches_an_independent_minimiser():
    rng = np.random.default_rng(8)
    families = (
        lambda: PowerYoung(rng.uniform(1.2, 5.0), rng.uniform(0.3, 3.0)),
        lambda: ExpYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
        lambda: LogYoung(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
        lambda: DensityYoung(np.column_stack((
            np.linspace(0.0, 3.0, 7),
            np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, 6))))))),
    )
    for case in range(200):
        phi = families[case % 4]()
        n = int(rng.integers(1, 12))
        h = _shells(10.0 ** rng.uniform(-3.0, 3.0, n),
                    10.0 ** rng.uniform(-4.0, 3.0, n))
        want = _reference_orlicz(phi, h)
        assert math.isclose(orlicz_norm(phi, h), want, rel_tol=1e-10), (case, phi)


def test_orlicz_norm_on_a_flat_density_where_the_root_is_not_unique():
    # phi' = 1 on [1, 2], where t phi'(t) - phi(t) = 1/2; with mu = 2 every
    # k in [1/v, 2/v] solves Young's equality and gives the same norm 2v.
    phi = DensityYoung([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 2.0]])
    region = _ball((3.0 / math.pi) ** (1.0 / 3.0))
    with pytest.raises(CapabilityError):
        indicator_norm(phi, region)
    for v in (1e-3, 0.7, 5.0, 1e3):
        h = SimpleFunction.indicator(region, v)
        got = orlicz_norm(phi, h)
        assert math.isclose(got, _reference_orlicz(phi, h), rel_tol=1e-10), v
        assert math.isclose(got, 2.0 * v, rel_tol=1e-10), v


def test_orlicz_norm_where_the_density_overflows():
    # phi' overflows before the root, and t phi'(t) - phi(t) is inf - inf there
    phi = ExpYoung(1.0, 1.0)
    region = _ball(1e-100)
    got = orlicz_norm(phi, SimpleFunction.indicator(region))
    assert math.isclose(got, 0.0014651789556935435, rel_tol=1e-12)
    assert math.isclose(got, indicator_norm(phi, region), rel_tol=1e-10)
    assert math.isclose(got, _reference_orlicz(phi, SimpleFunction.indicator(region)),
                        rel_tol=1e-10)


def test_indicator_norm_closed_form_power_two():
    # mu * inverse-conjugate(1/mu) with a self-conjugate phi: sqrt(2*mu).
    phi = PowerYoung(2.0)
    assert math.isclose(indicator_norm(phi, _ball(1.0)),
                        math.sqrt(2.0 * DISK_MU), rel_tol=1e-10)


def test_indicator_norm_density_family_matches_power():
    # A sampled linear density reproduces phi(t) = t**2/2 exactly, so the
    # conjugate-inverse route must land on the power closed form.
    phi = DensityYoung([[0.0, 0.0], [10.0, 10.0]])
    assert math.isclose(indicator_norm(phi, _ball(1.0)),
                        math.sqrt(2.0 * DISK_MU), rel_tol=1e-9)


def test_norm_homogeneity():
    phi = LogYoung(1.0, 1.0)
    h = SimpleFunction(2, [(1.2, _ball(1.0)), (0.3, _ring(1.0, 2.0))])
    for c in (2.0, 7.5, 0.25):
        assert math.isclose(luxemburg_norm(phi, h.scale(c)),
                            c * luxemburg_norm(phi, h), rel_tol=1e-8)
        assert math.isclose(orlicz_norm(phi, h.scale(c)),
                            c * orlicz_norm(phi, h), rel_tol=1e-8)


def test_norm_monotone_in_values():
    phi = PowerYoung(2.5)
    small = SimpleFunction(2, [(1.0, _ball(1.0))])
    large = SimpleFunction(2, [(1.0, _ball(1.0)), (2.0, _ring(1.0, 2.0))])
    assert luxemburg_norm(phi, small) < luxemburg_norm(phi, large)
    assert orlicz_norm(phi, small) < orlicz_norm(phi, large)


def test_zero_function_norms():
    phi = PowerYoung(2.0)
    z = SimpleFunction.zero(2)
    assert modular(phi, z) == 0.0
    assert luxemburg_norm(phi, z) == 0.0
    assert orlicz_norm(phi, z) == 0.0
    report = norm_report(phi, z)
    assert report["equivalence_ok"]


def test_norm_distance_radial():
    phi = PowerYoung(2.0)
    f = SimpleFunction(2, [(5.0, _ball(1.0))])
    g = SimpleFunction(2, [(2.0, _ball(1.0))])
    expected = 3.0 * math.sqrt(2.0 * DISK_MU)
    assert math.isclose(orlicz_norm(phi, difference(f, g)), expected, rel_tol=1e-9)
    assert math.isclose(orlicz_norm(phi, difference(g, f)), expected, rel_tol=1e-9)
    assert orlicz_norm(phi, difference(f, f)) == 0.0


def test_modular_against_monte_carlo():
    phi = PowerYoung(2.0)
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    f = SimpleFunction(2, [(1.5, Region([tri])),
                           (0.5, _box([2.5, 0.0], [3.5, 2.0]))])
    exact = modular(phi, f)
    est, err = _mc_modular(phi, f, [0.0, 0.0], [3.5, 2.0])
    assert abs(exact - est) < 4.0 * err


def test_grid_norms_match_simple_on_aligned_grid():
    phi = PowerYoung(3.0)
    f = SimpleFunction(2, [(2.0, _box([0.0, 0.0], [1.0, 1.0])),
                           (1.0, _box([1.0, 0.0], [2.0, 1.0]))])
    grid = rasterize(f, (16, 8))
    assert math.isclose(luxemburg_norm(phi, grid), luxemburg_norm(phi, f),
                        rel_tol=1e-9)
    assert math.isclose(orlicz_norm(phi, grid), orlicz_norm(phi, f),
                        rel_tol=1e-9)


# -- the norms see one atom per distinct value -----------------------------

def test_a_grid_with_two_values_has_two_atoms():
    grid = GridFunction([-1.0, 0.5], [2.0, 1.5], np.array([[1.5, 0.0, -1.5], [1.5, 4.0, 0.0]]))
    vals, mus = _atoms(grid, 1e-9)
    cells, _ = grid.cell_weighted_measures()
    flat = np.abs(grid.flat_values())
    assert vals.tolist() == [1.5, 4.0]
    assert np.allclose(mus, [cells[flat == 1.5].sum(), cells[flat == 4.0].sum()],
                       rtol=1e-15, atol=0)


def _unique_atoms(vals, mus):
    """The atoms as np.unique gives them: sorted distinct values, with the
    measures summed in input order by bincount."""
    atoms, which = np.unique(vals, return_inverse=True)
    return atoms, np.bincount(which, weights=mus)


def test_atoms_match_the_unique_form():
    rng = np.random.default_rng(23)
    repeated = rng.choice([0.2, -0.5, 0.5, 1.0, -3.5], 40)
    for values in (repeated, [-2.5], rng.uniform(-2.0, 2.0, 7)):
        h = _shells(values, 10.0 ** rng.uniform(-3.0, 0.0, len(values)))
        mus = np.array([r.weighted_measure(1e-9 / len(h.terms)).value for _, r in h.terms])
        want = _unique_atoms(np.abs(np.asarray(values, float)), mus)
        got = _atoms(h, 1e-9)
        assert got[0].tolist() == want[0].tolist()
        # reduceat sums a run pairwise, bincount in input order
        assert np.allclose(got[1], want[1], rtol=1e-14, atol=0.0), values
    # a grid: zero cells dropped, runs of hundreds of equal values
    grid = GridFunction([-1.0, 0.5], [2.0, 1.5],
                        rng.choice([0.0, 1.5, -1.5, 0.25, 4.0, -7.0], (40, 30)))
    flat = np.abs(grid.flat_values())
    cells = grid.cell_weighted_measures()[0]
    want = _unique_atoms(flat[flat > 0.0], cells[flat > 0.0])
    got = _atoms(grid, 1e-9)
    assert got[0].tolist() == want[0].tolist() == [0.25, 1.5, 4.0, 7.0]
    assert np.allclose(got[1], want[1], rtol=1e-14, atol=0.0)
    empty = _atoms(SimpleFunction(2, []), 1e-9)
    assert empty[0].shape == empty[1].shape == (0,)


def test_weighted_sum_in_blocks_equals_the_one_block_sum(monkeypatch):
    rng = np.random.default_rng(29)
    vals, mus = rng.uniform(0.1, 3.0, 2500), rng.uniform(0.0, 1e-3, 2500)
    u = np.sort(rng.uniform(0.0, 400.0, 39))
    phi = ExpYoung(1.3, 0.7)  # overflows for the larger u: those sums are inf
    blocked = _weighted_sum(phi.eval, u, vals, mus)
    assert norms._BLOCK // len(vals) < len(u)  # so the sum above took several blocks
    with np.errstate(over="ignore"):
        y = phi.eval(np.multiply.outer(u, vals))
    assert blocked.tolist() == (np.where(np.isnan(y), np.inf, y) * mus).sum(axis=-1).tolist()
    assert np.isinf(blocked[-1]) and np.isfinite(blocked[0])
    # and the norms read the same from one block per call
    grid = GridFunction([0.5, 0.5], [2.0, 2.0], rng.uniform(0.1, 2.0, (60, 60)))
    got = [norm(phi, grid) for norm in (luxemburg_norm, orlicz_norm)]
    monkeypatch.setattr(norms, "_BLOCK", 1 << 40)
    assert [norm(phi, grid) for norm in (luxemburg_norm, orlicz_norm)] == got


@pytest.mark.parametrize("phi", [PowerYoung(2.5), ExpYoung()], ids=["power", "exp"])
def test_norms_of_a_large_grid_stay_in_bounded_memory(phi):
    # 102,400 distinct values: one array of them is 0.8 MB, and the solves
    # peak near 5 (power) and 8 MB (exp) in this trace; calls taken whole,
    # 18 to 24 points x 102,400 atoms each, peaked at 80 and 160 MB
    grid = GridFunction([0.5, 0.5], [2.0, 2.0],
                        np.random.default_rng(3).uniform(0.1, 2.0, (320, 320)))
    grid.cell_weighted_measures()  # cached, so the trace sees the solves
    assert len(_atoms(grid, 1e-9)[0]) == 320 * 320
    for norm in (luxemburg_norm, orlicz_norm):
        tracemalloc.start()
        try:
            norm(phi, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, (norm.__name__, peak)


@pytest.mark.parametrize("phi", [PowerYoung(2.5), ExpYoung(1.3, 0.7)], ids=["power", "exp"])
def test_grouped_norms_match_the_ungrouped_roots(phi):
    rng = np.random.default_rng(31)
    values = rng.choice([0.2, 0.5, -0.8, 1.0, 2.0, -3.5, 6.0], 1000)
    h = _shells(values, 10.0 ** rng.uniform(-5.0, -3.0, 1000))
    assert len(_atoms(h, 1e-9)[0]) == 7
    per_term = 1e-9 / len(h.terms)
    vals = np.abs(values)
    mus = np.array([r.weighted_measure(per_term).value for _, r in h.terms])

    def ungrouped(f, t):  # sum_i mu_i f(t v_i) for each t; an overflow counts as inf
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.array([mus * f(s * vals) for s in np.atleast_1d(t)])
        return np.where(np.isnan(y), np.inf, y).sum(axis=1)

    u = solve_monotone(lambda u: ungrouped(phi.eval, u), 1.0, hi=1.0 / vals.max(), rel_tol=1e-15)
    assert math.isclose(luxemburg_norm(phi, h, rel_tol=1e-15), 1.0 / u, rel_tol=1e-12)
    k = solve_monotone(lambda k: ungrouped(lambda t: t * phi.density(t) - phi.eval(t), k),
                       1.0, hi=1.0 / vals.max(), rel_tol=1e-15)
    want = (1.0 + float(ungrouped(phi.eval, k)[0])) / k
    assert math.isclose(orlicz_norm(phi, h, rel_tol=1e-15), want, rel_tol=1e-12)


def test_norm_report_reads_one_set_of_atoms():
    phi = ExpYoung(1.0, 2.0)
    h = _shells([1.0, -2.0, 1.0, 3.0, -2.0], [0.1, 0.2, 0.05, 0.01, 0.3])
    rep = norm_report(phi, h)
    assert set(rep) == {"luxemburg", "orlicz", "ratio", "equivalence_ok",
                        "modular_at_luxemburg"}
    assert rep["luxemburg"] == luxemburg_norm(phi, h)
    assert rep["orlicz"] == orlicz_norm(phi, h)
    assert rep["ratio"] == rep["orlicz"] / rep["luxemburg"] and rep["equivalence_ok"]
    assert rep["modular_at_luxemburg"] == modular(phi, h.scale(1.0 / rep["luxemburg"]))
    assert math.isclose(rep["modular_at_luxemburg"], 1.0, rel_tol=1e-9)


def _gauge_root(phi, h, rel_tol):
    """The gauge norm by the root solve of ``modular(u h) = 1``, posed directly."""
    vals, mus = _atoms(h, 1e-9)
    u = solve_monotone(lambda u: _weighted_sum(phi.eval, u, vals, mus), 1.0,
                       lo=0.0, hi=1.0 / float(vals.max()), rel_tol=rel_tol)
    return 1.0 / u


# one gauge of each family, then their conjugates
_FAMILIES = (PowerYoung(2.5, 0.7), ExpYoung(1.3, 0.7), LogYoung(0.8, 1.6),
             DensityYoung([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0), (2.0, 3.0)], 2.0))
_FAMILIES += tuple(phi.conjugate() for phi in _FAMILIES)


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-13])
def test_closed_form_gauge_norms_agree_with_the_root_solve(rel_tol):
    # one atom takes v / phi^{-1}(1/mu) in every family, several atoms of a
    # power gauge M^(1/p); both are certified closed forms, not root solves
    rng = np.random.default_rng(17)
    for case in range(12):
        one = _shells([10.0 ** rng.uniform(-3.0, 3.0)], [10.0 ** rng.uniform(-4.0, 3.0)])
        n = int(rng.integers(2, 6))
        several = _shells(10.0 ** rng.uniform(-3.0, 3.0, n), 10.0 ** rng.uniform(-4.0, 3.0, n))
        power = PowerYoung(rng.uniform(1.05, 6.0), rng.uniform(0.3, 3.0))
        for phi, h in [(phi, one) for phi in _FAMILIES] + [(power, several)]:
            got = luxemburg_norm(phi, h, rel_tol=rel_tol)
            assert math.isclose(got, _gauge_root(phi, h, rel_tol), rel_tol=rel_tol), (case, phi)
            assert abs(norm_report(phi, h)["modular_at_luxemburg"] - 1.0) <= 1e-9, (case, phi)


def test_a_power_norm_whose_closed_form_fails_its_certificate_is_solved(monkeypatch):
    # with every certificate refused, the gauge norm is the plain root solve
    h = _shells([0.5, 2.0, 3.0], [0.2, 0.1, 0.4])
    phi = PowerYoung(3.0, 2.0)
    want = luxemburg_norm(phi, h)
    monkeypatch.setattr(norms, "_certifies", lambda *a, **k: False)
    assert luxemburg_norm(phi, h) == _gauge_root(phi, h, 1e-10)
    assert math.isclose(luxemburg_norm(phi, h), want, rel_tol=1e-10)


def _averaged_root(phi, vals, mus, rel_tol=1e-12):
    """The averaged norm's minimiser by the root solve of Young's equality,
    posed directly, and the norm at it."""
    k = solve_monotone(norms._conjugate_modular(phi, vals, mus), 1.0,
                       lo=0.0, hi=1.0 / float(vals.max()), rel_tol=rel_tol)
    return k, (1.0 + float(_weighted_sum(phi.eval, k, vals, mus))) / k


@pytest.mark.parametrize("phi", _FAMILIES, ids=lambda phi: type(phi).__name__)
def test_one_atom_averaged_norm_seeds_are_certified_minimisers(phi):
    # k = phi*'(phi*^{-1}(1/mu)) / v (the power family's own closed form
    # for a power gauge): its certificate brackets the root of Young's
    # equality, and the norm at it agrees with the root solve
    rel_tol = 1e-12
    for mu in 10.0 ** np.arange(-10.0, 7.0, 2.0):
        for v in 10.0 ** np.arange(-4.0, 5.0, 2.0):
            vals, mus = np.array([v]), np.array([mu])
            f = norms._conjugate_modular(phi, vals, mus)
            k = norms._minimiser_seed(phi, vals, mus, rel_tol)
            below, above = f(k * np.array([1.0 - 0.5 * rel_tol, 1.0 + 0.5 * rel_tol]))
            assert below < 1.0 <= above, (mu, v)
            k_root, want = _averaged_root(phi, vals, mus)
            assert abs(k - k_root) <= 1.5 * rel_tol * k_root, (mu, v)
            assert math.isclose(norms._orlicz(phi, vals, mus), want, rel_tol=1e-12), (mu, v)


def test_power_averaged_norm_closed_form_over_several_atoms():
    # the conjugate modular is (p - 1) M k^p: k = ((p - 1) M)^(-1/p)
    rng = np.random.default_rng(41)
    for case in range(40):
        n = int(rng.integers(2, 8))
        vals = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
        mus = 10.0 ** rng.uniform(-4.0, 3.0, n)
        phi = PowerYoung(rng.uniform(1.05, 6.0), rng.uniform(0.3, 3.0))
        big_m = phi.scale / phi.p * float(np.sum(mus * vals ** phi.p))
        k = norms._minimiser_seed(phi, vals, mus, 1e-12)
        assert math.isclose(k, ((phi.p - 1.0) * big_m) ** (-1.0 / phi.p), rel_tol=1e-13), case
        k_root, want = _averaged_root(phi, vals, mus)
        assert abs(k - k_root) <= 1.5e-12 * k_root, case
        assert math.isclose(norms._orlicz(phi, vals, mus), want, rel_tol=1e-12), case


@pytest.mark.parametrize("phi", _FAMILIES, ids=lambda phi: type(phi).__name__)
def test_an_averaged_norm_seed_that_is_off_is_solved(phi, monkeypatch):
    # a wrong phi*^{-1} (or power closed form) gives a seed that phi and
    # phi' alone refuse, and the norm is then exactly the root solve's
    vals, mus = np.array([0.7]), np.array([2.5])
    want = norms._orlicz(phi, vals, mus)
    star = type(phi.conjugate())
    inverse = star.inverse
    monkeypatch.setattr(star, "inverse", lambda self, y, rel_tol=1e-12: 2.0 * inverse(self, y, rel_tol))
    power_root = norms._power_root
    monkeypatch.setattr(norms, "_power_root", lambda *a: 2.0 * power_root(*a))
    seed = norms._minimiser_seed(phi, vals, mus, 1e-12)
    assert not norms._certifies(norms._conjugate_modular(phi, vals, mus), 1.0, seed)
    assert norms._orlicz(phi, vals, mus) == _averaged_root(phi, vals, mus)[1]
    assert math.isclose(norms._orlicz(phi, vals, mus), want, rel_tol=1e-12)


@pytest.mark.parametrize("phi", [DensityYoung([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 2.0]]),
                                 ExpYoung(1e-300, 1e-300)], ids=["flat density", "tiny exp"])
def test_averaged_norm_of_a_gauge_without_a_conjugate_is_solved(phi):
    # a flat segment has no conjugate table, and 1 / (scale * rate) overflows
    # the conjugate's rate: there is no seed, and the norm is the root solve's
    vals, mus = np.array([0.7]), np.array([0.3])
    assert math.isnan(norms._minimiser_seed(phi, vals, mus, 1e-12))
    assert norms._orlicz(phi, vals, mus) == _averaged_root(phi, vals, mus)[1]


def test_averaged_norm_of_a_tiny_support_where_t_times_the_density_overflows(capsys):
    # t phi'(t) overflows near the minimiser while phi*(phi'(t)) = t^2 / 2 is
    # finite; one atom of a p = 2 gauge has orlicz = 2 lux exactly
    from orliczval.cli import main

    assert main(["norm", "--phi", "power:2", "--indicator", "ball:1.684e-103", "--dim", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orlicz"] == 1.4143517605643318e-154 == 2.0 * doc["luxemburg"]
    # only the overflowed entries are recomputed: the rest stay t phi'(t) - phi(t)
    phi, t = PowerYoung(2.0), np.array([0.5, 3.0, 1e150, 1.5e154, 1.8e154])
    gap = norms._conjugate_modular(phi, np.array([1.0]), np.array([1.0]))(t)
    with np.errstate(over="ignore"):
        plain = t * phi.density(t) - phi.eval(t)
    assert np.array_equal(gap[:3], plain[:3]) and np.isinf(plain[3:]).all()
    assert np.allclose(gap[3:], (t[3:] / math.sqrt(2.0)) ** 2, rtol=1e-15, atol=0.0)


def test_density_conjugate_is_built_once_and_is_an_involution():
    phi = DensityYoung([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0), (2.0, 3.0)], 3.0)
    star = phi.conjugate()
    assert phi.conjugate() is star and star.conjugate() is phi
    # the cached table is the one a fresh transpose gives, bit for bit
    assert star == DensityYoung(np.column_stack((phi._d, phi._s)), 1.0 / 3.0)
    flat = DensityYoung([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 2.0]])
    for _ in range(2):
        with pytest.raises(CapabilityError, match="flat segment"):
            flat.conjugate()
