"""Build each workload's cases from its specs, run them, and check them.

A case's ``run`` makes only the library calls a user of that workload
would make, and is the part that is timed (and traced).  ``check(case,
out)`` compares the outputs with the independent values of
``reference`` and returns a list of failure messages; it runs off the
clock.  Library functions are looked up on their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from orliczval import functions as F
from orliczval import norms as N
from orliczval import polytopes as P
from orliczval import regions as R
from orliczval import valuations as V
from orliczval import young as Y
from orliczval.errors import CapabilityError

TOL = 1e-9          # abs_tol handed to every mu and norm call
RESIDUAL = 1e-9     # lattice identity and covariance residuals
MODULAR = 1e-8      # |modular(h / lux) - 1|
AGREE = 1e-8        # closed-form versus minimised indicator norm
SLACK = 1e-9        # relative rounding slack on inequalities
# Standard errors a Monte Carlo mu may lie from the exact box value.  The
# 300-sample estimate is unbiased, and its standardised error passes 4 in
# about 7e-5 of draws (a correct seed's draw reached 4.05); none of 1.2
# million simulated draws passed 6, while a wrong formula misses by far more.
MC_SIGMAS = 6.0


def _norm_failures(lux, orl, what):
    out = []
    if not (lux <= orl * (1 + SLACK) and orl <= 2.0 * lux * (1 + SLACK)):
        out.append(f"{what}: lux {lux!r} <= orl {orl!r} <= 2 lux fails")
    return out


def _agree(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- lattice ---------------------------------------------------------------

class LatticeCase:
    def __init__(self, spec):
        self.spec = spec
        self.f = F.SimpleFunction.from_json(spec["f"])
        self.g = F.SimpleFunction.from_json(spec["g"])
        self.composers = [V.composer_from_json(c) for c in spec["composers"]]
        self.theta = None
        if "unimodular_seed" in spec:
            rng = np.random.default_rng(spec["unimodular_seed"])
            self.theta = P.random_unimodular(spec["dim"], rng, num_shears=3, magnitude=4)
        self.exact = spec["kind"] != "polytope"  # no 3D polytope refinement algebra
        if self.exact:
            self.supp_f = R.Region([p for _, r in self.f.terms for p in r.parts])
            self.supp_g = R.Region([p for _, r in self.g.terms for p in r.parts])

    def run(self):
        out = {"identity": [], "covariance": []}
        if self.exact:
            out["max_min"] = F.lattice_max_min(self.f, self.g)
            for xi in self.composers:
                out["identity"].append(V.check_valuation_identity(xi, self.f, self.g))
            out["symdiff_lebesgue"] = R.symmetric_difference(self.supp_f, self.supp_g).lebesgue()
        if self.theta is not None:
            for xi in self.composers:
                for h in (self.f, self.g):
                    out["covariance"].append(V.check_covariance(xi, h, self.theta))
        return out


def check_lattice(case, out):
    bad = []
    for r in out["identity"]:
        if not np.max(np.abs(r)) <= RESIDUAL:
            bad.append(f"valuation identity residual {np.max(np.abs(r))!r}")
    for r in out["covariance"]:
        if not np.max(np.abs(r)) <= RESIDUAL:
            bad.append(f"covariance residual {np.max(np.abs(r))!r}")
    if case.exact:
        f, g = case.spec["f"], case.spec["g"]
        want = (ref.support_volume(f) + ref.support_volume(g)
                - 2.0 * ref.support_overlap(f, g))
        got = out["symdiff_lebesgue"]
        if not abs(got - want) <= RESIDUAL * max(1.0, want):
            bad.append(f"symmetric difference measure {got!r}, reference {want!r}")
    return bad


# -- gauge -----------------------------------------------------------------

class GaugeCase:
    def __init__(self, spec, pool):
        self.spec = spec
        self.kind = spec["kind"]
        self.phi = Y.young_from_json(spec["gauge"])
        if self.kind == "monte_carlo":
            lo, hi = spec["lo"], spec["hi"]
            self.corners = [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
                            for z in (lo[2], hi[2])]
            self.box_mu = None  # reference, filled in by the first check
        else:
            dim = spec["dim"]
            # the JSON a CLI caller would send; regions are rebuilt from it per case
            self.h_json = {"dim": dim, "terms": [
                {"value": v, "region": {"dim": dim, "parts": pool[k]}}
                for v, k in zip(spec["values"], spec["pool"])]}

    def run(self):
        if self.kind == "monte_carlo":
            region = R.Region([P.Polytope(self.corners)])
            try:
                wm = R.weighted_measure(region, TOL)
                return {"estimate": wm.value, "stderr": 0.0, "bound": wm.error_bound}
            except CapabilityError:
                rng = np.random.default_rng(self.spec["mc_seed"])
                est, se = R.estimate_weighted_measure(region, self.spec["samples"], rng)
                return {"estimate": est, "stderr": se, "bound": 0.0}
        h = F.SimpleFunction.from_json(self.h_json)
        if self.kind == "grid":
            grid = F.rasterize(h, tuple(self.spec["shape"]))
            return {"h": h, "grid": grid, "report": N.norm_report(self.phi, grid, TOL)}
        out = {"h": h, "report": N.norm_report(self.phi, h, TOL), "terms": []}
        for _, region in h.terms:
            out["terms"].append({
                "mu": R.weighted_measure(region, TOL),
                "indicator": N.indicator_norm(self.phi, region, TOL),
                "orlicz": N.orlicz_norm(self.phi, F.SimpleFunction.indicator(region),
                                        abs_tol=TOL),
            })
        return out


def check_gauge(case, out):
    spec = case.spec
    if case.kind == "monte_carlo":
        if case.box_mu is None:
            case.box_mu = R.weighted_measure(R.Region([R.AxisBox(spec["lo"], spec["hi"])]),
                                             TOL)
        gap = abs(out["estimate"] - case.box_mu.value)
        allowed = (MC_SIGMAS * out["stderr"] + out["bound"] + case.box_mu.error_bound
                   + SLACK * abs(case.box_mu.value))  # an exact mu has no stderr
        if not gap <= allowed:
            return [f"Monte Carlo mu {out['estimate']!r} +- {out['stderr']!r} "
                    f"vs box mu {case.box_mu.value!r}"]
        return []
    rep = out["report"]
    lux, orl = rep["luxemburg"], rep["orlicz"]
    bad = _norm_failures(lux, orl, "norm_report")
    if case.kind == "grid":
        vals = np.abs(out["grid"].flat_values())
        mus = out["grid"].cell_weighted_measures()[0]
    else:
        per_term = TOL / len(out["h"].terms)
        vals = np.array([abs(v) for v, _ in out["h"].terms])
        mus = []
        for _, region in out["h"].terms:
            wm = region.weighted_measure(per_term)
            mus.append(wm.value)
            if not wm.error_bound <= per_term:
                bad.append(f"mu error bound {wm.error_bound!r} > {per_term!r}")
        mus = np.array(mus)
        for t in out["terms"]:
            if not t["mu"].error_bound <= TOL:
                bad.append(f"mu error bound {t['mu'].error_bound!r} > {TOL!r}")
            if not _agree(t["indicator"], t["orlicz"], AGREE):
                bad.append(f"indicator norm {t['indicator']!r} vs minimised {t['orlicz']!r}")
    modular = float(np.sum(ref.phi(spec["gauge"], vals / lux) * mus))
    if not abs(modular - 1.0) <= MODULAR:
        bad.append(f"modular at luxemburg norm {modular!r}")
    return bad


# -- covers ----------------------------------------------------------------

class CoversCase:
    def __init__(self, spec):
        self.spec = spec
        self.depth = spec["depth"]
        self.poly = P.Polytope(spec["vertices"])
        self.phi = Y.young_from_json(spec["gauge"])
        self.xi = V.composer_from_json(spec["composer"])
        self.truth = None  # reference values of the polygon, filled in by the first check

    def run(self):
        cover = R.cube_cover(self.poly, self.depth)
        h = F.SimpleFunction.indicator(cover)
        return {
            "lebesgue": R.lebesgue(cover),
            "mu": R.weighted_measure(cover, TOL),
            "moment": R.moment(cover),
            "psi": V.psi(self.xi, h),
            "luxemburg": N.luxemburg_norm(self.phi, h, abs_tol=TOL),
            "orlicz": N.orlicz_norm(self.phi, h, abs_tol=TOL),
            "indicator": N.indicator_norm(self.phi, cover, TOL),
        }


def check_covers(case, out):
    v = case.spec["vertices"]
    if case.truth is None:
        case.truth = {"area": ref.polygon_area(v), "mu": ref.polygon_weighted_measure(v),
                      "moment": ref.polygon_moment(v), "perimeter": ref.polygon_perimeter(v),
                      "sup": float(np.max(np.linalg.norm(v, axis=1)))}
    t = case.truth
    bad = []
    eps = 1e-12
    area_gap = t["area"] - out["lebesgue"]
    mom_gap = t["moment"] - out["moment"]
    if not area_gap >= -eps:
        bad.append(f"cover area exceeds polygon area by {-area_gap!r}")
    if not t["mu"] - out["mu"].value >= -eps:
        bad.append(f"cover mu {out['mu'].value!r} exceeds polygon mu {t['mu']!r}")
    if not np.all(mom_gap >= -eps):
        bad.append(f"negative moment gap {mom_gap.tolist()!r}")
    if not area_gap <= t["perimeter"] * math.sqrt(2.0) * 2.0 ** -case.depth:
        bad.append(f"uncovered area {area_gap!r} above perimeter*sqrt2*2^-depth")
    if not np.linalg.norm(mom_gap) <= t["sup"] * max(area_gap, 0.0) + eps:
        bad.append(f"moment gap {np.linalg.norm(mom_gap)!r} above sup|x| * area gap")
    if not out["mu"].error_bound <= TOL:
        bad.append(f"mu error bound {out['mu'].error_bound!r} > {TOL!r}")
    if not np.allclose(out["psi"], case.xi(1.0) * out["moment"], rtol=1e-12, atol=eps):
        bad.append("psi of the cover indicator is not xi(1) times its moment")
    if out["lebesgue"] > 0.0:
        bad += _norm_failures(out["luxemburg"], out["orlicz"], "cover indicator")
        if not _agree(out["indicator"], out["orlicz"], AGREE):
            bad.append(f"indicator norm {out['indicator']!r} vs minimised {out['orlicz']!r}")
    return bad


def build(workload, specs):
    """Library objects for every case; this is the timed part of set-up."""
    if workload == "lattice":
        return [LatticeCase(s) for s in specs]
    if workload == "gauge":
        return [GaugeCase(s, specs["pool"]) for s in specs["cases"]]
    return [CoversCase(s) for s in specs]


CHECKS = {"lattice": check_lattice, "gauge": check_gauge, "covers": check_covers}
