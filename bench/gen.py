"""Seeded input specs for the three workloads.

Every generator returns plain JSON data (dicts, lists, floats, ints) and
touches nothing in ``orliczval``, so the same seed gives byte-identical
specs whatever the library does.  Each workload is a fixed *schedule*:
the seed picks geometry, values and gauges, while the mix of case kinds
(and therefore the cost profile) is the same for every seed.  That is
what keeps the end-to-end figures of two seeds comparable.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("lattice", "gauge", "covers")

# Held-out seed: never used while tuning the benchmark; a later claim of a
# gain must also hold on it.
HELD_OUT_SEED = 90210


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _value(rng):
    # nonzero dyadic heights, so lattice max/min compare exactly
    k = int(rng.integers(1, 25))
    return float(k / 8.0 if rng.random() < 0.5 else -k / 8.0)


def _term(value, parts, dim):
    return {"value": value, "region": {"dim": dim, "parts": parts}}


# -- lattice ---------------------------------------------------------------

# Coordinates are continuous draws, so two functions never share a cut and
# the size of a refinement depends only on the part counts.

def _radial_parts(rng, dim, k, ball):
    radii = np.sort(rng.uniform(0.05, 2.0, 2 * k))
    parts = [{"kind": "annulus", "dim": dim, "inner": float(lo), "outer": float(hi)}
             for lo, hi in zip(radii[::2], radii[1::2])]
    if ball:  # the first function's innermost part reaches the origin
        parts[0] = {"kind": "origin_ball", "dim": dim, "radius": parts[0]["outer"]}
    return parts


def _box_parts(rng, dim, k):
    # box j takes the j-th of k disjoint slabs on axis 0 (so the boxes are
    # disjoint) and a permuted slab on every other axis
    slabs = [np.sort(rng.uniform(-1.5, 1.5, 2 * k)).reshape(k, 2) for _ in range(dim)]
    perms = [np.arange(k)] + [rng.permutation(k) for _ in range(dim - 1)]
    return [{"kind": "axis_box",
             "lo": [float(slabs[a][perms[a][j], 0]) for a in range(dim)],
             "hi": [float(slabs[a][perms[a][j], 1]) for a in range(dim)]}
            for j in range(k)]


def convex_polygon(rng, center, radius, m):
    """ccw convex m-gon inscribed in a circle, angles at least 0.3 rad apart."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        gaps = np.diff(np.concatenate((ang, [ang[0] + 2.0 * math.pi])))
        if gaps.min() >= 0.3:
            break
    return [[float(center[0] + radius * math.cos(a)),
             float(center[1] + radius * math.sin(a))] for a in ang]


def _polygon_parts(rng, k):
    # one polygon per distinct cell of a 3x3 layout of unit cells, shifted by
    # a fixed distance in a seeded direction so the two layouts overlap
    a = rng.uniform(0.0, 2.0 * math.pi)
    off = 0.45 * np.array([math.cos(a), math.sin(a)])
    cells = rng.choice(9, size=k, replace=False)
    parts = []
    for j, c in enumerate(cells):
        i, jj = divmod(int(c), 3)
        center = off + np.array([i - 1.0, jj - 1.0]) + rng.uniform(-0.05, 0.05, 2)
        parts.append({"kind": "polytope",
                      "vertices": convex_polygon(rng, center, rng.uniform(0.3, 0.4),
                                                 4 + j % 3)})
    return parts


def _tetra_parts(rng, k):
    # one tetrahedron per distinct octant-sized cell, so parts are disjoint
    cells = rng.choice(8, size=k, replace=False)
    parts = []
    for c in cells:
        corner = np.array(np.unravel_index(int(c), (2, 2, 2)), float) - 1.0
        base = corner + rng.uniform(0.05, 0.2, 3)
        pts = base + np.vstack([np.zeros(3), np.diag(rng.uniform(0.4, 0.75, 3))])
        pts = pts + rng.uniform(-0.04, 0.04, (4, 3)) * np.array([0, 1, 1, 1])[:, None]
        parts.append({"kind": "polytope", "vertices": pts.tolist()})
    return parts


# (kind, dim) cycle of the lattice schedule; each kind also cycles through
# every (parts of f, parts of g) count in 1..3, so box-grid tails recur.
LATTICE_KINDS = (("radial", 2), ("radial", 3), ("box", 2), ("box", 3),
                 ("polygon", 2), ("polytope", 3))
_COUNTS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
LATTICE_ROUNDS = 2   # 108 cases per pass


def lattice_specs(seed):
    rng = _rng("lattice", seed)
    cases = []
    for _ in range(LATTICE_ROUNDS):
        for a, b in _COUNTS:
            for kind, dim in LATTICE_KINDS:
                case = {"kind": kind, "dim": dim}
                for name, k in (("f", a), ("g", b)):
                    if kind == "radial":
                        parts = _radial_parts(rng, dim, k, ball=name == "f")
                    elif kind == "box":
                        parts = _box_parts(rng, dim, k)
                    elif kind == "polygon":
                        parts = _polygon_parts(rng, k)
                    else:
                        parts = _tetra_parts(rng, k)
                    case[name] = {"dim": dim, "terms": [_term(_value(rng), [p], dim)
                                                        for p in parts]}
                case["composers"] = [
                    {"kind": "polynomial",
                     "coeffs": [float(c) for c in rng.integers(-4, 5, 3) / 4.0 + [0.25, 0, 0]]},
                    {"kind": "odd", "phi": {"family": "power",
                                            "params": {"p": float(rng.integers(5, 13) / 4.0),
                                                       "scale": 1.0}}},
                ]
                if kind in ("polygon", "polytope"):
                    case["unimodular_seed"] = int(rng.integers(2 ** 31))
                cases.append(case)
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


# -- gauge -----------------------------------------------------------------

def gauge_spec(rng, family):
    if family == "power":
        return {"family": "power", "params": {"p": float(rng.uniform(1.3, 4.0)),
                                              "scale": float(rng.uniform(0.5, 2.0))}}
    if family in ("exp", "log"):
        return {"family": family, "params": {"scale": float(rng.uniform(0.5, 2.0)),
                                             "rate": float(rng.uniform(0.5, 2.0))}}
    s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 0.8, 5))))
    d = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, 5))))
    return {"density": np.column_stack((s, d)).tolist(),
            "tail_slope": float(rng.uniform(0.5, 2.0))}


GAUGE_FAMILIES = ("power", "exp", "log", "density")

# Pool categories.  "origin" parts contain or touch the origin and are
# pairwise overlapping, so a case takes at most one of them ("ball_annulus"
# is the one disjoint radial pair); "far" parts sit in fixed, mutually
# disjoint places away from the origin group and can join any case.
ORIGIN_KINDS = ("ball", "annulus", "ball_annulus", "box_inside", "box_face",
                "box_corner")
FAR_KINDS = {2: ("box_far", "shifted_ball", "polygon"), 3: ("box_far", "shifted_ball")}
# 3D boxes around the origin cost 0.1-0.6 s of cubature each, against about
# 20 ms for a typical case.  One template each per round keeps them near 5%
# of cases: they dominate the time per round, while p90 stays inside the
# dense middle of the latency distribution instead of on their edge.
HEAVY = {"box_inside": 1, "box_face": 2}


def _pool_entry(rng, kind, dim):
    u = lambda a, b: float(rng.uniform(a, b))  # noqa: E731
    if kind == "ball":
        return [{"kind": "origin_ball", "dim": dim, "radius": u(0.3, 0.6)}]
    if kind == "annulus":
        return [{"kind": "annulus", "dim": dim, "inner": u(0.7, 0.9), "outer": u(1.0, 1.3)}]
    if kind == "ball_annulus":
        return (_pool_entry(rng, "ball", dim) + _pool_entry(rng, "annulus", dim))
    if kind == "box_inside":
        lo = [-u(0.2, 0.5) for _ in range(dim)]
        return [{"kind": "axis_box", "lo": lo, "hi": [u(0.2, 0.5) for _ in range(dim)]}]
    if kind == "box_face":
        lo = [0.0] + [-u(0.2, 0.5) for _ in range(dim - 1)]
        return [{"kind": "axis_box", "lo": lo, "hi": [u(0.3, 0.6) for _ in range(dim)]}]
    if kind == "box_corner":
        lo = [u(0.005, 0.05) for _ in range(dim)]
        return [{"kind": "axis_box", "lo": lo, "hi": [u(0.4, 0.8) for _ in range(dim)]}]
    if kind == "box_far":
        lo = [-u(2.6, 3.0)] + [u(-0.5, 0.0) for _ in range(dim - 1)]
        return [{"kind": "axis_box", "lo": lo,
                 "hi": [lo[0] + u(0.3, 0.8)] + [u(0.2, 0.6) for _ in range(dim - 1)]}]
    if kind == "shifted_ball":
        return [{"kind": "shifted_ball", "dim": dim, "radius": u(0.3, 0.8),
                 "offset": u(2.3, 3.0)}]
    if kind == "polygon":
        return [{"kind": "polytope",
                 "vertices": convex_polygon(rng, [u(-0.4, 0.4), u(2.0, 2.6)], u(0.3, 0.5),
                                            int(rng.integers(3, 8)))}]
    raise ValueError(kind)


GAUGE_VARIANTS = 6   # pool entries per (kind, dim)
GAUGE_ROUNDS = 6     # 37 cases per round, 222 per pass


def gauge_specs(seed):
    """Pool of region specs plus a schedule of cases that reuse them.

    Main share: every (dim, origin kind, number of far terms) in each
    round.  Minority shares: rasterized grids in 2D and 3D, and 3D
    box-shaped polytopes measured by Monte Carlo.  Gauge families cycle
    through the cases, so every seed has the same family mix.
    """
    rng = _rng("gauge", seed)
    pool = {}
    for dim in (2, 3):
        for kind in ORIGIN_KINDS + FAR_KINDS[dim]:
            for v in range(GAUGE_VARIANTS):
                pool[f"{kind}{dim}.{v}"] = _pool_entry(rng, kind, dim)

    def pick(kind, dim):
        return f"{kind}{dim}.{int(rng.integers(GAUGE_VARIANTS))}"

    cases = []
    for r in range(GAUGE_ROUNDS):
        for dim in (2, 3):
            for kind in ORIGIN_KINDS:
                for extra in (0, 1, 2):
                    if kind == "ball_annulus" and extra == 2:
                        continue  # at most three terms
                    if dim == 3 and kind in HEAVY:
                        if extra != HEAVY[kind]:
                            continue
                        # every variant once per schedule: the seed's heavy
                        # cost is a sum over distinct geometries
                        keys = [f"{kind}{dim}.{r % GAUGE_VARIANTS}"]
                    else:
                        keys = [pick(kind, dim)]
                    keys += [pick(far, dim)
                             for far in rng.choice(FAR_KINDS[dim], extra, replace=False)]
                    cases.append({"kind": "simple", "dim": dim, "pool": keys})
        for dim, shape in ((2, [24, 24]), (3, [10, 10, 10])):
            for kind in ("ball_annulus", "box_inside"):
                cases.append({"kind": "grid", "dim": dim, "shape": shape,
                              "pool": [pick(kind, dim), pick("box_far", dim)]})
        for _ in range(3):
            lo = [float(x) for x in rng.uniform(0.05, 0.4, 3) * rng.choice([-1, 1], 3)]
            hi = [a + float(rng.uniform(0.3, 0.6)) for a in lo]
            cases.append({"kind": "monte_carlo", "dim": 3, "lo": lo, "hi": hi,
                          "samples": 300, "mc_seed": int(rng.integers(2 ** 31))})
    for i, c in enumerate(cases):
        c["gauge"] = gauge_spec(rng, GAUGE_FAMILIES[i % 4])
        c["values"] = [_value(rng) for _ in c.get("pool", ())]
    order = rng.permutation(len(cases))
    return {"pool": pool, "cases": [cases[i] for i in order]}


# -- covers ----------------------------------------------------------------

# Depth multiset of one pass: weighted toward shallow covers, with two
# depth-12 cases (one of them the unit triangle).  The middle of the
# latency distribution is one block of eight depth-7 covers and its 90th
# percentile lies inside the depth-11 block, so neither p50 nor p90 sits on
# the edge between two depths.
COVER_DEPTHS = (4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7,
                8, 8, 9, 10, 11, 11, 11, 12, 12)


def spanning_polygon(rng, m):
    """Convex m-gon inscribed in the disc of the unit square.

    The four axis points of the disc are always vertices, so every
    polygon's bounding box is the whole unit square and the cost of a
    cover depends on its depth and vertex count, not on the seed.
    """
    while True:
        extra = rng.uniform(0.0, 2.0 * math.pi, m - 4)
        ang = np.sort(np.concatenate(([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi], extra)))
        gaps = np.diff(np.concatenate((ang, [2.0 * math.pi])))
        if gaps.min() >= 0.2:
            break
    return [[0.5 + 0.5 * math.cos(a), 0.5 + 0.5 * math.sin(a)] for a in ang]


UNIT_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def covers_specs(seed):
    rng = _rng("covers", seed)
    cases = []
    for i, depth in enumerate(COVER_DEPTHS):
        if i == len(COVER_DEPTHS) - 1:
            verts = UNIT_TRIANGLE
        else:
            verts = spanning_polygon(rng, 5 + i % 4)
        cases.append({"depth": depth, "vertices": verts,
                      "gauge": gauge_spec(rng, GAUGE_FAMILIES[i % 4]),
                      "composer": {"kind": "polynomial",
                                   "coeffs": [float(c) for c in rng.integers(1, 5, 2) / 4.0]}})
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def specs(workload, seed):
    if workload == "lattice":
        return lattice_specs(seed)
    if workload == "gauge":
        return gauge_specs(seed)
    if workload == "covers":
        return covers_specs(seed)
    raise ValueError(f"unknown workload {workload!r}")
