"""Span tracer and the wrappers that put it around each library layer.

Spans are recorded from the benchmark's own files: ``instrument``
replaces each traced function or method with a wrapper, at every module
that binds it, and ``uninstall`` puts the originals back.  Spans live in
flat in-memory arrays (name, parent, case id, start, end) and are written
once, by ``save``, when the run ends.  A span's self time is its
duration minus the durations of its direct children; the tracer adds it
up per name as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# Per-layer metrics reported by a traced run, in output order.  Each name
# ending in ".calls" or ".self_s" reads the span totals of the prefix;
# the others are counters or ratios filled in by the wrappers below.
_TIMED = [
    "young.eval", "young.inverse", "young.conjugate",
    "numerics.solve_monotone", "numerics.minimize_unimodal",
    "numerics.adaptive_box_quadrature",
    "regions.weighted_measure",
    "regions.part_weighted_measure.origin_ball", "regions.part_weighted_measure.annulus",
    "regions.part_weighted_measure.axis_box2", "regions.part_weighted_measure.axis_box3",
    "regions.part_weighted_measure.shifted_ball", "regions.part_weighted_measure.polytope2",
    "regions.part_weighted_measure.polytope3",
    "regions.estimate_weighted_measure", "regions.part_contains", "regions.cube_cover",
    "regions.symmetric_difference", "regions.moment", "regions.lebesgue",
    "polytopes.Polytope.init", "polytopes.Polytope.rank", "polytopes.Polytope.contains",
    "polytopes.Polytope.moment", "polytopes.intersect_polygons",
    "polytopes.subtract_polygon", "polytopes.polygon_weighted_measure",
    "functions.refine.radial", "functions.refine.box", "functions.refine.polygon",
    "functions.lattice_max_min", "functions.SimpleFunction.init",
    "functions.SimpleFunction.from_json", "functions.rasterize",
    "functions.GridFunction.cell_weighted_measures",
    "norms.modular", "norms.luxemburg_norm", "norms.orlicz_norm", "norms.indicator_norm",
    "norms.norm_report",
    "valuations.psi", "valuations.check_valuation_identity", "valuations.check_covariance",
]
_EXTRA = [
    ("numerics.solve_monotone.f_evals", "count"),
    ("numerics.minimize_unimodal.f_evals", "count"),
    ("numerics.adaptive_box_quadrature.cells", "count"),
    ("regions.weighted_measure.cache_hit_ratio", "ratio"),
    ("regions.estimate_weighted_measure.samples", "count"),
    ("regions.part_contains.points", "count"),
    ("regions.cube_cover.boxes_out", "count"),
    ("polytopes.subtract_polygon.pieces_out", "count"),
    ("functions.refine.cells_out", "count"),
    ("functions.refine.box.grid_cells", "count"),
    ("functions.refine.box.kept_ratio", "ratio"),
    ("valuations.psi.terms", "count"),
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.failed_frac", "ratio"),
]
LAYER_METRICS = ([(f"{n}.calls", "count") for n in _TIMED]
                 + [(f"{n}.self_s", "s") for n in _TIMED] + _EXTRA)


class Tracer:
    """Nested spans of one thread, with self time accumulated per name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []  # [span index, start, child time, name] of each open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.case_id = -1
        self.active = False

    def open(self, name):
        nid = self.names.setdefault(name, len(self.names))
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.case.append(self.case_id)
        t = self.clock()
        self.t0.append(t)
        self.t1.append(t)
        frame = [idx, t, 0.0, name]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        t = self.clock()
        popped = self.stack.pop()
        assert popped is frame, "spans must close in LIFO order"
        idx, start, child, name = frame
        self.t1[idx] = t
        dur = t - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, key, n=1):
        self.counts[key] += n

    def save(self, path):
        import numpy as np

        names = [n for n, _ in sorted(self.names.items(), key=lambda kv: kv[1])]
        with open(path, "wb") as fh:
            np.savez(fh, name=np.frombuffer(self.name, np.int32),
                     parent=np.frombuffer(self.parent, np.int32),
                     case=np.frombuffer(self.case, np.int32),
                     t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1),
                     names=np.array(json.dumps(names)))

    def metrics(self):
        """Every per-layer metric the tracer knows; run.py adds setup.* and bench.*."""
        c, calls = self.counts, self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "regions.weighted_measure.cache_hit_ratio": ratio(
                c["regions.weighted_measure.hits"], calls["regions.weighted_measure"]),
            "functions.refine.box.kept_ratio": ratio(
                c["functions.refine.box.cells_out"], c["functions.refine.box.grid_cells"]),
            "numerics.adaptive_box_quadrature.cells":
                c["numerics.adaptive_box_quadrature.batches"] / 2.0,
            "bench.self_s": self.self_s["bench.case"],
        }
        for key, unit in LAYER_METRICS:
            base, _, field = key.rpartition(".")
            if key in values or key.startswith(("setup.", "bench.")):
                continue
            if base in _TIMED and field == "calls":
                values[key] = calls[base]
            elif base in _TIMED and field == "self_s":
                values[key] = self.self_s[base]
            else:
                values[key] = c[key]
        return values


# -- instrumentation -------------------------------------------------------

def _span(tracer, fn, name, before=None, after=None):
    """Wrapper recording one span per call; ``name`` may be a function of
    the arguments.  ``before`` may replace the arguments; ``after`` sees
    the arguments and the result."""

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        frame = tracer.open(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _count_first_arg(tracer, key):
    """``before`` hook wrapping the callable first argument in a call counter."""

    def before(args, kwargs):
        if not (args and callable(args[0])):
            return args, kwargs
        f = args[0]

        def counted(*a, **k):
            tracer.count(key)
            return f(*a, **k)

        return (counted,) + tuple(args[1:]), kwargs

    return before


class Instrumentation:
    """Installs the wrappers; ``uninstall`` restores every original."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # A name the library no longer has is skipped, so its metrics read 0
    # instead of the run failing after a refactor.

    def function(self, module, attr, name, **hooks):
        """Wrap a module-level function at every orliczval module binding it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = _span(self.tracer, original, name, **hooks)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "orliczval" or modname.startswith("orliczval.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, cls, attr, name, **hooks):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        if isinstance(fn, classmethod):
            wrapped = classmethod(_span(self.tracer, fn.__func__, name, **hooks))
        else:
            wrapped = _span(self.tracer, fn, name, **hooks)
        self._set(cls, attr, wrapped)

    def prop(self, cls, attr, name):
        prop = cls.__dict__.get(attr)
        if isinstance(prop, property):
            self._set(cls, attr, property(_span(self.tracer, prop.fget, name)))

    def uninstall(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


_PART_KINDS = {"OriginBall": "origin_ball", "Annulus": "annulus",
               "ShiftedBall": "shifted_ball"}


def instrument(tracer):
    """Wrap every traced layer of orliczval; returns the Instrumentation."""
    from orliczval import functions, norms, numerics, polytopes, regions, valuations, young

    t = tracer
    ins = Instrumentation(t)
    cnt = t.count

    for cls in (young.PowerYoung, young.ExpYoung, young.LogYoung, young.DensityYoung):
        ins.method(cls, "eval", "young.eval")
        ins.method(cls, "conjugate", "young.conjugate")
    ins.method(young.YoungFunction, "inverse", "young.inverse")

    for fname in ("solve_monotone", "minimize_unimodal"):
        ins.function(numerics, fname, f"numerics.{fname}",
                     before=_count_first_arg(t, f"numerics.{fname}.f_evals"))
    ins.function(numerics, "adaptive_box_quadrature", "numerics.adaptive_box_quadrature",
                 before=_count_first_arg(t, "numerics.adaptive_box_quadrature.batches"))

    def part_name(part, *a, **k):
        kind = _PART_KINDS.get(type(part).__name__)
        if kind is None:
            kind = ("axis_box" if isinstance(part, regions.AxisBox) else "polytope") + str(part.dim)
        return f"regions.part_weighted_measure.{kind}"

    # a weighted_measure call that opens no part span was served by the cache
    def part_before(args, kwargs):
        cnt("_parts")
        return args, kwargs

    def mu_before(args, kwargs):
        t.counts["_parts_at_mu"] = t.counts["_parts"]
        return args, kwargs

    def mu_after(args, kwargs, result):
        if t.counts["_parts"] == t.counts["_parts_at_mu"]:
            cnt("regions.weighted_measure.hits")

    ins.method(regions.Region, "weighted_measure", "regions.weighted_measure",
               before=mu_before, after=mu_after)
    ins.function(regions, "part_weighted_measure", part_name, before=part_before)
    ins.function(regions, "estimate_weighted_measure", "regions.estimate_weighted_measure",
                 after=lambda a, k, r: cnt("regions.estimate_weighted_measure.samples",
                                           k.get("samples", a[1] if len(a) > 1 else 200_000)))
    ins.function(regions, "part_contains", "regions.part_contains",
                 after=lambda a, k, r: cnt("regions.part_contains.points", len(r)))
    ins.function(regions, "cube_cover", "regions.cube_cover",
                 after=lambda a, k, r: cnt("regions.cube_cover.boxes_out", len(r.parts)))
    ins.function(regions, "symmetric_difference", "regions.symmetric_difference")
    ins.method(regions.Region, "moment", "regions.moment")
    ins.method(regions.Region, "lebesgue", "regions.lebesgue")

    ins.method(polytopes.Polytope, "__init__", "polytopes.Polytope.init")
    ins.prop(polytopes.Polytope, "rank", "polytopes.Polytope.rank")
    ins.method(polytopes.Polytope, "contains", "polytopes.Polytope.contains")
    ins.method(polytopes.Polytope, "moment", "polytopes.Polytope.moment")
    ins.function(polytopes, "intersect_polygons", "polytopes.intersect_polygons")
    ins.function(polytopes, "subtract_polygon", "polytopes.subtract_polygon",
                 after=lambda a, k, r: cnt("polytopes.subtract_polygon.pieces_out", len(r)))
    ins.function(polytopes, "polygon_weighted_measure", "polytopes.polygon_weighted_measure")

    def parts_of(*fns):
        return [p for fn in fns for _, region in fn.terms for p in region.parts]

    def algebra(f, g, *a, **k):
        parts = parts_of(f, g)
        if all(isinstance(p, (regions.OriginBall, regions.Annulus)) for p in parts):
            return "functions.refine.radial"
        if all(isinstance(p, regions.AxisBox) for p in parts):
            return "functions.refine.box"
        return "functions.refine.polygon"

    def refined(a, k, r):
        cnt("functions.refine.cells_out", len(r.cells))
        if algebra(*a) == "functions.refine.box":
            boxes = parts_of(*a)
            grid = 1
            for ax in range(a[0].dim):
                grid *= len({float(b.lo[ax]) for b in boxes} | {float(b.hi[ax]) for b in boxes}) - 1
            cnt("functions.refine.box.grid_cells", grid)
            cnt("functions.refine.box.cells_out", len(r.cells))

    # refine is wrapped whole and named by the algebra its inputs select
    ins.function(functions, "refine", algebra, after=refined)
    ins.function(functions, "lattice_max_min", "functions.lattice_max_min")
    ins.method(functions.SimpleFunction, "__init__", "functions.SimpleFunction.init")
    ins.method(functions.SimpleFunction, "from_json", "functions.SimpleFunction.from_json")
    ins.function(functions, "rasterize", "functions.rasterize")
    ins.method(functions.GridFunction, "cell_weighted_measures",
               "functions.GridFunction.cell_weighted_measures")

    for fname in ("modular", "luxemburg_norm", "orlicz_norm", "indicator_norm", "norm_report"):
        ins.function(norms, fname, f"norms.{fname}")

    ins.function(valuations, "psi", "valuations.psi",
                 after=lambda a, k, r: cnt("valuations.psi.terms", len(a[1].terms)))
    ins.function(valuations, "check_valuation_identity", "valuations.check_valuation_identity")
    ins.function(valuations, "check_covariance", "valuations.check_covariance")
    return ins
