"""Tests of the benchmark itself: python -m pytest -q bench/tests"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cases
import gen
import run
import spans
from conftest import BENCH

ROOT = os.path.dirname(BENCH)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tr = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    c = tr.open("c")
    d = tr.open("d")
    tr.close(d)
    tr.close(c)
    tr.close(a)
    assert dict(tr.self_s) == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert dict(tr.calls) == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert list(tr.parent) == [-1, 0, 0, 2]


def test_spans_share_the_case_id_and_are_saved(tmp_path):
    tr = spans.Tracer()
    for case in (0, 1):
        tr.case_id = case
        tr.close(tr.open("x"))
    path = tmp_path / "t.npz"
    tr.save(path)
    with np.load(path) as z:
        assert z["case"].tolist() == [0, 1]
        assert json.loads(str(z["names"])) == ["x"]
        assert np.all(z["t1"] >= z["t0"])


def test_instrumentation_restores_every_original():
    from orliczval import functions, numerics, regions, young

    before = (regions.part_contains, functions.part_contains, young.solve_monotone,
              numerics.solve_monotone, regions.Region.__dict__["weighted_measure"],
              functions.SimpleFunction.__dict__["from_json"])
    ins = spans.instrument(spans.Tracer())
    assert functions.part_contains is regions.part_contains is not before[0]
    ins.uninstall()
    after = (regions.part_contains, functions.part_contains, young.solve_monotone,
             numerics.solve_monotone, regions.Region.__dict__["weighted_measure"],
             functions.SimpleFunction.__dict__["from_json"])
    assert all(x is y for x, y in zip(before, after))


def test_traced_calls_are_counted_with_their_counters():
    from orliczval import regions

    tr = spans.Tracer()
    ins = spans.instrument(tr)
    try:
        tr.active = True
        region = regions.Region([regions.AxisBox([0.0, 0.0], [1.0, 1.0])])
        region.weighted_measure(1e-9)
        region.weighted_measure(1e-9)
    finally:
        ins.uninstall()
    m = tr.metrics()
    assert m["regions.weighted_measure.calls"] == 2
    assert m["regions.part_weighted_measure.axis_box2.calls"] == 1
    assert m["regions.weighted_measure.cache_hit_ratio"] == 0.5
    assert m["polytopes.polygon_weighted_measure.calls"] == 1


def test_refine_is_named_by_its_algebra_and_counts_the_grid():
    from orliczval import functions, regions

    def boxes(*spec):
        return functions.SimpleFunction(2, [(1.0, regions.Region([regions.AxisBox(lo, hi)]))
                                            for lo, hi in spec])

    f = boxes(([0.0, 0.0], [2.0, 2.0]))
    g = boxes(([1.0, 1.0], [3.0, 3.0]))
    tr = spans.Tracer()
    ins = spans.instrument(tr)
    try:
        tr.active = True
        functions.refine(f, g)
    finally:
        ins.uninstall()
    m = tr.metrics()
    assert m["functions.refine.box.calls"] == 1
    assert m["functions.refine.radial.calls"] == m["functions.refine.polygon.calls"] == 0
    assert m["functions.refine.box.grid_cells"] == 9
    assert m["functions.refine.cells_out"] == 7  # 4 + 4 cells, one shared
    assert m["functions.refine.box.kept_ratio"] == 7 / 9


def test_a_name_the_library_lacks_is_skipped():
    ins = spans.Instrumentation(spans.Tracer())
    ins.function(type(sys)("empty"), "gone", "x")
    ins.method(object, "gone", "x")
    ins.prop(object, "gone", "x")
    assert ins.saved == []


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload):
    a = json.dumps(gen.specs(workload, 7), sort_keys=True)
    assert a == json.dumps(gen.specs(workload, 7), sort_keys=True)
    assert a != json.dumps(gen.specs(workload, 8), sort_keys=True)


def _mix(workload, seed):
    s = gen.specs(workload, seed)
    if workload == "lattice":
        return sorted((c["kind"], c["dim"], len(c["f"]["terms"]), len(c["g"]["terms"]))
                      for c in s)
    if workload == "gauge":
        return sorted((c["kind"], c.get("dim"), len(c.get("pool", ())),
                       "density" if "density" in c["gauge"] else c["gauge"]["family"])
                      for c in s["cases"])
    return sorted((c["depth"], len(c["vertices"])) for c in s)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_seed_has_the_same_case_mix(workload):
    assert _mix(workload, 1) == _mix(workload, 2)


def _first(workload, seed, pred):
    specs = gen.specs(workload, seed)
    for case in cases.build(workload, specs):
        if pred(case):
            out = case.run()
            assert cases.CHECKS[workload](case, out) == []
            return case, out
    raise AssertionError("no such case")


def _rejects(workload, case, out, edit):
    bad = copy.copy(out)
    edit(bad)
    return cases.CHECKS[workload](case, bad) != []


def test_lattice_checks_reject_perturbed_values():
    case, out = _first("lattice", 3, lambda c: c.spec["kind"] == "polygon")
    assert _rejects("lattice", case, out, lambda o: o.update(
        identity=[r + 1e-6 for r in o["identity"]]))
    assert _rejects("lattice", case, out, lambda o: o.update(
        covariance=[r - 1e-6 for r in o["covariance"]]))
    assert _rejects("lattice", case, out, lambda o: o.update(
        symdiff_lebesgue=o["symdiff_lebesgue"] * (1 + 1e-6)))


def test_gauge_checks_reject_perturbed_values():
    case, out = _first("gauge", 3, lambda c: c.kind == "simple" and len(c.spec["pool"]) == 2)

    def report(**kw):
        return lambda o: o.update(report={**o["report"], **kw})

    lux = out["report"]["luxemburg"]
    assert _rejects("gauge", case, out, report(orlicz=2.01 * lux))
    assert _rejects("gauge", case, out, report(orlicz=0.99 * lux))
    assert _rejects("gauge", case, out, report(luxemburg=lux * (1 + 1e-6)))

    def term(**kw):
        return lambda o: o.update(terms=[{**o["terms"][0], **kw}] + o["terms"][1:])

    t = out["terms"][0]
    assert _rejects("gauge", case, out, term(indicator=t["indicator"] * (1 + 1e-6)))
    assert _rejects("gauge", case, out, term(mu=type(t["mu"])(t["mu"].value, 2e-9)))

    case, out = _first("gauge", 3, lambda c: c.kind == "monte_carlo")
    assert _rejects("gauge", case, out, lambda o: o.update(
        estimate=o["estimate"] + (cases.MC_SIGMAS + 2.0) * o["stderr"]))


def test_covers_checks_reject_perturbed_values():
    case, out = _first("covers", 3, lambda c: c.depth == 6)
    area = case.truth["area"]
    assert _rejects("covers", case, out, lambda o: o.update(lebesgue=area + 1e-9))
    assert _rejects("covers", case, out, lambda o: o.update(lebesgue=o["lebesgue"] - 0.1))
    assert _rejects("covers", case, out, lambda o: o.update(
        mu=type(o["mu"])(case.truth["mu"] + 1e-9, 0.0)))
    assert _rejects("covers", case, out, lambda o: o.update(
        moment=o["moment"] + np.array([0.0, 1e-3])))
    assert _rejects("covers", case, out, lambda o: o.update(psi=o["psi"] * 1.001))
    assert _rejects("covers", case, out, lambda o: o.update(orlicz=3.0 * o["luxemburg"]))
    assert _rejects("covers", case, out, lambda o: o.update(
        indicator=o["indicator"] * (1 + 1e-6)))


def test_reference_polygon_mu_matches_the_library():
    from orliczval import polytopes

    rng = np.random.default_rng(0)
    for m in (5, 6, 7, 8):
        v = gen.spanning_polygon(rng, m)
        want = polytopes.polygon_weighted_measure(np.array(v))
        assert abs(cases.ref.polygon_weighted_measure(v) - want) <= 1e-13


def test_typical_times_drop_a_noisy_repeat_and_keep_the_weights():
    res = run.LoopResult()
    res.sequence = [0, 1, 0, 1, 0, 1]
    res.times = [1.0, 5.0, 9.0, 6.0, 2.0, 4.0]
    assert run.typical_times(res) == [2.0, 5.0, 2.0, 5.0, 2.0, 5.0]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "cases_per_s", "case_p50_ms", "case_p90_ms", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lattice",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
