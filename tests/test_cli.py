"""Command-line and suite-driver behaviour."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from orliczval import regions
from orliczval.cli import main
from orliczval.functions import SimpleFunction
from orliczval.polytopes import Polytope
from orliczval.regions import Annulus, Region
from orliczval.suites import (
    SUITES,
    suite_constraint_system,
    suite_continuity,
    suite_covariance,
    suite_divergence,
    suite_norm_agreement,
    suite_valuation,
    suite_young_limits,
)
from orliczval.valuations import (
    PolynomialComposer,
    _ball_ledger,
    build_divergence_plan,
    divergent_truncation,
    psi,
)
from orliczval.young import PowerYoung

# indicator of the unit disk: mu = 2*pi/3, phi = t^2/2
DISK_MU = 2.0 * math.pi / 3.0


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_suite_valuation_small():
    out = suite_valuation(pairs=6, seed=7)
    assert out["ok"] is True
    assert len(out["rows"]) == 12
    assert out["summary"]["max_residual"] <= 1e-9
    kinds = {row["kind"] for row in out["rows"]}
    assert kinds == {"radial", "box", "polygon"}


def test_suite_covariance_small():
    out = suite_covariance(count=4, seed=13)
    assert out["ok"] is True
    maps = [row["map"] for row in out["rows"]]
    assert maps.count("diagonal-k=2") == 2
    assert any(m.startswith("diagonal-k=0.333") for m in maps)


def test_suite_norm_agreement_small():
    out = suite_norm_agreement(cases=8, seed=3)
    assert out["ok"] is True
    assert out["summary"]["max_rel_diff"] <= 1e-8
    assert {row["region"] for row in out["rows"]} == {
        "ball2", "annulus3", "box2", "box3"}


def test_suite_constraint_system_rows():
    out = suite_constraint_system()
    assert out["ok"] is True
    assert out["summary"]["rank"] == 4
    assert out["summary"]["affine_residual"] == 0.0
    coeffs = [(r["c2"], r["c2_tilde"], r["c3"], r["c3_tilde"])
              for r in out["rows"]]
    assert (-1.0, 1.0, 1.0, 1.0) in coeffs
    assert (-1.0, 1.0, -1.0, -1.0) in coeffs


def test_suite_divergence_prefixes():
    out = suite_divergence(terms=12)
    assert out["ok"] is True
    prev = 0.0
    for row in out["rows"]:
        assert row["modular_prefix"] <= row["modular_cap"] + 1e-8
        assert row["modular_cap"] <= 1.0
        assert row["ratio"] > 0.8
        assert row["lower_bound_prefix"] > prev
        prev = row["lower_bound_prefix"]
    assert out["summary"]["moment_final"] > out["summary"]["lower_bound_final"]


def test_divergence_suite_reads_the_truncation_table(monkeypatch):
    phi = PowerYoung(2.0)
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    # the suite's name of each renamed ledger column
    ledger_name = {"moment_prefix": "running_moment",
                   "lower_bound_prefix": "running_lower_bound"}
    for J in (1, 12):
        plan = build_divergence_plan(xi, phi, J)
        _, ledger = _ball_ledger(plan, J, 1e-8)
        rows = suite_divergence(terms=J)["rows"]
        assert len(rows) == len(ledger) == J
        for row, line in zip(rows, ledger):
            assert row == {name: line[ledger_name.get(name, name)] for name in row}
        measured = []
        measure = regions.part_weighted_measure
        monkeypatch.setattr(regions, "part_weighted_measure",
                            lambda *args: measured.append(args) or measure(*args))
        result = divergent_truncation(plan, J)
        monkeypatch.undo()
        # the modular reads the ledger's measures: one measurement per ball
        assert len(measured) == J
        assert math.isclose(result["rows"][-1]["modular_prefix"],
                            result["modular"], rel_tol=1e-12)


def test_suite_continuity_clauses():
    out = suite_continuity(depth=5, probe_k=4)
    s = out["summary"]
    assert s["strict_decrease"] is True
    assert s["psi_gap_bounded"] is True
    assert s["annular_probe_vanishes"] is True
    assert s["below_1e-3_at_final_depth"] is False
    assert out["ok"] is False
    covers = [r for r in out["rows"] if r["block"] == "cube-cover"]
    gaps = [r["norm_distance"] for r in covers]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_suite_young_limits():
    out = suite_young_limits()
    assert out["ok"] is True
    assert len(out["rows"]) == 6
    for row in out["rows"]:
        assert row["ratio_exceeds_1e6"]
        assert row["inverse_below_1e-6"]


def test_suite_registry_names():
    assert set(SUITES) == {"valuation", "covariance", "lemma3", "lemma8",
                           "lemma15", "continuity", "young-limits"}


def test_cli_young_conjugate(capsys):
    rc, out, _ = run_cli(capsys, "young", "conjugate", "--family", "power",
                         "--p", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 1.5
    assert doc["conjugate"]["params"]["p"] == 1.5


def test_cli_young_eval_zero(capsys):
    rc, out, _ = run_cli(capsys, "young", "eval", "--family", "power",
                         "--p", "2", "--t", "0")
    assert rc == 0
    assert json.loads(out)["value"] == 0.0


def test_cli_young_delta2_exp(capsys):
    rc, out, _ = run_cli(capsys, "young", "delta2", "--family", "exp")
    assert rc == 0
    assert json.loads(out)["holds"] is False


def test_cli_young_shorthand_phi(capsys):
    rc, out, _ = run_cli(capsys, "young", "eval", "--phi", "power:2:3",
                         "--t", "2")
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(3.0 * 4.0 / 2.0)


def test_cli_moment_triangle(capsys):
    rc, out, _ = run_cli(capsys, "moment", "--poly", "[[0,0],[1,0],[0,1]]")
    assert rc == 0
    vec = json.loads(out)["moment"]
    assert vec == pytest.approx([1.0 / 6.0, 1.0 / 6.0], abs=1e-15)


def test_cli_moment_region(capsys):
    rc, out, _ = run_cli(capsys, "moment", "--region", "annulus:1:2",
                         "--dim", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["moment"] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert doc["weighted_measure"] == pytest.approx(2.0 * math.pi * 7.0 / 3.0)


def test_cli_norm_disk(capsys):
    rc, out, _ = run_cli(capsys, "norm", "--phi", "power:2",
                         "--indicator", "ball:1", "--dim", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["orlicz"] == pytest.approx(math.sqrt(2.0 * DISK_MU), rel=1e-9)
    assert doc["luxemburg"] == pytest.approx(math.sqrt(DISK_MU / 2.0), rel=1e-9)
    assert doc["modular"] == pytest.approx(DISK_MU / 2.0, rel=1e-12)
    assert set(doc) == {"luxemburg", "orlicz", "modular"}


def test_cli_norm_tol_root_from_config_reaches_both_norms(
        tmp_path, capsys, monkeypatch):
    import orliczval.cli as cli

    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] = kwargs.get("rel_tol")
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "orlicz_norm", spy("orlicz", cli.orlicz_norm))
    monkeypatch.setattr(cli, "luxemburg_norm",
                        spy("luxemburg", cli.luxemburg_norm))
    cfg = tmp_path / "orlicz.cfg"
    cfg.write_text("tol-root = 1e-6\n")
    monkeypatch.setenv("ORLICZVAL_CONFIG", str(cfg))
    rc, out, _ = run_cli(capsys, "norm", "--phi", "power:2",
                         "--indicator", "ball:1", "--dim", "2")
    assert rc == 0
    assert seen == {"orlicz": 1e-6, "luxemburg": 1e-6}
    assert json.loads(out)["orlicz"] == pytest.approx(
        math.sqrt(2.0 * DISK_MU), rel=1e-9)


def test_cli_psi_matches_library(tmp_path, capsys):
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    h = SimpleFunction(2, [(1.5, Region([tri]))])
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    rc, out, _ = run_cli(capsys, "psi", "--xi", "poly:1,0.5",
                         "--simple", str(path))
    assert rc == 0
    expected = psi(PolynomialComposer([1.0, 0.5]), h)
    assert json.loads(out)["psi"] == pytest.approx(list(expected), rel=1e-12)


def test_cli_psi_radial_vanishes(tmp_path, capsys):
    h = SimpleFunction(2, [(2.0, Region([Annulus(2, 1.0, 2.0)]))])
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(h.to_json()))
    rc, out, _ = run_cli(capsys, "psi", "--xi", "identity",
                         "--simple", str(path))
    assert rc == 0
    assert json.loads(out)["psi"] == [0.0, 0.0]


def test_cli_counterexample_small(capsys):
    rc, out, _ = run_cli(capsys, "counterexample", "--J", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["modular"] <= doc["modular_bound"] <= 1.0
    assert doc["first_moment"] > doc["lower_bound"] > 0.0
    assert len(doc["rows"]) == 3


def test_cli_counterexample_with_far_balls(capsys):
    # witnesses near 0 put the balls at c ~ 4e11: each ball is asked for its
    # share of the modular, abs_tol / (J phi(|beta_j|)), which is within reach
    rc, out, _ = run_cli(capsys, "counterexample", "--phi", "exp",
                         "--xi", "poly:0.3,-1,0.5,0.25,1", "--J", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["modular"] <= doc["modular_bound"] <= 1.0
    assert doc["modular"] == pytest.approx(doc["modular_bound"], abs=1e-6)


def test_cli_verify_lemma8_green(capsys):
    rc, out, _ = run_cli(capsys, "verify", "lemma8")
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_cli_verify_continuity_red(capsys):
    rc, out, _ = run_cli(capsys, "verify", "continuity", "--depth", "4")
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["first_failure"]["failed_checks"] == [
        "below_1e-3_at_final_depth"]


def test_cli_verify_continuity_rejects_depth_out_of_range(capsys, monkeypatch):
    import orliczval.suites as suites

    def no_cover(*args, **kwargs):
        raise AssertionError("a cover was built for a rejected depth")

    monkeypatch.setattr(suites, "cube_cover", no_cover)
    for depth in ("-1", "17", "40"):
        rc, out, err = run_cli(capsys, "verify", "continuity", "--depth", depth)
        assert rc == 2
        assert out == ""
        assert err == f"orliczval: --depth must lie in 0..16, got {depth}\n"


def test_cli_verify_csv_rerun_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "verify", "valuation", "--pairs", "6",
                           "--seed", "7", "--format", "csv",
                           "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_csv_quotes_commas(tmp_path, capsys):
    path = tmp_path / "l8.csv"
    rc, _, _ = run_cli(capsys, "verify", "lemma8", "--format", "csv",
                       "--out", str(path))
    assert rc == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + six constraint rows
    assert rows[1][0] == "[e1, eps*e2] -> limit, e1 component"


def test_cli_config_file_and_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "orlicz.cfg"
    cfg.write_text("format = csv\nseed = 7\n")
    monkeypatch.setenv("ORLICZVAL_CONFIG", str(cfg))
    out_file = tmp_path / "t.csv"
    rc, _, _ = run_cli(capsys, "verify", "valuation", "--pairs", "4",
                       "--out", str(out_file))
    assert rc == 0
    assert out_file.read_text().startswith("dim,case,kind,residual")
    out_json = tmp_path / "t.json"
    rc, _, _ = run_cli(capsys, "verify", "valuation", "--pairs", "4",
                       "--format", "json", "--out", str(out_json))
    assert rc == 0
    assert json.loads(out_json.read_text())[0]["kind"] == "radial"


@pytest.mark.parametrize("bad", ["0", "nan", "-5", "inf"])
def test_cli_rejects_a_tolerance_that_is_not_a_positive_number(bad, capsys):
    for option, argv in (
            ("--tol-quad", ["moment", "--region", "box:0.5,0.5,0.5:1,2,1.5"]),
            ("--tol-quad", ["moment", "--region", "box:0.5,0.5:1,2"]),
            ("--tol-quad", ["norm", "--phi", "power:2", "--indicator", "ball:1", "--dim", "2"]),
            ("--tol-root", ["norm", "--phi", "power:2", "--indicator", "ball:1", "--dim", "2"])):
        rc, out, err = run_cli(capsys, *argv, option, bad)
        assert (rc, out) == (2, ""), (option, argv)
        assert option in err and "Warning" not in err, err


def test_cli_rejects_a_tolerance_from_the_config_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "orlicz.cfg"
    monkeypatch.setenv("ORLICZVAL_CONFIG", str(cfg))
    for line in ("tol-quad = 0", "tol-quad = nan", "tol-root = -1"):
        cfg.write_text(line + "\n")
        rc, out, err = run_cli(capsys, "moment", "--region", "box:0.5,0.5:1,2")
        assert (rc, out) == (2, "")
        assert "--" + line.split()[0] in err
    # --config before the command is read too
    monkeypatch.delenv("ORLICZVAL_CONFIG")
    rc, out, err = run_cli(capsys, "--config", str(cfg), "moment", "--region", "box:0.5,0.5:1,2")
    assert (rc, out) == (2, "") and "--tol-root" in err
    monkeypatch.setenv("ORLICZVAL_CONFIG", str(cfg))
    cfg.write_text("tol-quad = 1e-10\n")  # a flag still wins over the file
    rc, out, _ = run_cli(capsys, "moment", "--region", "box:0.5,0.5:1,2", "--tol-quad", "1e-9")
    assert rc == 0 and json.loads(out)["lebesgue"] == 0.75


def test_cli_bad_input_exit_codes(capsys):
    rc, _, err = run_cli(capsys, "psi", "--xi", "identity",
                         "--simple", '{"bogus": 1}')
    assert rc == 2
    assert "bad input" in err
    rc, _, err = run_cli(capsys, "norm", "--phi", "nosuch:1",
                         "--indicator", "ball:1", "--dim", "2")
    assert rc == 2
    with pytest.raises(SystemExit):
        main(["verify", "nosuchsuite"])


def test_cli_moment_rejects_an_empty_polytope(capsys):
    rc, out, err = run_cli(capsys, "moment", "--poly", "[]")
    assert rc == 2 and out == ""
    assert "a polytope needs at least one point" in err


def test_cli_norm_rejects_an_infinite_box_bound(capsys):
    # -Infinity is valid JSON to Python's parser; the box must refuse it
    simple = json.dumps({"dim": 2, "terms": [{"value": 1.0, "region": {
        "dim": 2, "parts": [{"kind": "axis_box", "lo": [-math.inf, 0.0], "hi": [1.0, 1.0]}]}}]})
    rc, out, err = run_cli(capsys, "norm", "--phi", "power:2", "--simple", simple)
    assert rc == 2 and out == ""
    assert "need lo < hi on every axis, all finite" in err


def test_cli_rejects_overlapping_simple_input(capsys):
    box = {"kind": "axis_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    twice = json.dumps({"dim": 2, "terms": [{"value": 1.0, "region": {"dim": 2, "parts": [box]}},
                                            {"value": 1.0, "region": {"dim": 2, "parts": [box]}}]})
    for argv in (("norm", "--phi", "power:2"), ("psi", "--xi", "identity")):
        rc, out, err = run_cli(capsys, *argv, "--simple", twice)
        assert rc == 2 and out == ""
        assert "box overlap between" in err
    once = json.dumps({"dim": 2, "terms": [{"value": 1.0, "region": {"dim": 2, "parts": [box]}}]})
    rc, out, _ = run_cli(capsys, "norm", "--phi", "power:2", "--simple", once)
    assert rc == 0 and json.loads(out)["luxemburg"] == pytest.approx(0.6185, abs=1e-4)


def _simple(dim, *parts):
    return json.dumps({"dim": dim, "terms": [
        {"value": float(k + 1), "region": {"dim": dim, "parts": [part]}}
        for k, part in enumerate(parts)]})


def test_cli_rejects_thin_overlaps_in_simple_input(capsys):
    c = 1.01 / math.sqrt(2.0)
    tetra = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    probes = {
        "radial": ({"kind": "annulus", "dim": 2, "inner": 1.0, "outer": 2.0},
                   {"kind": "axis_box", "lo": [0.0, 0.0], "hi": [c, c]}),
        "ball": ({"kind": "shifted_ball", "dim": 2, "radius": 1.0, "offset": 3.0},
                 {"kind": "axis_box", "lo": [2.5, 0.999], "hi": [3.5, 2.0]}),
        "ball 3d": ({"kind": "shifted_ball", "dim": 3, "radius": 1.0, "offset": 3.0},
                    {"kind": "axis_box", "lo": [3.999, -0.5, -0.5], "hi": [5.0, 0.5, 0.5]}),
        "polytope": ({"kind": "polytope", "vertices": tetra},
                     {"kind": "axis_box", "lo": [0.99, -1.0, -1.0], "hi": [2.0, 1.0, 1.0]}),
    }
    for name, parts in probes.items():
        simple = _simple(len(parts[1]["lo"]), *parts)
        rc, out, err = run_cli(capsys, "norm", "--phi", "power:2", "--simple", simple)
        assert rc == 2 and out == ""
        assert f"{name.split()[0]} overlap between" in err
    simplex = {"kind": "polytope", "vertices": np.vstack([np.zeros(4), np.eye(4)]).tolist()}
    box = {"kind": "axis_box", "lo": [0.1] * 4, "hi": [2.0] * 4}
    rc, out, err = run_cli(capsys, "psi", "--xi", "identity", "--simple", _simple(4, simplex, box))
    assert rc == 2 and out == ""
    assert "no exact disjointness test for full-rank polytopes above dimension 3" in err

def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orliczval.cli", "young", "eval",
         "--phi", "power:2", "--t", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.5


def test_cli_cold_import_leaves_out_the_quadrature_package():
    # no region kind needs QUADPACK, the root finder is the package's own,
    # and qhull is imported where a full-rank hull in n >= 3 is built, so
    # a cold start loads no scipy module at all
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, orliczval.cli; "
         "print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules, "
         "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False []"


def test_cli_seventeen_digit_floats(capsys):
    rc, out, _ = run_cli(capsys, "moment", "--poly", "[[0,0],[1,0],[0,1]]")
    assert rc == 0
    assert "0.16666666666666666" in out
