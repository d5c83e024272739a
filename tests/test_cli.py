"""Command-line and suite-driver behaviour."""

import csv
import functools
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import orliczval
from orliczval import regions
from orliczval.cli import _OPTIONS, _VERIFY_FLAGS, _dump_csv, _dump_json, _parse_phi, main
from orliczval.functions import SimpleFunction
from orliczval.polytopes import Polytope, continuity_constraint_system
from orliczval.regions import Annulus, OriginBall, Region, ShiftedBall
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
    OddComposer,
    PolynomialComposer,
    SigmoidComposer,
    build_divergence_plan,
    composer_from_json,
    divergent_truncation,
    psi,
)
from orliczval.young import ExpYoung, LogYoung, PowerYoung, limit_report, young_from_json

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
    # the suite's name of each renamed table column
    table_name = {"moment_prefix": "running_moment",
                  "lower_bound_prefix": "running_lower_bound"}
    for J in (1, 12):
        plan = build_divergence_plan(xi, phi, J)
        measured = []
        measure = regions.part_weighted_measure
        monkeypatch.setattr(regions, "part_weighted_measure",
                            lambda *args: measured.append(args) or measure(*args))
        result = divergent_truncation(plan, J)
        monkeypatch.undo()
        rows = suite_divergence(terms=J)["rows"]
        assert len(rows) == len(result["rows"]) == J
        for row, line in zip(rows, result["rows"]):
            assert row == {name: line[table_name.get(name, name)] for name in row}
        # the modular reads the table's measures: one measurement per ball
        assert len(measured) == J
        assert math.isclose(result["rows"][-1]["modular_prefix"],
                            result["modular"], rel_tol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_both_ball_tables_measure_each_ball_to_its_share_of_the_modular(monkeypatch, dim):
    # suite_divergence and divergent_truncation (the counterexample command)
    # ask ball j for 1e-8 / (J phi(|beta_j|)), so the modular is within 1e-8
    J = 10
    phi = PowerYoung(2.0)
    xi = PolynomialComposer([0.0, 0.0, 0.0, 1.0])
    asked = []
    measure = Region.weighted_measure

    def spy(region, abs_tol=1e-9):
        got = measure(region, abs_tol)
        asked.append((abs_tol, got.error_bound))
        return got

    monkeypatch.setattr(Region, "weighted_measure", spy)
    runs = [lambda: divergent_truncation(build_divergence_plan(xi, phi, J, dim=dim), J)]
    if dim == 2:
        runs.append(lambda: suite_divergence(terms=J))
    plan = build_divergence_plan(xi, phi, J, dim=dim)
    gauges = [phi.eval(abs(b)) for b in plan.betas]
    for run in runs:
        asked.clear()
        run()
        assert [tol for tol, _ in asked] == [1e-8 / (J * g) for g in gauges]
        assert sum(g * err for g, (_, err) in zip(gauges, asked)) <= 1e-8


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
    rc, out, _ = run_cli(capsys, "young", "conjugate", "--phi", "power:3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 1.5
    assert doc["conjugate"]["params"]["p"] == 1.5


def test_cli_young_eval_zero(capsys):
    rc, out, _ = run_cli(capsys, "young", "eval", "--phi", "power:2", "--t", "0")
    assert rc == 0
    assert json.loads(out)["value"] == 0.0


def test_cli_young_delta2_exp(capsys):
    rc, out, _ = run_cli(capsys, "young", "delta2", "--phi", "exp")
    assert rc == 0
    assert json.loads(out)["holds"] is False


def test_cli_density_tail_with_a_small_slope_stays_finite(capsys):
    phi = '{"density": [[0,0],[1,1]], "tail_slope": 1e-300}'
    rc, out, err = run_cli(capsys, "young", "eval", "--phi", phi, "--t", "1e200")
    assert (rc, err) == (0, "")
    assert '"value": 1e+200' in out


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


def test_cli_moment_of_a_segment(capsys):
    rc, out, err = run_cli(capsys, "moment", "--poly", "[[0],[1]]")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"dim": 1, "moment": [0.5]}


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


def _with_rows(change):
    # divergent_truncation with change(rows) applied to its row table
    def truncation(plan, J):
        result = divergent_truncation(plan, J)
        change(result["rows"])
        return result
    return truncation


@pytest.mark.parametrize("name, attr, fake, flag", [
    ("lemma15", "check_cphi",
     lambda xi, phi: {"certified_on_grid": False, "diverges_large_end": False},
     "growth_diverges_large_end"),
    ("lemma15", "divergent_truncation",
     _with_rows(lambda rows: rows[0].update(modular_prefix=2.0)), "every_prefix_within_cap"),
    ("lemma15", "divergent_truncation",
     _with_rows(lambda rows: rows[-1].update(running_moment=0.0)), "moment_exceeds_lower_bound"),
    ("lemma8", "continuity_constraint_system",
     lambda: {**continuity_constraint_system(), "affine_residual": 1.0}, "affine_residual_ok"),
])
def test_cli_verify_names_each_failed_condition(capsys, monkeypatch, name, attr, fake, flag):
    # one pass condition false at a time: first_failure names its summary flag
    import orliczval.suites as suites
    monkeypatch.setattr(suites, attr, fake)
    argv = ("verify", name) + (("--J", "6") if name == "lemma15" else ())
    rc, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert (rc, doc["ok"], doc["summary"][flag]) == (1, False, False)
    assert doc["first_failure"]["failed_checks"] == [flag]


def test_cli_norm_of_an_underflowing_ball_exits_with_a_message(capsys):
    # 1/mu overflows; the solve used to return phi's overflow edge, 2,300x too large
    rc, out, err = run_cli(capsys, "norm", "--phi", "power:2", "--indicator", "ball:1e-105",
                           "--dim", "2")
    assert (rc, out) == (2, "")
    assert "not finite" in err
    rc, out, _ = run_cli(capsys, "young", "eval", "--phi", "power:2", "--t", "1.4e154")
    assert rc == 0 and json.loads(out)["value"] == 9.800000000000001e+307


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


def test_cli_rejects_non_finite_and_extra_gauge_fields(capsys):
    # a NaN or infinite parameter, or a field past the last one a family
    # takes, exits 2 with nothing on stdout
    square = _simple(2, {"kind": "axis_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]})
    for argv in (("young", "eval", "--phi", "exp:nan", "--t", "1"),
                 ("young", "eval", "--phi", "log:1:inf", "--t", "1"),
                 ("norm", "--phi", "power:inf", "--indicator", "ball:1", "--dim", "2"),
                 ("young", "eval", "--phi", "power:2:1:99", "--t", "1"),
                 ("young", "eval", "--phi", "exp:1:2:3", "--t", "1"),
                 ("psi", "--xi", "tanh:inf:1", "--simple", square),
                 ("psi", "--xi", "tanh:1:2:3", "--simple", square)):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("orliczval: "), argv


def test_cli_rejects_nan_and_underflowing_gauge_input(capsys):
    for argv in (("young", "eval", "--phi", "power:2", "--t", "nan"),
                 ("young", "conjugate", "--phi", "exp:1e-300:1e-300"),
                 ("young", "conjugate", "--phi", "log:1e-300:1e-300")):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("orliczval: ") and "Traceback" not in err, argv
    # an overflowing power is inf, with nothing on stderr
    rc, out, err = run_cli(capsys, "young", "eval", "--phi", "power:1e308", "--t", "2")
    assert (rc, err) == (0, "") and json.loads(out)["value"] == "inf"


def test_value_types_of_every_closed_form_family():
    # gauges: generated repr, equal by value, unhashable; JSON and --phi agree
    gauges = [("power:2.5:3", PowerYoung(2.5, 3.0), "PowerYoung(p=2.5, scale=3.0)"),
              ("exp:2:0.5", ExpYoung(2.0, 0.5), "ExpYoung(scale=2.0, rate=0.5)"),
              ("log", LogYoung(), "LogYoung(scale=1.0, rate=1.0)")]
    for token, phi, text in gauges:
        assert repr(phi) == text
        assert young_from_json(phi.to_json()) == phi == _parse_phi(token)
        assert _parse_phi(json.dumps(phi.to_json())) == phi
        with pytest.raises(TypeError):
            hash(phi)
    assert ExpYoung(2.0, 0.5) != LogYoung(2.0, 0.5) and PowerYoung(2) != PowerYoung(3)
    assert PowerYoung(2).to_json() == {"family": "power", "params": {"p": 2.0, "scale": 1.0}}
    # parts and the sigmoid composer: generated repr, equal by identity, hashable
    parts = [(OriginBall(2, 1), "OriginBall(dim=2, radius=1.0)"),
             (Annulus(3, 0.5, 2), "Annulus(dim=3, inner=0.5, outer=2.0)"),
             (ShiftedBall(2, 0.25, 3), "ShiftedBall(dim=2, radius=0.25, offset=3.0)")]
    for part, text in parts:
        assert repr(part) == text
        back = regions.part_from_json({**part.to_json(), "note": "ignored"})
        assert repr(back) == text and back.to_json() == part.to_json()
        assert back != part and len({part, back, part}) == 2
    assert parts[0][0].to_json() == {"kind": "origin_ball", "dim": 2, "radius": 1.0}
    xi = SigmoidComposer(1.5, 0.7)
    back = composer_from_json(xi.to_json())
    assert repr(xi) == repr(back) == "SigmoidComposer(scale=1.5, rate=0.7)"
    assert back != xi and len({xi, back, xi}) == 2


def test_one_name_per_operation(capsys):
    for name in ("check_sign_decomposition", "positive_negative_parts", "convex_hull_2d",
                 "young_gap", "psi_quadrature", "norm_distance", "identity_composer"):
        assert name not in orliczval.__all__ and not hasattr(orliczval, name), name
    assert not hasattr(orliczval.polytopes, "affine_rank")
    assert not hasattr(SimpleFunction, "is_zero")
    assert not hasattr(orliczval.norms, "norm_distance")
    assert not hasattr(orliczval.valuations, "identity_composer")
    assert not hasattr(regions, "part_to_json") and not hasattr(Polytope, "from_json")
    assert not hasattr(regions.WeightedMeasure, "__float__")
    # planar_valuation takes its six coefficients as spatial_valuation takes its two
    assert "PlanarCoefficients" not in orliczval.__all__
    assert not hasattr(orliczval.polytopes, "PlanarCoefficients")
    assert not hasattr(orliczval.valuations, "_ball_ledger")
    assert not hasattr(orliczval.valuations, "_TRUNCATION_TOL")
    # the gauge is named by --phi, as in every other subcommand
    for argv in (("young", "eval", "--family", "power", "--p", "2", "--t", "0"),
                 ("young", "eval", "--phi", "power:2", "--rate", "2", "--t", "0")):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2, argv
    assert capsys.readouterr().out == ""


def test_cli_rejects_an_unknown_config_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("tol_root = 1e-3\nseed = 3\nformats = csv\n")
    argv = ("young", "eval", "--phi", "power:2", "--t", "1")
    rc, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert (rc, out) == (2, "")
    assert err == (f"orliczval: {cfg}: unknown config key(s) 'tol_root', 'formats' "
                   "(known: seed, out, format, tol-quad, tol-residual, tol-root)\n")
    monkeypatch.setenv("ORLICZVAL_CONFIG", str(cfg))
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "") and "'tol_root', 'formats'" in err
    cfg.write_text("tol-root = 1e-3\nseed = 3\nformat = csv\n")  # the same keys, spelt right
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0


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


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "valuation", "--pairs", "-2"), "pairs", -2),
    (("verify", "valuation", "--pairs", "0"), "pairs", 0),
    (("verify", "covariance", "--maps", "-5"), "maps", -5),
    (("verify", "lemma3", "--cases", "0"), "cases", 0),
    (("verify", "lemma15", "--J", "0"), "J", 0),
    (("counterexample", "--J", "0"), "J", 0),
])
def test_cli_rejects_a_size_below_one(argv, flag, value, capsys):
    # a battery of no cases would pass on no evidence
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"orliczval: --{flag} must be at least 1, got {value}\n"


def test_cli_reports_a_missing_config_file(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.cfg")
    argv = ("young", "eval", "--phi", "power:2", "--t", "1")
    rc, out, err = run_cli(capsys, "--config", missing, *argv)
    assert (rc, out) == (2, "") and "FileNotFoundError" in err
    monkeypatch.setenv("ORLICZVAL_CONFIG", missing)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "") and "FileNotFoundError" in err


def test_json_prints_shortest_floats_and_csv_seventeen_digits(capsys):
    assert _dump_json({"x": 0.1, "y": np.float64(1.0) / 3.0, "z": -math.inf}) == (
        '{\n  "x": 0.1,\n  "y": 0.3333333333333333,\n  "z": "-inf"\n}\n')
    assert _dump_csv([{"x": 0.1, "ok": np.bool_(True), "n": 3, "s": "a,b"}]) == (
        'x,ok,n,s\n0.10000000000000001,true,3,"a,b"\n')
    rc, out, _ = run_cli(capsys, "young", "eval", "--phi", "power:2", "--t", "0.1")
    assert rc == 0 and '"t": 0.1,' in out


def test_cli_csv_without_out_puts_the_table_on_stdout(capsys):
    rc, out, err = run_cli(capsys, "verify", "young-limits", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 6 and {row["ok"] for row in rows} == {"true"}
    assert rows[0]["ratio_max"] == "%.17g" % suite_young_limits()["rows"][0]["ratio_max"]
    assert json.loads(err)["suite"] == "young-limits"


def test_cli_forwards_each_verify_setting_to_the_suites_that_take_it(
        tmp_path, capsys, monkeypatch):
    seen = []

    def spy(suite):
        @functools.wraps(suite)  # the CLI reads the wrapped suite's signature
        def wrapped(**kwargs):
            seen.append(kwargs)
            return suite(**kwargs)
        return wrapped

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, spy(SUITES[name]))
    cfg = tmp_path / "orlicz.cfg"
    cfg.write_text("seed = 5\ntol-residual = 1e-6\n")
    for config, argv, kwargs in (
            (None, "covariance --maps 2 --seed 4", {"count": 2, "seed": 4, "residual_max": 1e-9}),
            (None, "lemma3 --cases 3 --seed 2", {"cases": 3, "seed": 2}),
            (None, "lemma15 --J 2 --pairs 7", {"terms": 2}),
            (None, "continuity --depth 2 --maps 0", {"depth": 2}),
            (cfg, "covariance --maps 2", {"count": 2, "seed": 5, "residual_max": 1e-6}),
            (cfg, "lemma3 --cases 3", {"cases": 3, "seed": 5}),
            (cfg, "valuation --pairs 2 --seed 9", {"pairs": 2, "seed": 9, "residual_max": 1e-6}),
            (cfg, "lemma8 --J 3", {}),
            (cfg, "young-limits", {})):
        monkeypatch.delenv("ORLICZVAL_CONFIG", raising=False)
        if config is not None:
            monkeypatch.setenv("ORLICZVAL_CONFIG", str(config))
        seen.clear()
        rc, out, _ = run_cli(capsys, "verify", *argv.split())
        assert rc in (0, 1) and seen == [kwargs], argv
    # the suite's own results, unchanged by the CLI
    doc = json.loads(out)
    assert doc["rows"] == json.loads(_dump_json(suite_young_limits()["rows"]))


def test_every_verify_setting_names_a_suite_parameter():
    params = set().union(*(inspect.signature(s).parameters for s in SUITES.values()))
    for name, flag in _VERIFY_FLAGS.items():
        assert flag.param in params, name
    for name, option in _OPTIONS.items():
        assert option.param is None or option.param in params, name


def test_cli_reads_json_forms_and_the_odd_shorthand(tmp_path, capsys):
    annulus = json.dumps({"dim": 2, "parts": [
        {"kind": "annulus", "dim": 2, "inner": 1.0, "outer": 2.0}]})
    _, by_json, _ = run_cli(capsys, "moment", "--region", annulus)
    _, by_shorthand, _ = run_cli(capsys, "moment", "--region", "annulus:1:2", "--dim", "2")
    assert by_json == by_shorthand
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    h = SimpleFunction(2, [(1.5, Region([tri]))])
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    xi = PolynomialComposer([1.0, 0.5])
    _, by_json, _ = run_cli(capsys, "psi", "--xi", json.dumps(xi.to_json()), "--simple", str(path))
    _, by_shorthand, _ = run_cli(capsys, "psi", "--xi", "poly:1,0.5", "--simple", str(path))
    assert by_json == by_shorthand
    assert json.loads(by_json)["psi"] == pytest.approx(list(psi(xi, h)), rel=1e-12)
    rc, out, _ = run_cli(capsys, "psi", "--xi", "odd:power:2", "--simple", str(path))
    assert rc == 0
    assert json.loads(out)["psi"] == pytest.approx(
        list(psi(OddComposer(PowerYoung(2.0)), h)), rel=1e-12)


def test_cli_young_limits(capsys):
    rc, out, _ = run_cli(capsys, "young", "limits", "--phi", "log:1e4:1e2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ratio_exceeds_1e6"] and doc["inverse_ratio_below_1e-6"]
    assert doc == json.loads(_dump_json({"input": LogYoung(1e4, 1e2).to_json(),
                                         **limit_report(LogYoung(1e4, 1e2))}))
    # the ratio at the grid's end, or inf once phi(t)/t overflows on the grid
    assert limit_report(PowerYoung(2.0))["ratio_max"] == PowerYoung(2.0).eval(1e13) / 1e13
    assert limit_report(ExpYoung())["ratio_max"] == math.inf
