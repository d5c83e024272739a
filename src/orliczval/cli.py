"""Command-line front end.

Subcommands: young, norm, moment, psi, counterexample, verify.  Every
numeric value is serialized with 17 significant digits so identical
inputs produce byte-identical output.  A flat key=value config file
supplies defaults (path from --config or the ORLICZVAL_CONFIG
environment variable); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .errors import OrliczvalError
from .functions import SimpleFunction
from .norms import luxemburg_norm, modular, orlicz_norm
from .polytopes import Polytope, moment as polytope_moment
from .regions import Annulus, AxisBox, OriginBall, Region
from .valuations import (
    OddComposer,
    PolynomialComposer,
    SigmoidComposer,
    build_divergence_plan,
    composer_from_json,
    divergent_truncation,
    identity_composer,
    psi,
)
from .young import (
    _FAMILIES,
    PowerYoung,
    delta2_report,
    limit_report,
    young_from_json,
)
from . import suites as _suites

ENV_CONFIG = "ORLICZVAL_CONFIG"

_DEFAULTS = {
    "format": "json",
    "out": None,
    "seed": None,
    "tol-quad": 1e-9,
    "tol-residual": 1e-9,
    "tol-root": 1e-12,
}

# cube_cover's time and memory are linear in its 2^depth grid columns, and
# the continuity suite builds every depth up to the last: depth 16 takes
# about 0.8 s and 0.12 GB, and each further level doubles both.
_MAX_DEPTH = 16


def _load_config(path):
    """Flat key=value lines; blank lines and # comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OrliczvalError(
                    f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip().strip('"')
    return values


class Settings:
    """Merged option lookup: CLI flag, then config file, then default."""

    def __init__(self, ns):
        self.ns = ns
        path = getattr(ns, "config", None) or os.environ.get(ENV_CONFIG)
        self.file = _load_config(path) if path and os.path.exists(path) else {}
        for key in ("tol-quad", "tol-root"):  # from any source
            if not 0.0 < self.get(key, float) < math.inf:
                raise OrliczvalError(f"--{key} must be a positive finite number")

    def get(self, key, cast=str):
        flag = getattr(self.ns, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        value = self.file.get(key, _DEFAULTS.get(key))
        return value if value is None else cast(value)


# ---------------------------------------------------------------------------
# serialization


def _plain(obj):
    """Recursively coerce to JSON-ready types with %.17g floats."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return _Float17(f)
    return obj


class _Float17(float):
    def __repr__(self):
        return "%.17g" % float(self)


def _dump_json(obj):
    return json.dumps(_plain(obj), indent=2) + "\n"


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _dump_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in header])
    return buf.getvalue()


def _emit(report, rows, settings):
    """Print the report; route the evidence table per format/out."""
    fmt = settings.get("format")
    out = settings.get("out")
    if fmt not in ("json", "csv"):
        raise OrliczvalError(f"unknown format {fmt!r} (use json or csv)")
    if out:
        table = _dump_csv(rows) if fmt == "csv" else _dump_json(rows)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(table)
        sys.stdout.write(_dump_json(report))
    elif fmt == "csv" and rows:
        sys.stderr.write(_dump_json(report))
        sys.stdout.write(_dump_csv(rows))
    else:
        doc = dict(report)
        if rows:
            doc["rows"] = rows
        sys.stdout.write(_dump_json(doc))


# ---------------------------------------------------------------------------
# shorthand parsers


def _inline_or_file(token):
    token = token.strip()
    if token.startswith("{") or token.startswith("["):
        return json.loads(token)
    with open(token, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_phi(token):
    """power:p[:scale] | exp[:scale[:rate]] | log[:scale[:rate]] | JSON."""
    if token.strip().startswith("{") or os.path.exists(token):
        return young_from_json(_inline_or_file(token))
    name, _, rest = token.partition(":")
    args = [float(x) for x in rest.split(":") if x]
    if name not in _FAMILIES:
        raise OrliczvalError(f"unknown Young shorthand {token!r}")
    if name == "power" and not args:
        raise OrliczvalError("power family needs an exponent: power:p")
    return _FAMILIES[name](*args)


def _parse_region(token, dim):
    """ball:r | annulus:a:b | box:lo1,lo2,..:hi1,hi2,.. | JSON."""
    if token.strip().startswith("{") or os.path.exists(token):
        return Region.from_json(_inline_or_file(token))
    name, _, rest = token.partition(":")
    if name == "ball":
        if dim is None:
            raise OrliczvalError("ball/annulus shorthand needs --dim")
        return Region([OriginBall(dim, float(rest))])
    if name == "annulus":
        if dim is None:
            raise OrliczvalError("ball/annulus shorthand needs --dim")
        a, b = (float(x) for x in rest.split(":"))
        return Region([Annulus(dim, a, b)])
    if name == "box":
        lo_s, _, hi_s = rest.partition(":")
        lo = [float(x) for x in lo_s.split(",")]
        hi = [float(x) for x in hi_s.split(",")]
        return Region([AxisBox(lo, hi)])
    raise OrliczvalError(f"unknown region shorthand {token!r}")


def _parse_xi(token):
    """identity | poly:c1,c2,.. | odd:<phi> | tanh:scale:rate | JSON."""
    if token.strip().startswith("{") or os.path.exists(token):
        return composer_from_json(_inline_or_file(token))
    if token == "identity":
        return identity_composer()
    name, _, rest = token.partition(":")
    if name == "poly":
        return PolynomialComposer([float(x) for x in rest.split(",")])
    if name == "odd":
        return OddComposer(_parse_phi(rest))
    if name == "tanh":
        args = [float(x) for x in rest.split(":") if x]
        return SigmoidComposer(*args)
    raise OrliczvalError(f"unknown composer shorthand {token!r}")


def _parse_simple(token):
    h = SimpleFunction.from_json(_inline_or_file(token))
    h.check_disjoint()  # the library trusts its terms to be disjoint
    return h


# ---------------------------------------------------------------------------
# subcommands


def cmd_young(ns, settings):
    phi = _parse_phi(ns.phi)
    if ns.mode == "eval":
        if ns.t is None:
            raise OrliczvalError("young eval needs --t")
        report = {"input": phi.to_json(), "t": ns.t,
                  "value": float(phi.eval(ns.t))}
    elif ns.mode == "conjugate":
        conj = phi.conjugate()
        report = {"input": phi.to_json(), "conjugate": conj.to_json()}
        if isinstance(conj, PowerYoung):
            report["q"] = conj.p
    elif ns.mode == "delta2":
        report = {"input": phi.to_json()}
        report.update(delta2_report(phi))
    else:
        report = {"input": phi.to_json()}
        report.update(limit_report(phi))
    _emit(report, [], settings)
    return 0


def cmd_norm(ns, settings):
    phi = _parse_phi(ns.phi)
    abs_tol = settings.get("tol-quad", float)
    rel_tol = settings.get("tol-root", float)
    if ns.simple is not None:
        h = _parse_simple(ns.simple)
    elif ns.indicator is not None:
        region = _parse_region(ns.indicator, ns.dim)
        h = SimpleFunction.indicator(region, ns.value)
    else:
        raise OrliczvalError("give --simple or --indicator")
    report = {
        "luxemburg": luxemburg_norm(phi, h, rel_tol=rel_tol, abs_tol=abs_tol),
        "orlicz": orlicz_norm(phi, h, rel_tol=rel_tol, abs_tol=abs_tol),
        "modular": modular(phi, h, abs_tol=abs_tol),
    }
    _emit(report, [], settings)
    return 0


def cmd_moment(ns, settings):
    if ns.poly is not None:
        poly = Polytope(_inline_or_file(ns.poly))
        vec = polytope_moment(poly)
        report = {"dim": poly.dim, "moment": vec}
    elif ns.region is not None:
        region = _parse_region(ns.region, ns.dim)
        report = {"dim": region.dim, "moment": region.moment(),
                  "lebesgue": region.lebesgue(),
                  "weighted_measure": region.weighted_measure(
                      settings.get("tol-quad", float)).value}
    else:
        raise OrliczvalError("give --poly or --region")
    _emit(report, [], settings)
    return 0


def cmd_psi(ns, settings):
    xi = _parse_xi(ns.xi)
    h = _parse_simple(ns.simple)
    vec = psi(xi, h)
    _emit({"dim": h.dim, "psi": vec}, [], settings)
    return 0


# the ball ledger's columns that the counterexample table shows
_COUNTEREXAMPLE_COLUMNS = ("j", "exponent", "beta", "center", "radius",
                           "ball_lebesgue", "moment_term", "ratio",
                           "running_moment", "running_lower_bound")


def cmd_counterexample(ns, settings):
    phi = _parse_phi(ns.phi)
    xi = _parse_xi(ns.xi)
    plan = build_divergence_plan(xi, phi, ns.J, dim=ns.dim)
    result = divergent_truncation(plan, ns.J)
    report = {"terms": ns.J, "dim": ns.dim, "sign": result["sign"],
              "modular": result["modular"],
              "modular_bound": result["modular_bound"],
              "first_moment": result["first_moment"],
              "lower_bound": result["lower_bound"]}
    _emit(report, [{k: row[k] for k in _COUNTEREXAMPLE_COLUMNS}
                   for row in result["rows"]], settings)
    return 0


def _suite_kwargs(name, ns, settings):
    seed = settings.get("seed", int)
    kwargs = {}
    if name == "valuation":
        if ns.pairs is not None:
            kwargs["pairs"] = ns.pairs
        if seed is not None:
            kwargs["seed"] = seed
        kwargs["residual_max"] = settings.get("tol-residual", float)
    elif name == "covariance":
        if ns.maps is not None:
            kwargs["count"] = ns.maps
        if seed is not None:
            kwargs["seed"] = seed
        kwargs["residual_max"] = settings.get("tol-residual", float)
    elif name == "lemma3":
        if ns.cases is not None:
            kwargs["cases"] = ns.cases
        if seed is not None:
            kwargs["seed"] = seed
    elif name == "lemma15":
        if ns.J is not None:
            kwargs["terms"] = ns.J
    elif name == "continuity":
        if ns.depth is not None:
            if not 0 <= ns.depth <= _MAX_DEPTH:
                raise OrliczvalError(
                    f"--depth must lie in 0..{_MAX_DEPTH}, got {ns.depth}")
            kwargs["depth"] = ns.depth
    return kwargs


def _first_failure(result):
    for row in result["rows"]:
        if "residual" in row and row["residual"] > result["summary"].get(
                "residual_max", math.inf):
            return row
        if "rel_diff" in row and row["rel_diff"] > result["summary"].get(
                "rel_max", math.inf):
            return row
        if row.get("ok") is False:
            return row
    failed = [k for k, v in result["summary"].items()
              if v is False and k != "ok"]
    return {"failed_checks": failed, "summary": result["summary"]}


def cmd_verify(ns, settings):
    result = _suites.SUITES[ns.suite](**_suite_kwargs(ns.suite, ns, settings))
    report = {"suite": result["name"], "ok": result["ok"],
              "summary": result["summary"]}
    if not result["ok"]:
        report["first_failure"] = _first_failure(result)
    _emit(report, result["rows"], settings)
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orliczval",
        description="Gauge calculus, weighted measures, and moment "
                    "valuations with verification batteries.")
    parser.add_argument("--config", help="config file path (flat key=value); "
                        f"default from ${ENV_CONFIG}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="write the evidence table here")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--tol-quad", type=float,
                        help="absolute quadrature tolerance")
    common.add_argument("--tol-residual", type=float,
                        help="identity residual threshold")
    common.add_argument("--tol-root", type=float,
                        help="relative tolerance of the norm root solves")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("young", parents=[common],
                       help="evaluate, conjugate, or probe a gauge family")
    p.add_argument("mode", choices=("eval", "conjugate", "delta2", "limits"))
    p.add_argument("--phi", required=True,
                   help="shorthand like power:2 or a JSON spec")
    p.add_argument("--t", type=float, help="argument for eval")
    p.set_defaults(func=cmd_young)

    p = sub.add_parser("norm", parents=[common],
                       help="modular and both norms of a simple function")
    p.add_argument("--phi", required=True)
    p.add_argument("--simple", help="simple-function JSON (inline or path)")
    p.add_argument("--indicator", help="region shorthand or JSON")
    p.add_argument("--value", type=float, default=1.0,
                   help="indicator height (default 1)")
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("moment", parents=[common],
                       help="moment vector of a polytope or region")
    p.add_argument("--poly", help="vertex list JSON (inline or path)")
    p.add_argument("--region", help="region shorthand or JSON")
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("psi", parents=[common],
                       help="moment valuation of a composed simple function")
    p.add_argument("--xi", required=True,
                   help="identity | poly:c1,c2,.. | odd:<phi> | tanh:s:r")
    p.add_argument("--simple", required=True)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("counterexample", parents=[common],
                       help="bounded-modular family with divergent moment")
    p.add_argument("--phi", default="power:2")
    p.add_argument("--xi", default="poly:0,0,0,1")
    p.add_argument("--J", type=int, default=50, help="number of terms")
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification battery; exit 0 iff it passes")
    p.add_argument("suite", choices=tuple(_suites.SUITES))
    p.add_argument("--pairs", type=int, help="valuation suite size")
    p.add_argument("--maps", type=int, help="covariance suite size")
    p.add_argument("--cases", type=int, help="lemma3 suite size")
    p.add_argument("--J", type=int, help="lemma15 term count")
    p.add_argument("--depth", type=int,
                   help=f"continuity cover depth, 0 to {_MAX_DEPTH} (default 12)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        settings = Settings(ns)
        return ns.func(ns, settings)
    except OrliczvalError as exc:
        sys.stderr.write(f"orliczval: {exc}\n")
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"orliczval: bad input: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
