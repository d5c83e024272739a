"""Command-line front end.

Subcommands: young, norm, moment, psi, counterexample, verify.  JSON
reports print each float as its shortest round-trip repr and CSV cells
as %.17g, so identical inputs produce byte-identical output.  A flat
key=value config file supplies defaults (path from --config or the
ORLICZVAL_CONFIG environment variable); explicit flags win over the
file.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
from collections import namedtuple

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

# cube_cover's time and memory are linear in its 2^depth grid columns, and
# the continuity suite builds every depth up to the last: depth 16 takes
# about 0.8 s and 0.12 GB, and each further level doubles both.
_MAX_DEPTH = 16


# Every common option, once: (type, default, help, choices, the verify suite
# parameter it sets).  Its flag and its config-file key are its name.
_Option = namedtuple("_Option", "type default help choices param",
                     defaults=(None, None, None))
_OPTIONS = {
    "seed": _Option(int, None, param="seed"),
    "out": _Option(str, None, "write the evidence table here"),
    "format": _Option(str, "json", choices=("json", "csv")),
    "tol-quad": _Option(float, 1e-9, "absolute quadrature tolerance"),
    "tol-residual": _Option(float, 1e-9, "identity residual threshold", param="residual_max"),
    "tol-root": _Option(float, 1e-12, "relative tolerance of the norm root solves"),
}

# Every verify flag, once: (the suite parameter it sets, help, its bounds).
# A flag reaches the suites whose signature takes that parameter.
_VerifyFlag = namedtuple("_VerifyFlag", "param help low high",
                         defaults=(math.inf,))
_VERIFY_FLAGS = {
    "pairs": _VerifyFlag("pairs", "valuation suite size", 1),
    "maps": _VerifyFlag("count", "covariance suite size", 1),
    "cases": _VerifyFlag("cases", "lemma3 suite size", 1),
    "J": _VerifyFlag("terms", "lemma15 term count", 1),
    "depth": _VerifyFlag("depth", f"continuity cover depth, 0 to {_MAX_DEPTH} (default 12)",
                         0, _MAX_DEPTH),
}


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
    if unknown := [key for key in values if key not in _OPTIONS]:
        raise OrliczvalError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}"
                             f" (known: {', '.join(_OPTIONS)})")
    return values


def _resolve_options(ns):
    """Fill each common option into ``ns``: flag, else config file, else default."""
    path = getattr(ns, "config", None) or os.environ.get(ENV_CONFIG)
    file = _load_config(path) if path else {}
    for name, option in _OPTIONS.items():
        attr = name.replace("-", "_")
        if getattr(ns, attr) is None:
            value = file.get(name, option.default)
            setattr(ns, attr, value if value is None else option.type(value))
    for name in ("tol-quad", "tol-root"):
        if not 0.0 < getattr(ns, name.replace("-", "_")) < math.inf:
            raise OrliczvalError(f"--{name} must be a positive finite number")
    if ns.format not in _OPTIONS["format"].choices:
        raise OrliczvalError(f"unknown format {ns.format!r} (use json or csv)")


def _check_size(flag, value):
    _, _, low, high = _VERIFY_FLAGS[flag]
    if not low <= value <= high:
        bound = f"lie in {low}..{high}" if high < math.inf else f"be at least {low}"
        raise OrliczvalError(f"--{flag} must {bound}, got {value}")
    return value


# ---------------------------------------------------------------------------
# serialization


def _plain(obj):
    """Recursively coerce to JSON-ready types; non-finite floats become strings."""
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
        return f
    return obj


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


def _emit(report, rows, ns):
    """Print the report; route the evidence table per format/out."""
    fmt, out = ns.format, ns.out
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


def _read_spec(token, from_json, shorthand=True):
    """Inline JSON, else a JSON file; None leaves the token to a shorthand."""
    text = token.strip()
    if text.startswith(("{", "[")):
        return from_json(json.loads(text))
    if shorthand and not os.path.exists(text):
        return None
    with open(text, "r", encoding="utf-8") as fh:
        return from_json(json.load(fh))


def _parse_phi(token):
    """power:p[:scale] | exp[:scale[:rate]] | log[:scale[:rate]] | JSON."""
    if (phi := _read_spec(token, young_from_json)) is not None:
        return phi
    name, _, rest = token.partition(":")
    args = [float(x) for x in rest.split(":") if x]
    if name not in _FAMILIES:
        raise OrliczvalError(f"unknown Young shorthand {token!r}")
    if name == "power" and not args:
        raise OrliczvalError("power family needs an exponent: power:p")
    return _FAMILIES[name](*args)


def _parse_region(token, dim):
    """ball:r | annulus:a:b | box:lo1,lo2,..:hi1,hi2,.. | JSON."""
    if (region := _read_spec(token, Region.from_json)) is not None:
        return region
    name, _, rest = token.partition(":")
    if name in ("ball", "annulus") and dim is None:
        raise OrliczvalError("ball/annulus shorthand needs --dim")
    if name == "ball":
        return Region([OriginBall(dim, float(rest))])
    if name == "annulus":
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
    if (xi := _read_spec(token, composer_from_json)) is not None:
        return xi
    if token == "identity":
        return PolynomialComposer([1.0])
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
    h = _read_spec(token, SimpleFunction.from_json, shorthand=False)
    h.check_disjoint()  # the library trusts its terms to be disjoint
    return h


# ---------------------------------------------------------------------------
# subcommands


def cmd_young(ns):
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
    _emit(report, [], ns)
    return 0


def cmd_norm(ns):
    phi = _parse_phi(ns.phi)
    abs_tol, rel_tol = ns.tol_quad, ns.tol_root
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
    _emit(report, [], ns)
    return 0


def cmd_moment(ns):
    if ns.poly is not None:
        poly = _read_spec(ns.poly, Polytope, shorthand=False)
        vec = polytope_moment(poly)
        report = {"dim": poly.dim, "moment": vec}
    elif ns.region is not None:
        region = _parse_region(ns.region, ns.dim)
        report = {"dim": region.dim, "moment": region.moment(),
                  "lebesgue": region.lebesgue(),
                  "weighted_measure": region.weighted_measure(ns.tol_quad).value}
    else:
        raise OrliczvalError("give --poly or --region")
    _emit(report, [], ns)
    return 0


def cmd_psi(ns):
    xi = _parse_xi(ns.xi)
    h = _parse_simple(ns.simple)
    vec = psi(xi, h)
    _emit({"dim": h.dim, "psi": vec}, [], ns)
    return 0


# the ball ledger's columns that the counterexample table shows
_COUNTEREXAMPLE_COLUMNS = ("j", "exponent", "beta", "center", "radius",
                           "ball_lebesgue", "moment_term", "ratio",
                           "running_moment", "running_lower_bound")


def cmd_counterexample(ns):
    phi = _parse_phi(ns.phi)
    xi = _parse_xi(ns.xi)
    plan = build_divergence_plan(xi, phi, _check_size("J", ns.J), dim=ns.dim)
    result = divergent_truncation(plan, ns.J)
    report = {"terms": ns.J, "dim": ns.dim, "sign": result["sign"],
              "modular": result["modular"],
              "modular_bound": result["modular_bound"],
              "first_moment": result["first_moment"],
              "lower_bound": result["lower_bound"]}
    _emit(report, [{k: row[k] for k in _COUNTEREXAMPLE_COLUMNS}
                   for row in result["rows"]], ns)
    return 0


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


def cmd_verify(ns):
    suite = _suites.SUITES[ns.suite]
    params = inspect.signature(suite).parameters
    kwargs = {option.param: getattr(ns, name.replace("-", "_"))
              for name, option in _OPTIONS.items() if option.param in params}
    kwargs.update({flag.param: _check_size(name, getattr(ns, name))
                   for name, flag in _VERIFY_FLAGS.items()
                   if flag.param in params and getattr(ns, name) is not None})
    result = suite(**{k: v for k, v in kwargs.items() if v is not None})
    report = {"suite": result["name"], "ok": result["ok"],
              "summary": result["summary"]}
    if not result["ok"]:
        report["first_failure"] = _first_failure(result)
    _emit(report, result["rows"], ns)
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
    for name, option in _OPTIONS.items():
        common.add_argument("--" + name, type=option.type, help=option.help,
                            choices=option.choices)

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
    for name, flag in _VERIFY_FLAGS.items():
        p.add_argument("--" + name, type=int, help=flag.help)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _resolve_options(ns)
        return ns.func(ns)
    except OrliczvalError as exc:
        sys.stderr.write(f"orliczval: {exc}\n")
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"orliczval: bad input: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
