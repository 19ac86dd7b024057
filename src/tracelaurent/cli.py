"""Deterministic command-line interface over the library.

Usage:
    tracelaurent coeffs --n 2 --theta pi/6 [--method trace|closed|brute] [--verify]
    tracelaurent normal-form --matrix "1+1i,0;0,2"
    tracelaurent roots --n 2 --theta pi/6
    tracelaurent eval --n 2 --theta pi/6 --z 1+0i
    tracelaurent trig --n 2 --theta pi/6
    tracelaurent comb --theta pi/6 --samples 9
    tracelaurent sweep --n 3 --theta-grid 5

Matrices are written "a+bi,c+di;e+fi,g+hi" (rows split by ';', entries by
','). Angles accept decimal radians or the tokens pi/4, pi/6, pi/8, pi/16.
Output is a JSON envelope by default, or CSV rows with --format csv; floats
are printed with 17 significant digits so they re-parse bit-faithfully.
Identical invocations produce byte-identical documents.

Exit codes: 0 success, 2 usage error, 3 domain error (non-generic matrix,
angle out of range, coefficients beyond double range, or for roots, trig and
comb an angle at pi/4, meaning cos 2 theta < 1e-9), 4 --verify disagreement
beyond the fixed tolerance 1e-10.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

import numpy as np

from .core import VERIFY_TOL, DomainError, LaurentPoly, check_open_angle, laurent_close
from .family import (
    DegreeCapError,
    _closed_form_matrix_coeffs,
    brute_force_coeffs,
    closed_form_coeffs,
    closed_form_eval,
    trace_power_coeffs,
)
from .normal_form import canonical_matrix, normal_form
from .roots import arc_membership, canonical_roots, matrix_roots
from .trig import IntervalSystem, comb_height, comb_map, trig_coeffs, trig_roots, unit_level_roots

__all__ = ["main", "run"]

SCHEMA_VERSION = "1"
_ANGLE_TOKENS = {f"pi/{k}": math.pi / k for k in (4, 6, 8, 16)}

# The CSV columns of each command. Every handler returns (data, records), one
# record per CSV row with its cells in this order; where a JSON list has the
# same fields, its entries are built from the records too.
_COLUMNS = {
    "coeffs": ("k", "re", "im"),
    "normal-form": ("R", "rho", "theta", "a_re", "a_im"),
    "roots": ("re", "im", "residual", "classification"),
    "eval": ("closed_re", "closed_im", "coeff_re", "coeff_im", "abs_difference"),
    "trig": ("kind", "index", "a", "b", "c"),
    "comb": ("t", "u_re", "u_im", "residual"),
    "sweep": ("theta", "k", "re", "im"),
}


class _VerifyMismatch(Exception):
    pass


def _parse_finite(convert, token: str, text: str, what: str, hint: str = ""):
    """`convert(token)` if it parses to a finite number; usage errors quote `text`."""
    try:
        value = convert(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {what} {text!r}{hint}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite {what} {text!r}")
    return value


def _parse_theta(text: str) -> float:
    token = text.strip()
    if token in _ANGLE_TOKENS:
        return _ANGLE_TOKENS[token]
    return _parse_finite(float, token, text, "angle", " (decimal radians or pi/4, pi/6, pi/8, pi/16)")


def _parse_complex(text: str) -> complex:
    token = text.strip().replace(" ", "")  # only a trailing i or I is the imaginary unit
    token = token[:-1] + "j" if token.endswith(("i", "I")) else token
    return _parse_finite(complex, token, text, "complex entry")


def _parse_matrix(text: str) -> np.ndarray:
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise argparse.ArgumentTypeError(
            f"matrix spec needs 2 rows separated by ';', got {len(rows)}"
        )
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise argparse.ArgumentTypeError(
                f"matrix row {row!r} needs 2 comma-separated entries"
            )
        entries.append([_parse_complex(cell) for cell in cells])
    return np.array(entries, dtype=complex)


def _cjson(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _input_json(value):
    if isinstance(value, np.ndarray):
        return [[_cjson(complex(entry)) for entry in row] for row in value]
    return _cjson(value) if isinstance(value, complex) else value


def _entries(command: str, records) -> list[dict]:
    return [dict(zip(_COLUMNS[command], record)) for record in records]


def _coeff_records(poly: LaurentPoly) -> list[tuple]:
    return [(k, v.real, v.imag) for k, v in poly.terms()]


def _cmd_coeffs(args):
    n, theta = args.n, args.theta
    mat = args.matrix if theta is None else canonical_matrix(theta)
    routes = {
        "trace": lambda: trace_power_coeffs(n, mat),
        "brute": lambda: brute_force_coeffs(n, mat),
        "closed": lambda: _closed_form_matrix_coeffs(n, mat) if theta is None else closed_form_coeffs(n, theta),
    }
    poly = routes[args.method]()
    if args.verify:
        # The printed table against the trace route; a trace table against the closed form.
        pair = (poly, routes["closed"]()) if args.method == "trace" else (routes["trace"](), poly)
        other_name = "brute-force" if args.method == "brute" else "closed-form"
        if not laurent_close(*pair, VERIFY_TOL):
            raise _VerifyMismatch(
                f"trace and {other_name} coefficient tables disagree beyond tolerance {VERIFY_TOL}"
            )
    records = _coeff_records(poly)
    return {"coefficients": _entries("coeffs", records)}, records


def _cmd_normal_form(args):
    nf = normal_form(args.matrix)
    record = (float(nf.scale), float(nf.dilation), float(nf.angle),
              float(nf.phase.real), float(nf.phase.imag))
    return _entries("normal-form", [record])[0], [record]


def _cmd_roots(args):
    if args.theta is not None:
        report = canonical_roots(args.n, args.theta)
    else:
        report = matrix_roots(args.n, args.matrix)
    # Arcs lie on the unit circle: each root is classified by its canonical counterpart.
    labels = arc_membership(report.roots * report.dilation, report.angle).tolist()
    records = [(float(z.real), float(z.imag), float(res), label)
               for z, res, label in zip(report.roots, report.residuals, labels)]
    data = {"roots": _entries("roots", records), "min_pairwise_gap": float(report.min_pairwise_gap)}
    return data, records


def _cmd_eval(args):
    closed = complex(closed_form_eval(args.n, args.theta, args.z))
    by_coeffs = trace_power_coeffs(args.n, canonical_matrix(args.theta)).eval(args.z)
    diff = float(abs(closed - by_coeffs))
    data = {
        "closed_form": _cjson(closed),
        "coefficient_eval": _cjson(by_coeffs),
        "abs_difference": diff,
    }
    return data, [(closed.real, closed.imag, by_coeffs.real, by_coeffs.imag, diff)]


def _cmd_trig(args):
    n, theta = args.n, args.theta
    coeffs = [float(v) for v in trig_coeffs(n, theta).cos_coeffs]
    roots = [float(t) for t in trig_roots(n, theta)]
    levels = unit_level_roots(n, theta)
    intervals = list(zip(range(-1, 2), IntervalSystem(theta, -1, 1).intervals()))
    data = {
        "cos_coefficients": [{"k": k, "value": v} for k, v in enumerate(coeffs)],
        "roots": roots,
        "unit_level_roots": [
            {"t": float(t), "level": level, "multiplicity": mult} for t, level, mult in levels
        ],
        "intervals": [{"p": p, "lo": float(lo), "hi": float(hi)} for p, (lo, hi) in intervals],
    }
    records = [
        *[("coeff", k, v, "", "") for k, v in enumerate(coeffs)],
        *[("root", j, t, "", "") for j, t in enumerate(roots)],
        *[("unit_level_root", j, t, level, mult) for j, (t, level, mult) in enumerate(levels)],
        *[("interval", p, lo, hi, "") for p, (lo, hi) in intervals],
    ]
    return data, records


def _cmd_comb(args):
    theta, samples = args.theta, args.samples
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    c = check_open_angle(theta)
    lo, hi = 2.0 * theta, math.pi - 2.0 * theta
    records = []
    for i in range(samples):
        # Interior grid of the period-0 interval; endpoints excluded.
        t = lo + (hi - lo) * (i + 1) / (samples + 1)
        u = comb_map(t, theta)
        residual = abs(cmath.cos(u) - math.cos(t) / c)
        records.append((float(t), float(u.real), float(u.imag), float(residual)))
    return {"height": float(comb_height(theta)), "samples": _entries("comb", records)}, records


def _cmd_sweep(args):
    n, grid = args.n, args.theta_grid
    if grid < 1:
        raise ValueError("--theta-grid must be >= 1")
    thetas = [j * (math.pi / 4) / (grid - 1) for j in range(grid)] if grid > 1 else [0.0]
    tables = []
    records = []
    for theta in thetas:
        table = _coeff_records(closed_form_coeffs(n, theta))
        tables.append({"theta": float(theta), "coefficients": _entries("coeffs", table)})
        records.extend((theta, *record) for record in table)
    return {"tables": tables}, records


# Options that several commands take; each is required, or one of the pair "--theta|--matrix".
_OPTIONS = {
    "--n": dict(type=int, help="degree"),
    "--theta": dict(type=_parse_theta, help="angle of the canonical matrix"),
    "--matrix": dict(type=_parse_matrix, help='matrix spec "a+bi,c+di;e+fi,g+hi"'),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelaurent",
        description="Trace-power Laurent family: coefficients, normal forms, roots, and circle data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *shared):
        # `shared` names _OPTIONS in declaration order, which is the order `inputs` echoes.
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in shared:
            if flag == "--theta|--matrix":
                group = p.add_mutually_exclusive_group(required=True)
                for option in ("--theta", "--matrix"):
                    group.add_argument(option, **_OPTIONS[option])
            else:
                p.add_argument(flag, required=True, **_OPTIONS[flag])
        return p

    p = command("coeffs", _cmd_coeffs, "coefficient table of a family member",
                "--n", "--theta|--matrix")
    p.add_argument("--method", choices=("trace", "closed", "brute"), default="trace")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the printed table against the trace route (a trace table "
                        "against the closed form of --theta or of --matrix); exit 4 on disagreement")
    command("normal-form", _cmd_normal_form, "normal form parameters of a matrix", "--matrix")
    command("roots", _cmd_roots, "root localization report", "--n", "--theta|--matrix")
    p = command("eval", _cmd_eval, "evaluate one family member two ways", "--n", "--theta")
    p.add_argument("--z", type=_parse_complex, required=True)
    command("trig", _cmd_trig, "circle restriction: cosine coefficients and root systems",
            "--n", "--theta")
    p = command("comb", _cmd_comb, "comb map samples on the period-0 interval", "--theta")
    p.add_argument("--samples", type=int, required=True)
    p = command("sweep", _cmd_sweep, "coefficient tables over an angle grid", "--n")
    p.add_argument("--theta-grid", type=int, required=True)
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format (default json)")
    return parser


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _render_csv(command: str, records) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION} command={command}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS[command])
    writer.writerows([_cell(value) for value in record] for record in records)
    return buf.getvalue()


# Exit code of each error a handler may raise; the first matching class wins.
_EXIT_CODES = {_VerifyMismatch: 4, DomainError: 3, DegreeCapError: 2, ValueError: 2}


def run(argv) -> int:
    """Execute one invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        data, records = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    if args.format == "csv":
        sys.stdout.write(_render_csv(args.command, records))
    else:
        # `inputs` echoes every parsed option, in declaration order.
        inputs = {
            key: _input_json(value)
            for key, value in vars(args).items()
            if key not in ("command", "format", "handler")
        }
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "data": data,
        }
        sys.stdout.write(json.dumps(envelope, indent=2) + "\n")
    return 0


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
