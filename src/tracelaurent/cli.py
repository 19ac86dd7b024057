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
comb an angle at pi/4, meaning cos 2 theta < 1e-9), 4 --verify disagreement.
The environment variable TRACE_LAURENT_TOL overrides the default --verify
comparison tolerance 1e-10.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .core import VERIFY_TOL, DomainError, LaurentPoly, laurent_close
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
_ANGLE_TOKENS = {
    "pi/4": math.pi / 4,
    "pi/6": math.pi / 6,
    "pi/8": math.pi / 8,
    "pi/16": math.pi / 16,
}

# The CSV columns of each command. Every handler returns (inputs, data,
# records), one record per CSV row with its cells in this order; where a
# JSON list has the same fields, its entries are built from the records too.
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


def _parse_theta(text: str) -> float:
    token = text.strip()
    if token in _ANGLE_TOKENS:
        return _ANGLE_TOKENS[token]
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r} (decimal radians or pi/4, pi/6, pi/8, pi/16)"
        ) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite angle {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    token = text.strip().replace(" ", "")
    try:
        value = complex(token.replace("i", "j").replace("I", "J"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex entry {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"non-finite complex entry {text!r}")
    return value


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


def _comparison_tol() -> float:
    raw = os.environ.get("TRACE_LAURENT_TOL")
    if raw is None:
        return VERIFY_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"invalid TRACE_LAURENT_TOL value {raw!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"TRACE_LAURENT_TOL must be a positive finite number, got {raw!r}")
    return value


def _cjson(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _matrix_json(mat) -> list:
    return [[_cjson(complex(mat[i, j])) for j in range(2)] for i in range(2)]


def _entries(command: str, records) -> list[dict]:
    return [dict(zip(_COLUMNS[command], record)) for record in records]


def _coeff_records(poly: LaurentPoly) -> list[tuple]:
    return [(k, v.real, v.imag) for k, v in poly.terms()]


def _cmd_coeffs(args):
    tol = _comparison_tol()
    if args.verify and args.theta is None:
        raise ValueError("--verify requires --theta (the cross-check pair is trace vs closed form)")
    n = args.n
    mat = args.matrix if args.theta is None else canonical_matrix(args.theta)
    if args.method == "trace":
        poly = trace_power_coeffs(n, mat)
    elif args.method == "brute":
        poly = brute_force_coeffs(n, mat)
    elif args.theta is not None:
        poly = closed_form_coeffs(n, args.theta)
    else:
        poly = _closed_form_matrix_coeffs(n, mat)
    if args.verify:
        trace_poly = poly if args.method == "trace" else trace_power_coeffs(n, mat)
        closed_poly = poly if args.method == "closed" else closed_form_coeffs(n, args.theta)
        if not laurent_close(trace_poly, closed_poly, tol):
            raise _VerifyMismatch(
                f"trace and closed-form coefficient tables disagree beyond tolerance {tol}"
            )
    inputs = {
        "n": n,
        "theta": None if args.theta is None else float(args.theta),
        "matrix": None if args.matrix is None else _matrix_json(args.matrix),
        "method": args.method,
        "verify": bool(args.verify),
    }
    records = _coeff_records(poly)
    return inputs, {"coefficients": _entries("coeffs", records)}, records


def _cmd_normal_form(args):
    nf = normal_form(args.matrix)
    record = (float(nf.scale), float(nf.dilation), float(nf.angle),
              float(nf.phase.real), float(nf.phase.imag))
    return {"matrix": _matrix_json(args.matrix)}, _entries("normal-form", [record])[0], [record]


def _cmd_roots(args):
    n = args.n
    if args.theta is not None:
        report = canonical_roots(n, args.theta)
        angle = args.theta
        dilation = 1.0
    else:
        nf = normal_form(args.matrix)
        report = matrix_roots(n, args.matrix)
        angle = nf.angle
        dilation = nf.dilation
    # Arc classification is defined on the unit circle; scaled roots are
    # classified through their canonical counterparts.
    records = [
        (float(z.real), float(z.imag), float(res), arc_membership(complex(z) * dilation, angle))
        for z, res in zip(report.roots, report.residuals)
    ]
    inputs = {
        "n": n,
        "theta": None if args.theta is None else float(args.theta),
        "matrix": None if args.matrix is None else _matrix_json(args.matrix),
    }
    data = {"roots": _entries("roots", records), "min_pairwise_gap": float(report.min_pairwise_gap)}
    return inputs, data, records


def _cmd_eval(args):
    closed = complex(closed_form_eval(args.n, args.theta, args.z))
    by_coeffs = trace_power_coeffs(args.n, canonical_matrix(args.theta)).eval(args.z)
    diff = float(abs(closed - by_coeffs))
    inputs = {"n": args.n, "theta": float(args.theta), "z": _cjson(args.z)}
    data = {
        "closed_form": _cjson(closed),
        "coefficient_eval": _cjson(by_coeffs),
        "abs_difference": diff,
    }
    return inputs, data, [(closed.real, closed.imag, by_coeffs.real, by_coeffs.imag, diff)]


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
    return {"n": n, "theta": float(theta)}, data, records


def _cmd_comb(args):
    theta, samples = args.theta, args.samples
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    height = comb_height(theta)
    lo, hi = 2.0 * theta, math.pi - 2.0 * theta
    c = math.cos(2.0 * theta)
    records = []
    for i in range(samples):
        # Interior grid of the period-0 interval; endpoints excluded.
        t = lo + (hi - lo) * (i + 1) / (samples + 1)
        u = comb_map(t, theta)
        residual = abs(cmath.cos(u) - math.cos(t) / c)
        records.append((float(t), float(u.real), float(u.imag), float(residual)))
    inputs = {"theta": float(theta), "samples": samples}
    return inputs, {"height": float(height), "samples": _entries("comb", records)}, records


def _cmd_sweep(args):
    n, grid = args.n, args.theta_grid
    if grid < 1:
        raise ValueError("--theta-grid must be >= 1")
    if grid == 1:
        thetas = [0.0]
    else:
        thetas = [j * (math.pi / 4) / (grid - 1) for j in range(grid)]
    tables = []
    records = []
    for theta in thetas:
        table = _coeff_records(closed_form_coeffs(n, theta))
        tables.append({"theta": float(theta), "coefficients": _entries("coeffs", table)})
        records.extend((theta, *record) for record in table)
    return {"n": n, "theta_grid": grid}, {"tables": tables}, records


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "normal-form": _cmd_normal_form,
    "roots": _cmd_roots,
    "eval": _cmd_eval,
    "trig": _cmd_trig,
    "comb": _cmd_comb,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelaurent",
        description="Trace-power Laurent family: coefficients, normal forms, roots, and circle data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format (default json)")

    p = sub.add_parser("coeffs", help="coefficient table of a family member")
    p.add_argument("--n", type=int, required=True, help="degree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", type=_parse_matrix, help='matrix spec "a+bi,c+di;e+fi,g+hi"')
    group.add_argument("--theta", type=_parse_theta, help="angle of the canonical matrix")
    p.add_argument("--method", choices=("trace", "closed", "brute"), default="trace")
    p.add_argument("--verify", action="store_true",
                   help="cross-check trace vs closed form; exit 4 on disagreement")
    add_format(p)

    p = sub.add_parser("normal-form", help="normal form parameters of a matrix")
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    add_format(p)

    p = sub.add_parser("roots", help="root localization report")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", type=_parse_matrix)
    group.add_argument("--theta", type=_parse_theta)
    add_format(p)

    p = sub.add_parser("eval", help="evaluate one family member two ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_parse_theta, required=True)
    p.add_argument("--z", type=_parse_complex, required=True)
    add_format(p)

    p = sub.add_parser("trig", help="circle restriction: cosine coefficients and root systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_parse_theta, required=True)
    add_format(p)

    p = sub.add_parser("comb", help="comb map samples on the period-0 interval")
    p.add_argument("--theta", type=_parse_theta, required=True)
    p.add_argument("--samples", type=int, required=True)
    add_format(p)

    p = sub.add_parser("sweep", help="coefficient tables over an angle grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-grid", dest="theta_grid", type=int, required=True)
    add_format(p)

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


def run(argv) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        inputs, data, records = _DISPATCH[args.command](args)
    except _VerifyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(_render_csv(args.command, records))
    else:
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
