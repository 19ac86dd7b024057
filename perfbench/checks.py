"""Checks of the package's outputs against the mpmath reference.

Each check returns None when the output is right, or a one-line reason.
Tolerances are scale-free. On the workloads' inputs (seeds 1-6) the package's
outputs sit at least ~100x below each tolerance, and the closed-form route's
wrong tables at least ~300x above TABLE_TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np
from mpmath import mp

from . import reference as ref
from .workloads import CliOp, Op

TABLE_TOL = 1e-10  # max-norm scaled coefficient error, as the CLI's --verify
# |L(z)| / sum_k |c_k||z|^k at a computed root. Roots near z = +-1 at small
# angles carry argument errors up to ~eps / sin(arg), so n = 1024 reaches ~1e-11.
BACKWARD_TOL = 1e-9
RADIUS_TOL = 1e-13  # relative distance of a root from its circle
ARG_TOL = 1e-11  # root argument against the paper's formula, radians
COMB_TOL = 1e-9  # |cos u(t) - cos t / cos 2theta|, relative to max(1, |rhs|)
PARAM_TOL = 1e-12  # normal-form parameters, relative


class References:
    """Reference tables shared by the checks of one run."""

    def __init__(self):
        self._tables = {}

    def table(self, mat, n: int) -> ref.Table:
        key = (np.asarray(mat, dtype=complex).tobytes(), n)
        if key not in self._tables:
            self._tables[key] = ref.Table(mat, n)
        return self._tables[key]

    def canonical(self, theta: float, n: int) -> ref.Table:
        key = (float(theta), n)
        if key not in self._tables:
            self._tables[key] = ref.Table(ref.canonical(theta), n)
        return self._tables[key]


def _canonical_double(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, c]], dtype=complex)


def laurent_table(coeffs, n: int, table: ref.Table):
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (2 * n + 1,):
        return f"table has shape {coeffs.shape}, expected {(2 * n + 1,)}"
    # Slots whose exponent differs from n in parity are structural zeros.
    if np.any(coeffs[1::2] != 0):
        return "odd-parity slot is not exactly zero"
    err = ref.scaled_error(coeffs, table)
    if not err <= TABLE_TOL:
        return f"scaled table error {err:.3g} > {TABLE_TOL:g}"
    return None


def cosine_table(cos_coeffs, n: int, theta: float, table: ref.Table):
    got = np.asarray(cos_coeffs, dtype=float)
    if got.shape != (n + 1,):
        return f"cosine table has shape {got.shape}, expected {(n + 1,)}"
    if np.any(got[(n - np.arange(n + 1)) % 2 == 1] != 0):
        return "odd-parity cosine coefficient is not exactly zero"
    with mp.workprec(ref.PREC):
        factor = table.scale / mpmath.cos(2 * mpmath.mpf(theta)) ** n
        want = np.array([float(mpmath.mpf(float(c)) * factor) for c in table.coeffs[n:].real])
    want[0] /= 2.0
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if not err <= TABLE_TOL:
        return f"scaled cosine-table error {err:.3g} > {TABLE_TOL:g}"
    return None


def root_set(roots, residuals, gap, n: int, mat, table: ref.Table):
    """2n distinct roots on |z| = 1/dilation inside the open arcs, small backward error."""
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (2 * n,):
        return f"{roots.size} roots, expected {2 * n}"
    params = ref.normal_form(mat)
    theta, radius = params["angle"], 1.0 / params["dilation"]
    dist = float(np.max(np.abs(np.abs(roots) - radius))) / radius
    if not dist <= RADIUS_TOL:
        return f"root off the circle |z| = {radius:.6g} by {dist:.3g}"
    args = np.angle(roots)
    upper = np.sort(args[args > 0])
    lower = np.sort(-args[args < 0])
    if upper.size != n or lower.size != n:
        return f"{upper.size} roots above and {lower.size} below the axis, expected {n} each"
    lo, hi = 2.0 * theta, math.pi - 2.0 * theta
    for side in (upper, lower):
        if not (side[0] > lo and side[-1] < hi):
            return "root outside the open arcs"
        if not np.all(np.diff(side) > 0):
            return "repeated root"
        dev = float(np.max(np.abs(side - ref.root_args(n, theta))))
        if not dev <= ARG_TOL:
            return f"root argument off the paper's formula by {dev:.3g}"
    # On a circle the nearest root is an angular neighbour.
    ordered = np.sort(args)
    steps = np.diff(np.concatenate([ordered, ordered[:1] + 2.0 * math.pi]))
    want_gap = float(np.min(2.0 * radius * np.sin(steps / 2.0)))
    # |z_i - z_j| in double carries an absolute error of a few ulps of the radius.
    if abs(gap - want_gap) > 1e-12 * radius:
        return f"min_pairwise_gap {gap:.6g}, expected {want_gap:.6g}"
    berr = ref.backward_errors(mat, n, roots, table)
    if not float(np.max(berr)) <= BACKWARD_TOL:
        return f"backward error {float(np.max(berr)):.3g} > {BACKWARD_TOL:g}"
    residuals = np.asarray(residuals, dtype=float)
    with mp.workprec(ref.PREC):
        scaled = [float(mpmath.mpf(float(r)) / table.abs_sum(z)) for r, z in zip(residuals, roots)]
    if not (np.all(np.isfinite(residuals)) and max(scaled) <= BACKWARD_TOL):
        return f"reported residual {max(scaled):.3g} of the root scale"
    return None


def trig_root_list(roots, n: int, theta: float):
    roots = np.asarray(roots, dtype=float)
    if roots.shape != (n,):
        return f"{roots.size} circle roots, expected {n}"
    if not (np.all(np.diff(roots) > 0) and roots[0] > 2 * theta and roots[-1] < math.pi - 2 * theta):
        return "circle roots not ascending inside (2theta, pi - 2theta)"
    dev = float(np.max(np.abs(roots - ref.root_args(n, theta))))
    if not dev <= ARG_TOL:
        return f"circle root off the paper's formula by {dev:.3g}"
    return None


def level_roots(triples, n: int, theta: float):
    totals = {1: 0, -1: 0}
    for _, level, mult in triples:
        if level in totals:
            totals[level] += mult
    if totals != {1: n, -1: n}:
        return f"multiplicities per level {totals}, expected {n} each"
    want = ref.level_args(n, theta)
    if [(lv, m) for _, lv, m in triples] != [(lv, m) for _, lv, m in want]:
        return "unit-level roots differ in level or multiplicity from T_n(cos(k pi/n)) = (-1)^k"
    dev = max(abs(t - w) for (t, _, _), (w, _, _) in zip(triples, want))
    if not dev <= ARG_TOL:
        return f"unit-level root off acos(cos 2theta cos(k pi/n)) by {dev:.3g}"
    return None


def comb_values(ts, us, theta: float):
    if len(ts) != len(us):
        return f"{len(us)} comb values for {len(ts)} points"
    with mp.workprec(ref.PREC):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        for t, u in zip(ts, us):
            t = complex(t)
            want = mpmath.cos(mpmath.mpc(t)) / c
            miss = float(abs(mpmath.cos(mpmath.mpc(u)) - want) / max(1, abs(want)))
            if not miss <= COMB_TOL:
                return f"cos u(t) misses cos t / cos 2theta by {miss:.3g} at t = {t}"
            if t == 0:
                height = mpmath.acosh(1 / c)
                miss = float(abs(mpmath.mpc(u) - 1j * height) / height)
                if not miss <= COMB_TOL:
                    return f"u(0) misses i acosh(1 / cos 2theta) by {miss:.3g}"
    return None


def library_op(op: Op, value, refs: References):
    """Check one in-process op's output."""
    n = op.n
    if op.kind == "trace_power_coeffs":
        return laurent_table(value.coeffs, n, refs.table(op.args[1], n))
    if op.kind == "closed_form_coeffs":
        return laurent_table(value.coeffs, n, refs.canonical(op.args[1], n))
    if op.kind == "trig_coeffs":
        theta = op.args[1]
        return cosine_table(value.cos_coeffs, n, theta, refs.canonical(theta, n))
    if op.kind == "canonical_roots":
        theta = op.args[1]
        return root_set(value.roots, value.residuals, value.min_pairwise_gap, n,
                        _canonical_double(theta), refs.canonical(theta, n))
    if op.kind == "matrix_roots":
        mat = op.args[1]
        return root_set(value.roots, value.residuals, value.min_pairwise_gap, n,
                        mat, refs.table(mat, n))
    if op.kind == "trig_roots":
        return trig_root_list(value, n, op.args[1])
    if op.kind == "unit_level_roots":
        return level_roots(value, n, op.args[1])
    if op.kind == "comb_map":
        ts, theta = op.args
        return comb_values(ts, value, theta)
    raise ValueError(f"no check for {op.kind}")


# ---- CLI documents -------------------------------------------------------

def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(text: str, command: str) -> list[list]:
    lines = text.splitlines()
    if lines[0] != f"# schema_version=1 command={command}":
        raise ValueError(f"bad CSV comment line {lines[0]!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return [[_cell(c) for c in row] for row in rows[1:]]


def json_rows(env: dict) -> list[list]:
    """The rows the CSV form should hold, read from the JSON envelope."""
    cmd, data = env["command"], env["data"]
    if cmd == "coeffs":
        return [[c["k"], c["re"], c["im"]] for c in data["coefficients"]]
    if cmd == "normal-form":
        return [[data[k] for k in ("R", "rho", "theta", "a_re", "a_im")]]
    if cmd == "roots":
        return [[r["re"], r["im"], r["residual"], r["classification"]] for r in data["roots"]]
    if cmd == "eval":
        a, b = data["closed_form"], data["coefficient_eval"]
        return [[a["re"], a["im"], b["re"], b["im"], data["abs_difference"]]]
    if cmd == "trig":
        return (
            [["coeff", c["k"], c["value"], None, None] for c in data["cos_coefficients"]]
            + [["root", j, t, None, None] for j, t in enumerate(data["roots"])]
            + [["unit_level_root", j, r["t"], r["level"], r["multiplicity"]]
               for j, r in enumerate(data["unit_level_roots"])]
            + [["interval", i["p"], i["lo"], i["hi"], None] for i in data["intervals"]]
        )
    if cmd == "comb":
        return [[s["t"], s["u_re"], s["u_im"], s["residual"]] for s in data["samples"]]
    if cmd == "sweep":
        return [[t["theta"], c["k"], c["re"], c["im"]] for t in data["tables"] for c in t["coefficients"]]
    raise ValueError(f"unknown command {cmd}")


def _same_rows(a: list[list], b: list[list]) -> bool:
    def norm(row):
        return [float(x) if isinstance(x, (int, float)) else x for x in row]
    return [norm(r) for r in a] == [norm(r) for r in b]


def _parse_matrix(spec: str) -> np.ndarray:
    return np.array(
        [[complex(cell.replace("i", "j")) for cell in row.split(",")] for row in spec.split(";")]
    )


def _complex(d: dict) -> complex:
    return complex(d["re"], d["im"])


def cli_document(op: CliOp, env: dict, refs: References):
    """Check one CLI JSON envelope's content against the reference."""
    if env.get("schema_version") != "1" or env.get("command") != op.argv[0]:
        return "bad envelope header"
    argv, inputs, data = op.argv, env["inputs"], env["data"]
    specs = [a.split("=", 1)[1] for a in argv if a.startswith("--matrix=")]
    mat = _parse_matrix(specs[0]) if specs else None
    cmd = argv[0]
    if cmd == "coeffs":
        n = inputs["n"]
        table = refs.table(mat, n) if mat is not None else refs.canonical(inputs["theta"], n)
        rows = sorted(data["coefficients"], key=lambda c: c["k"])
        if [c["k"] for c in rows] != list(range(-n, n + 1)):
            return "coefficient exponents are not -n..n"
        return laurent_table([_complex(c) for c in rows], n, table)
    if cmd == "normal-form":
        want = ref.normal_form(mat)
        got = {"scale": data["R"], "dilation": data["rho"], "angle": data["theta"],
               "phase": complex(data["a_re"], data["a_im"])}
        for key, value in want.items():
            if not abs(got[key] - value) <= PARAM_TOL * max(1.0, abs(value)):
                return f"normal form {key} {got[key]} differs from {value}"
        return None
    if cmd == "roots":
        n = inputs["n"]
        if mat is None:
            mat, table = _canonical_double(inputs["theta"]), refs.canonical(inputs["theta"], n)
        else:
            table = refs.table(mat, n)
        roots = np.array([complex(r["re"], r["im"]) for r in data["roots"]])
        labels = {"open_plus" if z.imag > 0 else "open_minus" for z in roots}
        if {r["classification"] for r in data["roots"]} != labels:
            return "arc classification disagrees with the sign of Im z"
        return root_set(roots, [r["residual"] for r in data["roots"]], data["min_pairwise_gap"],
                        n, mat, table)
    if cmd == "eval":
        n, theta, z = inputs["n"], inputs["theta"], _complex(inputs["z"])
        table = refs.canonical(theta, n)
        want = ref.trace_values(ref.canonical(theta), n, [z])[0]
        denom = table.abs_sum(z)
        closed, coeff = _complex(data["closed_form"]), _complex(data["coefficient_eval"])
        with mp.workprec(ref.PREC):
            for label, got in (("closed_form", closed), ("coefficient_eval", coeff)):
                miss = float(abs(mpmath.mpc(got) - want) / denom)
                if not miss <= BACKWARD_TOL:
                    return f"{label} misses L(z) by {miss:.3g} of the scale"
        if data["abs_difference"] != abs(closed - coeff):
            return "abs_difference is not |closed_form - coefficient_eval|"
        return None
    if cmd == "trig":
        n, theta = inputs["n"], inputs["theta"]
        problem = (
            cosine_table([c["value"] for c in data["cos_coefficients"]], n, theta, refs.canonical(theta, n))
            or trig_root_list(data["roots"], n, theta)
            or level_roots([(r["t"], r["level"], r["multiplicity"]) for r in data["unit_level_roots"]],
                           n, theta)
        )
        if problem:
            return problem
        for item in data["intervals"]:
            p = item["p"]
            want = (p * math.pi + 2 * theta, (p + 1) * math.pi - 2 * theta)
            if max(abs(item["lo"] - want[0]), abs(item["hi"] - want[1])) > 1e-14:
                return f"interval {p} is not [p pi + 2theta, (p+1) pi - 2theta]"
        return None
    if cmd == "comb":
        theta = inputs["theta"]
        samples = data["samples"]
        if len(samples) != inputs["samples"]:
            return f"{len(samples)} comb samples, expected {inputs['samples']}"
        with mp.workprec(ref.PREC):
            height = float(mpmath.acosh(1 / mpmath.cos(2 * mpmath.mpf(theta))))
        if not abs(data["height"] - height) <= COMB_TOL * height:
            return f"comb height {data['height']} differs from {height}"
        if not all(2 * theta < s["t"] < math.pi - 2 * theta for s in samples):
            return "comb sample outside the period-0 interval"
        return comb_values([s["t"] for s in samples], [complex(s["u_re"], s["u_im"]) for s in samples],
                           theta)
    if cmd == "sweep":
        n = inputs["n"]
        for t in data["tables"]:
            problem = laurent_table([_complex(c) for c in t["coefficients"]], n,
                                    refs.canonical(t["theta"], n))
            if problem:
                return f"theta = {t['theta']}: {problem}"
        return None
    raise ValueError(f"no check for {cmd}")


def cli_outputs(ops: list[CliOp], results: list, refs: References) -> dict:
    """Reasons for failure, by op index, over one round of CLI results.

    `results[i]` is (exit code, stdout bytes, stderr bytes). Each CSV output
    must hold the same rows as the JSON output of the same invocation.
    """
    failures = {}
    envelopes = {}
    for i, (op, (code, out, err)) in enumerate(zip(ops, results)):
        if code != 0:
            failures[i] = f"exit {code}: {err.decode().strip()}"
            continue
        if op.fmt == "json":
            try:
                env = json.loads(out)
            except json.JSONDecodeError as exc:
                failures[i] = f"JSON does not parse: {exc}"
                continue
            envelopes[op.argv] = env
            problem = cli_document(op, env, refs)
            if problem:
                failures[i] = problem
    for i, (op, (code, out, err)) in enumerate(zip(ops, results)):
        if op.fmt != "csv" or code != 0:
            continue
        twin = envelopes.get(op.argv[:-2])
        try:
            rows = csv_rows(out.decode(), op.argv[0])
        except (ValueError, IndexError) as exc:
            failures[i] = f"CSV does not parse: {exc}"
            continue
        if twin is None:
            failures[i] = "CSV output has no JSON twin to agree with"
        elif not _same_rows(rows, json_rows(twin)):
            failures[i] = "CSV rows disagree with the JSON document"
    return failures
