"""Acceptance suite: one check per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Every criterion computes its verdict first and then asserts, so a failure
still prints the line for the criterion that broke.
"""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from tracelaurent import (
    brute_force_coeffs,
    canonical_matrix,
    canonical_roots,
    cheb_eval,
    cheb_preimage,
    closed_form_coeffs,
    closed_form_eval,
    comb_height,
    comb_map,
    interval_system,
    laurent_close,
    normal_form,
    psd_sqrt,
    trace_power_coeffs,
    trig_eval,
    trig_roots,
    unit_level_roots,
    arc_membership,
)
from conftest import GRID6, GRID8_OPEN, match_sets, random_generic_matrix, random_unit_column_matrix

MAJ_GRID = (
    math.pi / 8,
    5 * math.pi / 32,
    3 * math.pi / 16,
    7 * math.pi / 32,
    math.pi / 4 - 1e-3,
    math.pi / 4,
)


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _cli(argv, env_extra=None):
    exe = shutil.which("tracelaurent")
    cmd = [exe] + argv if exe else [sys.executable, "-m", "tracelaurent.cli"] + argv
    env = {k: v for k, v in os.environ.items() if k != "TRACE_LAURENT_TOL"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_criterion_01_three_route_agreement():
    ok = True
    for n in range(1, 13):
        for theta in GRID6:
            mat = canonical_matrix(theta)
            a = trace_power_coeffs(n, mat)
            b = brute_force_coeffs(n, mat)
            c = closed_form_coeffs(n, theta)
            ok = ok and laurent_close(a, b, 1e-10) and laurent_close(a, c, 1e-10)
    _report(1, "trace, enumeration, and closed-form tables agree to 1e-10 "
               "for degrees 1..12 across the angle grid", ok)


def test_criterion_02_exact_limit_tables():
    ok = True
    for n in range(1, 13):
        pure = np.zeros(2 * n + 1, dtype=complex)
        pure[0] = pure[-1] = 1.0
        for poly in (
            trace_power_coeffs(n, canonical_matrix(0.0)),
            brute_force_coeffs(n, canonical_matrix(0.0)),
            closed_form_coeffs(n, 0.0),
        ):
            ok = ok and bool(np.all(poly.coeffs == pure))
        binomial = np.zeros(2 * n + 1, dtype=complex)
        binomial[::2] = [math.comb(n, j) for j in range(n + 1)]
        ok = ok and bool(np.all(closed_form_coeffs(n, math.pi / 4).coeffs == binomial))
        for poly in (
            trace_power_coeffs(n, canonical_matrix(math.pi / 4)),
            brute_force_coeffs(n, canonical_matrix(math.pi / 4)),
        ):
            diff = np.abs(poly.coeffs - binomial)
            ok = ok and bool(np.all(diff <= 1e-12 * (1.0 + np.abs(binomial))))
    _report(2, "zero angle gives the exact two-term table in every route; "
               "quarter angle gives the binomial row", ok)


def test_criterion_03_leading_coefficients():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        m = random_generic_matrix(rng)
        norms = np.sqrt(np.sum(np.abs(m) ** 2, axis=0))
        for n in range(1, 9):
            poly = trace_power_coeffs(n, m)
            top, bottom = norms[0] ** (2 * n), norms[1] ** (2 * n)
            ok = ok and abs(poly[n] - top) <= 1e-10 * top
            ok = ok and abs(poly[-n] - bottom) <= 1e-10 * bottom
    _report(3, "extreme coefficients are the column norms raised to 2n "
               "(100 random matrices, degrees 1..8, relative 1e-10)", ok)


def test_criterion_04_normal_form_round_trip():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10):
        m = random_generic_matrix(rng)
        nf = normal_form(m)
        for n in (1, 3, 6):
            poly = trace_power_coeffs(n, m)
            for _ in range(20):
                radius = rng.uniform(0.5, 2.0)
                z = radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                lhs = poly.eval(z)
                rhs = nf.scale ** n * closed_form_eval(n, nf.angle, nf.dilation * z)
                ok = ok and abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))
    _report(4, "any member evaluates through its normal form: value scaling "
               "by scale^n and argument scaling by the dilation (1e-9)", ok)


def test_criterion_05_parameter_recovery():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(25):
        m = random_generic_matrix(rng)
        nf = normal_form(m)
        poly = trace_power_coeffs(2, m)
        c2, cm2, c0 = poly[2].real, poly[-2].real, poly[0].real
        scale = (c2 * cm2) ** 0.25
        dilation = (c2 / cm2) ** 0.25
        angle = 0.5 * math.asin(min(1.0, math.sqrt(max(c0, 0.0) / (2.0 * scale ** 2))))
        ok = ok and abs(scale - nf.scale) <= 1e-8 * (1.0 + nf.scale)
        ok = ok and abs(dilation - nf.dilation) <= 1e-8 * (1.0 + nf.dilation)
        ok = ok and abs(angle - nf.angle) <= 1e-8
    _report(5, "scale, dilation, and angle are recoverable from the degree-2 "
               "coefficients alone (1e-8)", ok)


def test_criterion_06_gram_square_root_equivalence():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(50):
        h = random_unit_column_matrix(rng)
        twin = psd_sqrt(h.conj().T @ h)
        for n in range(1, 9):
            ok = ok and laurent_close(
                trace_power_coeffs(n, h), trace_power_coeffs(n, twin), 1e-10
            )
    _report(6, "a matrix and the positive root of its Gram matrix generate "
               "the same family (50 unit-column samples, degrees 1..8)", ok)


def test_criterion_07_root_localization():
    ok = True
    for n in range(1, 17):
        for theta in GRID8_OPEN:
            report = canonical_roots(n, theta)
            roots = report.roots
            lead = max(abs(v) for v in closed_form_coeffs(n, theta).coeffs)
            ok = ok and len(roots) == 2 * n
            ok = ok and float(np.abs(np.abs(roots) - 1.0).max()) <= 1e-10
            ok = ok and report.min_pairwise_gap > 1e-6
            ok = ok and float(report.residuals.max()) <= 1e-8 * lead
            ok = ok and all(
                arc_membership(z, theta) in ("open_plus", "open_minus") for z in roots
            )
            ok = ok and match_sets(roots, [z.conjugate() for z in roots], 1e-9)
            ok = ok and match_sets(roots, [-z for z in roots], 1e-9)
    _report(7, "for angles below pi/4 all 2n roots are simple, on the unit "
               "circle, strictly inside the two open arcs, with symmetric "
               "layout and small residuals (degrees 1..16)", ok)


def test_criterion_08_coefficient_sign_structure():
    ok = True
    for n in range(1, 13):
        for theta in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3):
            poly = closed_form_coeffs(n, theta)
            ok = ok and bool(np.all(poly.coeffs[1::2] == 0.0))
            for k in range(n % 2, n + 1, 2):
                ok = ok and poly[k].real > 0.0
                ok = ok and abs(poly[k] - poly[-k]) <= 1e-12 * (1.0 + abs(poly[k]))
    for n in range(2, 13):
        for theta in MAJ_GRID:
            poly = closed_form_coeffs(n, theta)
            for k in range(n % 2, n + 1, 2):
                bound = 2.0 ** (1 - n) * math.comb(n, (n - k) // 2)
                ok = ok and poly[k].real >= bound - 1e-10
    _report(8, "canonical tables have exact parity zeros, strict positivity "
               "and symmetry on the present parity class, and obey the "
               "binomial lower bound for angles from pi/8 up", ok)


def test_criterion_09_circle_restriction_and_comb():
    ok = True
    # The two definitions of the circle restriction agree: trace-route
    # evaluation on the circle against the composed Chebyshev form, compared
    # in the unnormalized units where both are well conditioned.
    for theta in GRID8_OPEN:
        c = math.cos(2 * theta)
        mat = canonical_matrix(theta)
        for n in range(1, 11):
            table = trace_power_coeffs(n, mat)
            for t in np.linspace(0.0, math.pi, 20):
                lhs = table.eval(cmath.exp(1j * float(t))).real
                rhs = 2.0 * c ** n * trig_eval(n, theta, float(t))
                ok = ok and abs(lhs - rhs) <= 1e-10 * (1.0 + max(abs(lhs), abs(rhs)))
    # Root systems of the restriction: simple roots inside the open bands,
    # and a 2n multiplicity budget per period on the unit levels.
    for theta in GRID8_OPEN:
        system = interval_system(theta, 0, 0)
        for n in range(1, 9):
            roots = trig_roots(n, theta)
            ok = ok and len(roots) == n and bool(np.all(np.diff(roots) > 0))
            ok = ok and all(system.contains(float(t), open=True) for t in roots)
            ok = ok and all(abs(trig_eval(n, theta, float(t))) <= 1e-10 for t in roots)
            hits = unit_level_roots(n, theta)
            ok = ok and sum(m for _, _, m in hits) == 2 * n
            for level in (1, -1):
                ok = ok and sum(m for _, lv, m in hits if lv == level) == n
            ok = ok and all(system.contains(t) for t, _, _ in hits)
    # The comb coordinate: tooth tip, the cos(n u) factorization, and the
    # straightening up the imaginary axis.
    for theta in GRID8_OPEN:
        u0 = comb_map(0.0, theta)
        ok = ok and abs(u0 - 1j * comb_height(theta)) <= 1e-10
    rng = np.random.default_rng(113)
    for theta in GRID8_OPEN:
        for n in range(1, 9):
            for _ in range(50):
                t = complex(rng.uniform(-5, 5), rng.uniform(0, 3))
                lhs = cmath.cos(n * comb_map(t, theta))
                rhs = trig_eval(n, theta, t)
                ok = ok and abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
    ok = ok and abs(comb_map(30j, 0.0) / 30j - 1.0) <= 1e-6
    for theta in (t for t in GRID8_OPEN if t > 0):
        c = math.cos(2 * theta)
        for height in (30.0, 60.0):
            u = comb_map(1j * height, theta)
            drift = u / (1j * height) - 1.0 + math.log(c) / height
            ok = ok and abs(drift) <= 1e-9
    _report(9, "the circle restriction is consistent between its two "
               "definitions, its root systems fill the bands with the right "
               "multiplicities, and the comb coordinate hits the tooth tip, "
               "factors every member as cos(n u), and straightens up the axis", ok)


def test_criterion_10_level_preimages():
    ok = True
    for n in range(1, 13):
        for s in np.linspace(-1.0, 1.0, 21):
            hits = cheb_preimage(n, float(s))
            ok = ok and sum(m for _, m in hits) == n
            ok = ok and all(abs(cheb_eval(n, x) - s) <= 1e-10 for x, _ in hits)
            if abs(s) < 1.0:
                ok = ok and all(m == 1 for _, m in hits)
            else:
                ok = ok and all(m == 2 for x, m in hits if abs(x) < 1.0 - 1e-12)
    _report(10, "level preimages carry total multiplicity n, map back to "
                "their level, and double points occur only at levels +-1 "
                "away from the endpoints", ok)


def test_criterion_11_cli_contract():
    ok = True
    argv = ["coeffs", "--n", "3", "--theta", "pi/8"]
    for fmt in ((), ("--format", "csv")):
        first = _cli(argv + list(fmt))
        second = _cli(argv + list(fmt))
        ok = ok and first.returncode == 0 and first.stdout == second.stdout
    verified = _cli(["coeffs", "--n", "3", "--theta", "pi/8", "--verify"])
    ok = ok and verified.returncode == 0
    # At n = 2, pi/8 the routes' constant terms differ in the last bit (at
    # pi/6 they agree bit for bit), so a tiny tolerance must report a mismatch.
    mismatch = _cli(
        ["coeffs", "--n", "2", "--theta", "pi/8", "--verify"],
        env_extra={"TRACE_LAURENT_TOL": "1e-300"},
    )
    ok = ok and mismatch.returncode == 4
    doc = json.loads(_cli(["coeffs", "--n", "2", "--theta", "pi/8"]).stdout)
    table = trace_power_coeffs(2, canonical_matrix(math.pi / 8))
    ok = ok and doc["schema_version"] == "1"
    for entry in doc["data"]["coefficients"]:
        ok = ok and entry["re"] == table[entry["k"]].real
        ok = ok and entry["im"] == table[entry["k"]].imag
    usage = _cli(["coeffs", "--n", "2", "--theta", "bogus"])
    ok = ok and usage.returncode == 2
    domain = _cli(["roots", "--n", "2", "--theta", "pi/4"])
    ok = ok and domain.returncode == 3
    _report(11, "the command line is byte-deterministic, verifies cross-route "
                "agreement with exit 4 on mismatch, re-parses bit-faithfully, "
                "and signals usage and domain errors as 2 and 3", ok)
