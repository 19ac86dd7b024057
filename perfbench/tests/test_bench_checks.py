"""The checks accept the package's right outputs and catch wrong ones."""

import dataclasses
import json
import math

import numpy as np

import tracelaurent
from tracelaurent import cli
from perfbench import checks, workloads

REFS = checks.References()


def test_table_check_accepts_trace_power_and_catches_a_perturbed_slot():
    mat = workloads.generic_matrix(np.random.default_rng(0))
    poly = tracelaurent.trace_power_coeffs(16, mat)
    table = REFS.table(mat, 16)
    assert checks.laurent_table(poly.coeffs, 16, table) is None
    bad = poly.coeffs.copy()
    bad[16] += 1e-8 * np.max(np.abs(bad))
    assert "scaled table error" in checks.laurent_table(bad, 16, table)
    bad = poly.coeffs.copy()
    bad[1] = 1e-30
    assert "odd-parity" in checks.laurent_table(bad, 16, table)


def test_closed_form_fault_is_caught_at_n_64():
    poly = tracelaurent.closed_form_coeffs(64, 0.0)
    assert "scaled table error" in checks.laurent_table(poly.coeffs, 64, REFS.canonical(0.0, 64))
    tp = tracelaurent.trig_coeffs(64, 0.56)
    assert checks.cosine_table(tp.cos_coeffs, 64, 0.56, REFS.canonical(0.56, 64)) is None


def test_root_check_catches_moved_lost_and_repeated_roots():
    n, theta = 16, 0.3
    report = tracelaurent.canonical_roots(n, theta)
    mat = checks._canonical_double(theta)
    table = REFS.canonical(theta, n)

    def check(roots, gap=report.min_pairwise_gap):
        return checks.root_set(roots, np.zeros(len(roots)), gap, n, mat, table)

    assert check(report.roots) is None
    assert "roots, expected" in check(report.roots[:-1])
    assert "off the circle" in check(report.roots * 1.001)
    moved = report.roots.copy()
    moved[0] *= np.exp(1e-6j)
    assert "paper's formula" in check(moved)
    repeated = report.roots.copy()
    repeated[2] = repeated[0]
    assert check(repeated) is not None


def test_level_and_comb_checks():
    n, theta = 12, 0.2
    levels = tracelaurent.unit_level_roots(n, theta)
    assert checks.level_roots(levels, n, theta) is None
    assert "multiplicities" in checks.level_roots(levels[1:], n, theta)
    ts = workloads.comb_grid(8, np.random.default_rng(1))
    us = [tracelaurent.comb_map(t, theta) for t in ts]
    assert checks.comb_values(ts, us, theta) is None
    us[0] += 1e-6
    assert "misses" in checks.comb_values(ts, us, theta)


def _run(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_cli_script_fails_only_on_the_closed_form_calls():
    ops = workloads.cli_ops(5)
    failures = checks.cli_outputs(ops, [_run(op.argv) for op in ops], checks.References())
    assert sorted(ops[i].argv for i in failures) == sorted(op.argv for op in ops if op.route_fault)
    assert all(ops[i].route_fault for i in failures)


def test_cli_csv_must_agree_with_json():
    op_json = workloads.CliOp(("normal-form", "--matrix=1+1i,0;0,2"), 0)
    op_csv = dataclasses.replace(op_json, argv=op_json.argv + ("--format", "csv"))
    good_json, good_csv = _run(op_json.argv), _run(op_csv.argv)
    assert checks.cli_outputs([op_json, op_csv], [good_json, good_csv], REFS) == {}
    env = json.loads(good_json[1])
    env["data"]["R"] = math.nextafter(env["data"]["R"], 0)
    changed = (0, json.dumps(env).encode(), b"")
    failures = checks.cli_outputs([op_json, op_csv], [changed, good_csv], REFS)
    assert failures == {1: "CSV rows disagree with the JSON document"}
