"""Command-line interface: envelopes, formats, determinism, exit codes."""

import argparse
import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tracelaurent import LaurentPoly, canonical_matrix, cli, trace_power_coeffs
from tracelaurent.cli import _COLUMNS, _build_parser, run
from conftest import child_env


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def read_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# schema_version=1 command=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestCoeffs:
    def test_envelope_shape(self, capsys):
        doc = invoke_json(capsys, "coeffs", "--n", "2", "--theta", "pi/6")
        assert doc["schema_version"] == "1"
        assert doc["command"] == "coeffs"
        assert doc["inputs"]["n"] == 2
        assert doc["inputs"]["theta"] == pytest.approx(math.pi / 6)
        assert doc["inputs"]["method"] == "trace"
        assert doc["inputs"]["matrix"] is None
        ks = [entry["k"] for entry in doc["data"]["coefficients"]]
        assert ks == [-2, -1, 0, 1, 2]
        values = [entry["re"] for entry in doc["data"]["coefficients"]]
        assert values == pytest.approx([1.0, 0.0, 1.5, 0.0, 1.0])

    def test_json_floats_reparse_bit_for_bit(self, capsys):
        doc = invoke_json(capsys, "coeffs", "--n", "2", "--theta", "pi/8")
        table = trace_power_coeffs(2, canonical_matrix(math.pi / 8))
        for entry in doc["data"]["coefficients"]:
            assert entry["re"] == table[entry["k"]].real
            assert entry["im"] == table[entry["k"]].imag

    def test_csv_floats_reparse_bit_for_bit(self, capsys):
        code, out, _ = invoke(
            capsys, "coeffs", "--n", "2", "--theta", "pi/8", "--format", "csv"
        )
        assert code == 0
        comment, header, rows = read_csv(out)
        assert comment == "# schema_version=1 command=coeffs"
        assert header == ["k", "re", "im"]
        table = trace_power_coeffs(2, canonical_matrix(math.pi / 8))
        assert len(rows) == 5
        for k_text, re_text, im_text in rows:
            k = int(k_text)
            assert float(re_text) == table[k].real
            assert float(im_text) == table[k].imag

    def test_methods_agree(self, capsys):
        docs = [
            invoke_json(capsys, "coeffs", "--n", "3", "--theta", "pi/8", "--method", m)
            for m in ("trace", "closed", "brute")
        ]
        base = [e["re"] for e in docs[0]["data"]["coefficients"]]
        for doc in docs[1:]:
            got = [e["re"] for e in doc["data"]["coefficients"]]
            assert got == pytest.approx(base, abs=1e-12)

    def test_matrix_closed_method_uses_normal_form(self, capsys):
        spec = "1+1i,0;0,2"
        a = invoke_json(capsys, "coeffs", "--n", "3", "--matrix", spec)
        b = invoke_json(capsys, "coeffs", "--n", "3", "--matrix", spec, "--method", "closed")
        for ea, eb in zip(a["data"]["coefficients"], b["data"]["coefficients"]):
            assert eb["re"] == pytest.approx(ea["re"], abs=1e-10)
            assert eb["im"] == pytest.approx(ea["im"], abs=1e-10)

    def test_verify_pass(self, capsys):
        code, _, _ = invoke(capsys, "coeffs", "--n", "3", "--theta", "pi/8", "--verify")
        assert code == 0

    def test_verify_pass_at_moderate_degree(self, capsys):
        code, _, err = invoke(capsys, "coeffs", "--n", "48", "--theta", "pi/16", "--verify")
        assert code == 0, err

    def test_verify_mismatch_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_TOL", 1e-300)
        # The routes' constant terms differ in the last bit at n = 2, pi/8.
        code, _, err = invoke(capsys, "coeffs", "--n", "2", "--theta", "pi/8", "--verify")
        assert code == 4
        assert "disagree" in err

    def test_verify_checks_the_printed_brute_table(self, capsys, monkeypatch):
        # --method brute used to compare the trace and closed-form tables,
        # neither of which it prints, and passed whatever the brute route gave.
        brute = cli.brute_force_coeffs
        monkeypatch.setattr(cli, "brute_force_coeffs",
                            lambda n, mat: LaurentPoly(n, brute(n, mat).coeffs * 1.01))
        code, out, err = invoke(capsys, "coeffs", "--n", "3", "--theta", "pi/8",
                                "--method", "brute", "--verify")
        assert (code, out) == (4, "")
        assert err == ("error: trace and brute-force coefficient tables disagree "
                       "beyond tolerance 1e-10\n")

    def test_verify_checks_matrix_tables(self, capsys, monkeypatch):
        # Near-parallel columns (dilation 1.38, angle 0.78): the DFT closed form's
        # rescaled table erred by 5e-8 scaled at n = 64; the trace table agrees.
        rng = np.random.default_rng(3)
        v, u = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        near = np.column_stack([v, (0.7 + 0.2j) * v + 1e-2 * u])
        spec = ";".join(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in near)
        argv = ["coeffs", "--n", "64", "--matrix", spec, "--method", "closed", "--format", "csv"]
        plain = invoke(capsys, *argv)
        assert plain[0] == 0
        assert invoke(capsys, *argv, "--verify") == plain
        for method in ("trace", "closed", "brute"):  # CSV: no `inputs` echo of --verify
            small = ["coeffs", "--n", "12", "--matrix", "1+1i,0.7;0.5,0.36", "--method", method,
                     "--format", "csv"]
            plain = invoke(capsys, *small)
            assert plain[0] == 0
            assert invoke(capsys, *small, "--verify") == plain
        closed = cli._closed_form_matrix_coeffs
        monkeypatch.setattr(cli, "_closed_form_matrix_coeffs",
                            lambda n, mat: LaurentPoly(n, closed(n, mat).coeffs * 1.01))
        code, out, err = invoke(capsys, *argv, "--verify")
        assert (code, out) == (4, "")
        assert err == ("error: trace and closed-form coefficient tables disagree "
                       "beyond tolerance 1e-10\n")

    def test_verify_passes_where_the_recurrence_cancelled(self, capsys):
        # n sin 2 theta ~ 8: the Cayley-Hamilton table erred by 1.9e-10 of its peak
        # against the closed form here, and --verify exited 4.
        argv = ["coeffs", "--n", "4096", "--theta", "0.001"]
        code, _, err = invoke(capsys, *argv, "--verify")
        assert (code, err) == (0, "")
        argv += ["--format", "csv"]  # CSV: no `inputs` echo of --verify
        plain = invoke(capsys, *argv)
        assert plain[0] == 0
        assert invoke(capsys, *argv, "--verify") == plain

    @pytest.mark.parametrize("method", ["trace", "closed"])
    def test_verify_of_zero_column_exit_3(self, capsys, method):
        # The trace table of a zero column exists; its closed-form check raises.
        code, out, err = invoke(capsys, "coeffs", "--n", "2", "--matrix", "1,0;1,0",
                                "--method", method, "--verify")
        assert (code, out) == (3, "")
        assert "zero" in err

    @pytest.mark.parametrize("spec", ["1e-200,0;0,1e150", "1e160,0;0,1e160", "1e-170,0.3e-170;0.2e-170,1e-170"])
    @pytest.mark.parametrize("n", ["1", "2", "16"])
    def test_closed_form_of_an_extreme_scale_matrix_matches_the_trace_route(self, capsys, spec, n):
        # The closed route used to build the matrix's normal form and drop it, so a scale or
        # dilation beyond double range stopped it, even at n = 1 where the trace route prints
        # "1e-200,0;0,1e150". It fails now only where its own table leaves double range.
        argv = ["coeffs", "--n", n, "--matrix", spec, "--format", "csv"]  # CSV: no `inputs` echo
        code, out, err = invoke(capsys, *argv)
        for extra in (("--method", "closed"), ("--method", "closed", "--verify"), ("--verify",)):
            got = invoke(capsys, *argv, *extra)
            assert "normal-form" not in got[2]
            if code == 0:
                assert got == (code, out, err)
            else:
                failed = err if extra == ("--verify",) else err.replace("trace-power", "closed-form")
                assert got == (3, "", failed)
        assert (code == 0) == (n == "1" and spec == "1e-200,0;0,1e150")

    def test_brute_cap_exit_2(self, capsys):
        code, _, err = invoke(
            capsys, "coeffs", "--n", "17", "--theta", "pi/6", "--method", "brute"
        )
        assert code == 2
        assert "16" in err

    def test_nonpositive_degree_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "coeffs", "--n", "0", "--theta", "pi/6")
        assert code == 2


class TestNormalFormCommand:
    def test_json(self, capsys):
        doc = invoke_json(capsys, "normal-form", "--matrix", "1,0;0,2")
        assert doc["data"] == {
            "R": 2.0, "rho": 0.5, "theta": 0.0, "a_re": 1.0, "a_im": 0.0,
        }

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "normal-form", "--matrix", "1,0;0,2", "--format", "csv"
        )
        assert code == 0
        comment, header, rows = read_csv(out)
        assert header == ["R", "rho", "theta", "a_re", "a_im"]
        assert rows == [["2", "0.5", "0", "1", "0"]]

    def test_non_generic_exit_3(self, capsys):
        code, _, err = invoke(capsys, "normal-form", "--matrix", "0,1;0,1")
        assert code == 3
        assert "non-generic" in err

    def test_scale_beyond_double_range_exit_3(self, capsys):
        # This used to exit 2, the usage-error code, on a well-formed matrix.
        code, out, err = invoke(capsys, "normal-form", "--matrix", "1e-160,3e-161;2e-161,1e-160")
        assert (code, out) == (3, "")
        assert "normal double range" in err

    def test_tiny_column_reduces(self, capsys):
        # A column of norm 1e-301 is not a zero column; scale and dilation are normal.
        code, _, err = invoke(capsys, "normal-form", "--matrix", "1e-301,1;0,1")
        assert (code, err) == (0, "")


class TestRootsCommand:
    def test_canonical(self, capsys):
        doc = invoke_json(capsys, "roots", "--n", "2", "--theta", "pi/6")
        roots = doc["data"]["roots"]
        assert len(roots) == 4
        for entry in roots:
            assert entry["classification"] in ("open_plus", "open_minus")
            assert entry["residual"] <= 1e-12
            assert math.hypot(entry["re"], entry["im"]) == pytest.approx(1.0)
        assert doc["data"]["min_pairwise_gap"] > 0.5

    def test_matrix_roots_classified_through_canonical(self, capsys):
        doc = invoke_json(capsys, "roots", "--n", "1", "--matrix", "2,0;0,1")
        got = sorted(
            (entry["re"], entry["im"], entry["classification"])
            for entry in doc["data"]["roots"]
        )
        assert got[0] == (pytest.approx(0.0, abs=1e-15), pytest.approx(-0.5), "open_minus")
        assert got[1] == (pytest.approx(0.0, abs=1e-15), pytest.approx(0.5), "open_plus")

    def test_matrix_columns_beyond_squaring_range_exit_0(self, capsys):
        # |c1|^2 ~ 1e310 squared from the plain entries overflowed, and roots exited 3
        # with "family values of degree 4 overflow"; the values near 1e20 fit.
        doc = invoke_json(capsys, "roots", "--n", "4", "--matrix", "1e155,3e-151;2e154,1e-150")
        assert len(doc["data"]["roots"]) == 8
        assert all(math.isfinite(entry["residual"]) for entry in doc["data"]["roots"])

    @pytest.mark.parametrize("source", [("--theta", "0.3"), ("--matrix", "1+1i,0.7;0.5,0.36")], ids=["theta", "matrix"])
    def test_all_roots_classified_in_one_call(self, capsys, monkeypatch, source):
        # Classifying root by root made one arc_membership call per root, 128 here.
        shapes, classify = [], cli.arc_membership

        def counted(z, theta):
            shapes.append(np.shape(z))
            return classify(z, theta)

        monkeypatch.setattr(cli, "arc_membership", counted)
        doc = invoke_json(capsys, "roots", "--n", "64", *source)
        assert shapes == [(128,)]
        assert len(doc["data"]["roots"]) == 128

    def test_quarter_angle_exit_3(self, capsys):
        code, _, err = invoke(capsys, "roots", "--n", "2", "--theta", "pi/4")
        assert code == 3
        assert "pi/4" in err


class TestEvalCommand:
    def test_worked_value(self, capsys):
        doc = invoke_json(capsys, "eval", "--n", "2", "--theta", "pi/6", "--z", "1+0i")
        assert doc["data"]["closed_form"]["re"] == pytest.approx(3.5)
        assert doc["data"]["closed_form"]["im"] == 0.0
        assert doc["data"]["abs_difference"] <= 1e-12

    def test_complex_argument_parsing(self, capsys):
        doc = invoke_json(capsys, "eval", "--n", "1", "--theta", "0", "--z", "0+1i")
        # z + 1/z at i is 0.
        assert abs(complex(doc["data"]["closed_form"]["re"],
                           doc["data"]["closed_form"]["im"])) <= 1e-15

    def test_zero_point_exit_3(self, capsys):
        code, _, _ = invoke(capsys, "eval", "--n", "1", "--theta", "0", "--z", "0")
        assert code == 3

    def test_near_quarter_turn_prints_valid_json(self, capsys):
        # c^n underflows and T_n overflows here when formed apart; the value
        # L(1) = 1.79585e308 came out as NaN tokens, which JSON does not have.
        code, out, err = invoke(capsys, "eval", "--n", "1024", "--theta", "0.7843981633974483",
                                "--z", "1+0i")
        assert code == 0, err
        assert "NaN" not in out and "Infinity" not in out
        doc = json.loads(out)
        assert doc["data"]["closed_form"]["re"] == pytest.approx(1.79585e308, rel=1e-5)
        assert doc["data"]["closed_form"]["im"] == 0.0

    def test_value_beyond_double_range_exit_3(self, capsys):
        code, out, err = invoke(capsys, "eval", "--n", "1100", "--theta", "0.7843981633974483",
                                "--z", "1+0i")
        assert code == 3
        assert out == ""
        assert "degree 1100 overflow" in err


class TestTrigCommand:
    def test_json(self, capsys):
        doc = invoke_json(capsys, "trig", "--n", "2", "--theta", "pi/6")
        values = [e["value"] for e in doc["data"]["cos_coefficients"]]
        assert values == pytest.approx([3.0, 0.0, 4.0], rel=1e-12)
        assert len(doc["data"]["roots"]) == 2
        levels = doc["data"]["unit_level_roots"]
        assert [e["level"] for e in levels] == [1, -1, 1]
        assert [e["multiplicity"] for e in levels] == [1, 2, 1]
        assert [e["p"] for e in doc["data"]["intervals"]] == [-1, 0, 1]
        band = doc["data"]["intervals"][1]
        assert (band["lo"], band["hi"]) == pytest.approx((math.pi / 3, 2 * math.pi / 3))

    def test_csv_kind_column(self, capsys):
        code, out, _ = invoke(capsys, "trig", "--n", "2", "--theta", "pi/6", "--format", "csv")
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["kind", "index", "a", "b", "c"]
        kinds = {row[0] for row in rows}
        assert kinds == {"coeff", "root", "unit_level_root", "interval"}
        coeff_rows = [row for row in rows if row[0] == "coeff"]
        assert [row[3:] for row in coeff_rows] == [["", ""]] * 3


class TestCombCommand:
    def test_samples(self, capsys):
        doc = invoke_json(capsys, "comb", "--theta", "pi/6", "--samples", "9")
        assert doc["data"]["height"] == pytest.approx(math.log(2 + math.sqrt(3)))
        samples = doc["data"]["samples"]
        assert len(samples) == 9
        lo, hi = math.pi / 3, 2 * math.pi / 3
        for entry in samples:
            assert lo < entry["t"] < hi
            assert entry["residual"] <= 1e-12
            assert entry["u_im"] == 0.0

    def test_sample_count_validated(self, capsys):
        code, _, _ = invoke(capsys, "comb", "--theta", "pi/6", "--samples", "0")
        assert code == 2

    def test_quarter_angle_exit_3(self, capsys):
        code, _, _ = invoke(capsys, "comb", "--theta", "pi/4", "--samples", "3")
        assert code == 3


class TestSweepCommand:
    def test_grid(self, capsys):
        doc = invoke_json(capsys, "sweep", "--n", "2", "--theta-grid", "5")
        tables = doc["data"]["tables"]
        assert [t["theta"] for t in tables] == pytest.approx(
            [0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4]
        )
        # Endpoint table is the binomial row.
        last = [e["re"] for e in tables[-1]["coefficients"]]
        assert last == pytest.approx([1.0, 0.0, 2.0, 0.0, 1.0])

    def test_zero_angle_table_is_exact(self, capsys):
        doc = invoke_json(capsys, "sweep", "--n", "64", "--theta-grid", "2")
        zero = doc["data"]["tables"][0]
        assert zero["theta"] == 0.0
        want = [1.0 if abs(k) == 64 else 0.0 for k in range(-64, 65)]
        assert [e["re"] for e in zero["coefficients"]] == want
        assert all(e["im"] == 0.0 for e in zero["coefficients"])

    def test_csv_row_count(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--n", "2", "--theta-grid", "3", "--format", "csv")
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["theta", "k", "re", "im"]
        assert len(rows) == 3 * 5

    def test_grid_validated(self, capsys):
        code, _, _ = invoke(capsys, "sweep", "--n", "2", "--theta-grid", "0")
        assert code == 2


class TestDeterminism:
    def test_repeat_invocations_identical(self, capsys):
        for argv in (
            ("coeffs", "--n", "4", "--theta", "pi/8"),
            ("coeffs", "--n", "4", "--theta", "pi/8", "--format", "csv"),
            ("roots", "--n", "3", "--theta", "pi/16", "--format", "csv"),
            ("trig", "--n", "3", "--theta", "pi/8"),
        ):
            _, first, _ = invoke(capsys, *argv)
            _, second, _ = invoke(capsys, *argv)
            assert first == second

    def test_subprocess_matches_in_process(self, capsys):
        argv = ["coeffs", "--n", "3", "--theta", "pi/6", "--format", "csv"]
        _, expected, _ = invoke(capsys, *argv)
        cmd = [sys.executable, "-m", "tracelaurent.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout == expected


# Each command's JSON data rearranged into its CSV records, cell for cell.
_JSON_RECORDS = {
    "coeffs": lambda d: [(e["k"], e["re"], e["im"]) for e in d["coefficients"]],
    "normal-form": lambda d: [(d["R"], d["rho"], d["theta"], d["a_re"], d["a_im"])],
    "roots": lambda d: [
        (e["re"], e["im"], e["residual"], e["classification"]) for e in d["roots"]
    ],
    "eval": lambda d: [(
        d["closed_form"]["re"], d["closed_form"]["im"],
        d["coefficient_eval"]["re"], d["coefficient_eval"]["im"], d["abs_difference"],
    )],
    "trig": lambda d: [
        *[("coeff", e["k"], e["value"], "", "") for e in d["cos_coefficients"]],
        *[("root", j, t, "", "") for j, t in enumerate(d["roots"])],
        *[("unit_level_root", j, e["t"], e["level"], e["multiplicity"])
          for j, e in enumerate(d["unit_level_roots"])],
        *[("interval", e["p"], e["lo"], e["hi"], "") for e in d["intervals"]],
    ],
    "comb": lambda d: [(e["t"], e["u_re"], e["u_im"], e["residual"]) for e in d["samples"]],
    "sweep": lambda d: [
        (table["theta"], e["k"], e["re"], e["im"])
        for table in d["tables"] for e in table["coefficients"]
    ],
}


# One invocation of each command, and the `inputs` its JSON envelope echoes.
_SPEC = "1+1i,0.5;-0.7,2"
_SPEC_JSON = [
    [{"re": 1.0, "im": 1.0}, {"re": 0.5, "im": 0.0}],
    [{"re": -0.7, "im": 0.0}, {"re": 2.0, "im": 0.0}],
]
_INVOCATIONS = [
    (("coeffs", "--n", "3", "--matrix", _SPEC),
     {"n": 3, "theta": None, "matrix": _SPEC_JSON, "method": "trace", "verify": False}),
    (("normal-form", "--matrix", _SPEC), {"matrix": _SPEC_JSON}),
    (("roots", "--n", "3", "--matrix", _SPEC), {"n": 3, "theta": None, "matrix": _SPEC_JSON}),
    (("eval", "--n", "3", "--theta", "pi/8", "--z", "0.6+0.9i"),
     {"n": 3, "theta": math.pi / 8, "z": {"re": 0.6, "im": 0.9}}),
    (("trig", "--n", "3", "--theta", "pi/8"), {"n": 3, "theta": math.pi / 8}),
    (("comb", "--theta", "pi/8", "--samples", "5"), {"theta": math.pi / 8, "samples": 5}),
    (("sweep", "--n", "3", "--theta-grid", "3"), {"n": 3, "theta_grid": 3}),
]


class TestRecordsDerivedForms:
    @pytest.mark.parametrize("argv", [argv for argv, _ in _INVOCATIONS], ids=lambda argv: argv[0])
    def test_csv_matches_declared_columns_and_json(self, capsys, argv):
        doc = invoke_json(capsys, *argv)
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        comment, header, rows = read_csv(out)
        assert comment == f"# schema_version=1 command={argv[0]}"
        assert tuple(header) == _COLUMNS[argv[0]]
        expected = _JSON_RECORDS[argv[0]](doc["data"])
        assert len(rows) == len(expected) > 0
        for row, record in zip(rows, expected):
            assert len(row) == len(record)
            for cell, value in zip(row, record):
                if isinstance(value, float):
                    assert float(cell).hex() == value.hex()
                elif isinstance(value, int):
                    assert int(cell) == value
                else:
                    assert cell == value

    @pytest.mark.parametrize("argv, inputs", [
        *_INVOCATIONS,
        (("coeffs", "--n", "2", "--theta", "pi/6", "--method", "closed", "--verify"),
         {"n": 2, "theta": math.pi / 6, "matrix": None, "method": "closed", "verify": True}),
    ], ids=[argv[0] for argv, _ in _INVOCATIONS] + ["coeffs-verify"])
    def test_inputs_echo_every_parsed_option(self, capsys, argv, inputs):
        # Key order and values, pinned: the echo is built from the parsed options.
        doc = invoke_json(capsys, *argv)
        assert list(doc["inputs"].items()) == list(inputs.items())


def _declared_commands(lines):
    return list(dict.fromkeys(
        line.split()[1] for line in lines if line.strip().startswith("tracelaurent ")
    ))


class TestCommandsDeclaredOnce:
    def test_parser_columns_docstring_and_readme_agree(self):
        # The parser declares each command once; the column table, the usage
        # block and README's command block must name the same commands.
        sub = next(action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        usage = cli.__doc__.split("Usage:", 1)[1].split("\n\n", 1)[0]
        assert len(_COLUMNS) == 7
        assert list(sub.choices) == list(_COLUMNS)
        assert _declared_commands(usage.splitlines()) == list(_COLUMNS)
        assert _declared_commands(block.splitlines()) == list(_COLUMNS)


class TestOverflow:
    def test_overflowing_table_exit_3_names_it(self, capsys):
        # |det M| = |2.35 + 2i| ~ 3.09, so |det M|^1024 ~ 1e501 leaves double
        # range: the residuals' Chebyshev form overflows at the roots themselves.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                capsys, "roots", "--n", "1024", "--matrix", "1+1i,0.5;-0.7,2"
            )
        assert code == 3
        assert out == ""
        assert "degree 1024 overflow" in err

    @pytest.mark.parametrize(
        "argv, n",
        [
            (("coeffs", "--n", "300", "--matrix", "1000,0;0,1000", "--method", "closed"), 300),
            (("trig", "--n", "1024", "--theta", "0.5"), 1024),
            (("trig", "--n", "200", "--theta", "0.7843981633974483"), 200),
        ],
    )
    def test_closed_form_and_cosine_overflow_exit_3(self, capsys, argv, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"degree {n} overflow" in err


class TestUnderflow:
    @pytest.mark.parametrize("method", ["trace", "closed"])
    def test_underflowing_table_exit_3_names_it(self, capsys, method):
        # The true entries are ~1e-1280; the table used to print as zeros, exit 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                capsys, "coeffs", "--n", "64", "--matrix", "1e-10,3e-11;2e-11,1e-10", "--method", method
            )
        assert code == 3
        assert out == ""
        assert "degree 64 underflow double range" in err

    @pytest.mark.parametrize("spec, kind", [
        ("1e-10,3e-11;2e-11,1e-10", "underflow"),
        ("1e200,3e199;2e199,1e200", "overflow"),
    ])
    def test_brute_force_table_out_of_range_exit_3(self, capsys, spec, kind):
        # n = 16 is the brute-force cap. The tiny table, wholly subnormal
        # (~1e-318), used to print with exit 0, and the huge one leaked numpy
        # warnings first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                capsys, "coeffs", "--n", "16", "--matrix", spec, "--method", "brute"
            )
        assert code == 3
        assert out == ""
        assert f"brute-force coefficients of degree 16 {kind} double range" in err


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        code, _, _ = invoke(capsys, "coeffs", "--theta", "pi/6")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_bad_theta_token(self, capsys):
        code, _, err = invoke(capsys, "coeffs", "--n", "2", "--theta", "bogus")
        assert code == 2
        assert "bogus" in err
        prefix = "tracelaurent coeffs: error: argument --theta: "
        for token in ("inf", "nan"):
            code, out, err = invoke(capsys, "coeffs", "--n", "2", "--theta", token)
            assert (code, out) == (2, "")
            assert err.endswith(f"{prefix}non-finite angle '{token}'\n"), err
        prefix = "tracelaurent eval: error: argument --z: "
        for token, message in (("1+xi", "cannot parse complex entry '1+xi'"),
                               ("nan", "non-finite complex entry 'nan'"),
                               ("infj", "non-finite complex entry 'infj'"),
                               ("nan+infj", "non-finite complex entry 'nan+infj'")):
            code, out, err = invoke(capsys, "eval", "--n", "2", "--theta", "pi/6", "--z", token)
            assert (code, out) == (2, "")
            assert err.endswith(f"{prefix}{message}\n"), err

    def test_bad_matrix_spec(self, capsys):
        code, _, _ = invoke(capsys, "coeffs", "--n", "2", "--matrix", "1,2,3")
        assert code == 2
        prefix = "tracelaurent coeffs: error: argument --matrix: "
        for spec, message in (("inf,0;0,1", "non-finite complex entry 'inf'"),
                              ("1,0,2;0,1", "matrix row '1,0,2' needs 2 comma-separated entries")):
            code, out, err = invoke(capsys, "coeffs", "--n", "2", "--matrix", spec)
            assert (code, out) == (2, "")
            assert err.endswith(f"{prefix}{message}\n"), err

    def test_theta_and_matrix_conflict(self, capsys):
        code, _, _ = invoke(
            capsys, "coeffs", "--n", "2", "--theta", "pi/6", "--matrix", "1,0;0,1"
        )
        assert code == 2
