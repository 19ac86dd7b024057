"""The traced mode: outputs unchanged, nested spans in the right layers."""

import numpy as np
import pytest

import tracelaurent
from tracelaurent import cli, family, roots
from perfbench import harness
from perfbench.tracer import END, NAME, PARENT, START, Tracer

MAT = np.array([[0.9 + 0.1j, 0.3], [0.2j, 1.1]])


def _outputs():
    return [
        harness.fingerprint(tracelaurent.trace_power_coeffs(8, MAT)),
        harness.fingerprint(tracelaurent.closed_form_coeffs(8, 0.4)),
        harness.fingerprint(tracelaurent.canonical_roots(8, 0.3)),
        harness.fingerprint(tracelaurent.matrix_roots(8, MAT)),
        harness.fingerprint(tracelaurent.unit_level_roots(8, 0.3)),
        harness.fingerprint(tracelaurent.trig_coeffs(8, 0.3)),
        harness.fingerprint([tracelaurent.comb_map(t, 0.3) for t in (0.0, 1.0, 2 + 1j)]),
    ]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.restore()


def test_wrapping_leaves_outputs_unchanged(tracer):
    traced = _outputs()
    tracer.restore()
    assert _outputs() == traced
    assert tracer.spans


def test_restore_puts_every_original_back():
    before = {
        "pkg": tracelaurent.canonical_roots,
        "roots": roots.closed_form_eval,
        "family": family.cheb_eval,
        "cli": cli.run,
        "eval": tracelaurent.LaurentPoly.eval,
        "init": tracelaurent.LaurentPoly.__init__,
    }
    t = Tracer()
    t.install()
    assert tracelaurent.canonical_roots is not before["pkg"]
    assert roots.closed_form_eval is not before["roots"]
    t.restore()
    after = {
        "pkg": tracelaurent.canonical_roots,
        "roots": roots.closed_form_eval,
        "family": family.cheb_eval,
        "cli": cli.run,
        "eval": tracelaurent.LaurentPoly.eval,
        "init": tracelaurent.LaurentPoly.__init__,
    }
    assert after == before


def _children(spans, index):
    return [s for s in spans if s[PARENT] == index]


def test_nested_spans_split_into_layers(tracer):
    tracer.mark_round()
    tracelaurent.canonical_roots(4, 0.3)
    spans = tracer.spans
    top = [i for i, s in enumerate(spans) if s[PARENT] == -1]
    assert [spans[i][NAME] for i in top] == ["roots.canonical_roots"]
    child_names = {s[NAME] for s in _children(spans, top[0])}
    assert child_names == {"chebyshev.cheb_roots", "roots.scaled_joukowski_preimage",
                           "family.closed_form_eval"}
    evals = [i for i, s in enumerate(spans) if s[NAME] == "family.closed_form_eval"]
    assert len(evals) == 8
    assert all({s[NAME] for s in _children(spans, i)} == {"chebyshev.cheb_eval"} for i in evals)
    metrics = tracer.metrics(["roots.canonical_roots.calls", "family.closed_form_eval.calls",
                              "chebyshev.cheb_eval.calls", "roots.roots_out"])
    assert metrics == {"roots.canonical_roots.calls": 1, "family.closed_form_eval.calls": 8,
                       "chebyshev.cheb_eval.calls": 8, "roots.roots_out": 8}


def test_self_times_add_up_to_the_top_span(tracer):
    tracer.mark_round()
    tracelaurent.matrix_roots(6, MAT)
    spans = tracer.spans
    total = spans[0][END] - spans[0][START]
    (per_round,) = tracer.per_round()
    assert sum(per_round["self_s"].values()) == pytest.approx(total, rel=1e-9)
    assert all(v >= 0 for v in per_round["self_s"].values())
    names = {s[NAME] for s in _children(spans, 0)}
    assert {"normal_form.normal_form", "roots.canonical_roots", "family.trace_power_coeffs",
            "core.LaurentPoly.eval"} <= names
    # The trace-power table leaves the family layer once; the roots once.
    assert per_round["out"]["family"] == 13
    assert per_round["out"]["roots"] == 12


def test_metrics_are_medians_over_rounds_and_zero_when_unused(tracer):
    for n in (4, 4, 8):
        tracer.mark_round()
        tracelaurent.closed_form_coeffs(n, 0.4)
    got = tracer.metrics(["family.closed_form_coeffs.calls", "family.coeffs_out",
                          "cli.run.self_ms"])
    assert got == {"family.closed_form_coeffs.calls": 1, "family.coeffs_out": 9,
                   "cli.run.self_ms": 0}
