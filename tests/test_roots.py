"""Root localization: pullback construction, arc classification, matrix route."""

import math

import numpy as np
import pytest

import tracelaurent.family
import tracelaurent.roots
from tracelaurent import (
    DomainError,
    LaurentPoly,
    arc_membership,
    canonical_matrix,
    canonical_roots,
    cheb_roots,
    closed_form_coeffs,
    closed_form_eval,
    matrix_roots,
    normal_form,
    trace_power_coeffs,
    trig_roots,
)
from tracelaurent.family import _matrix_eval
from tracelaurent.roots import _min_gap
from conftest import GRID8_OPEN, match_sets, random_generic_matrix, scaled_joukowski_preimage


def scaled_joukowski(z, theta):
    return (z + 1.0 / z) / (2.0 * math.cos(2.0 * theta))


class TestMap:
    # The scaled Joukowski map and its preimage pair, the reference that the
    # vectorized pullback of canonical_roots is checked against bit for bit.
    def test_fixed_points(self):
        assert scaled_joukowski(1.0, 0.0) == pytest.approx(1.0)
        assert scaled_joukowski(1j, math.pi / 6) == pytest.approx(0.0, abs=1e-15)

    def test_arc_endpoint_maps_to_one(self):
        theta = math.pi / 6
        z = complex(math.cos(2 * theta), math.sin(2 * theta))
        assert scaled_joukowski(z, theta) == pytest.approx(1.0, abs=1e-15)

    def test_preimage_round_trip(self):
        for w in (0.3, -0.9, 1.5 + 0.5j, -2.0):
            for theta in (0.0, math.pi / 8, math.pi / 6):
                a, b = scaled_joukowski_preimage(w, theta)
                assert scaled_joukowski(a, theta) == pytest.approx(w, abs=1e-12)
                assert scaled_joukowski(b, theta) == pytest.approx(w, abs=1e-12)
                assert a * b == pytest.approx(1.0)

    def test_real_small_level_gives_exact_conjugates(self):
        a, b = scaled_joukowski_preimage(0.4, math.pi / 6)
        assert b == a.conjugate()
        assert abs(a) == pytest.approx(1.0, abs=1e-15)

    def test_level_one_double_point(self):
        a, b = scaled_joukowski_preimage(1.0, 0.0)
        assert a == b == 1.0


class TestArcs:
    def test_classification_samples(self):
        theta = math.pi / 6
        assert arc_membership(1j, theta) == "open_plus"
        assert arc_membership(-1j, theta) == "open_minus"
        boundary = complex(math.cos(2 * theta), math.sin(2 * theta))
        assert arc_membership(boundary, theta) == "boundary"
        assert arc_membership(1.0, theta) == "outside"
        assert arc_membership(1.5, theta) == "outside"
        assert arc_membership(0.5j, theta) == "outside"

    def test_zero_angle_arcs_cover_all_but_poles(self):
        import cmath

        assert arc_membership(cmath.exp(0.1j), 0.0) == "open_plus"
        assert arc_membership(1.0, 0.0) == "boundary"
        assert arc_membership(-1.0, 0.0) == "boundary"

    def test_angle_at_quarter_rejected(self):
        with pytest.raises(DomainError):
            arc_membership(1j, math.pi / 4)


class TestCanonicalRoots:
    def test_worked_example_arguments(self):
        report = canonical_roots(2, math.pi / 6)
        args = sorted(np.angle(report.roots))
        want = sorted(
            [
                math.acos(math.sqrt(2) / 4),
                -math.acos(math.sqrt(2) / 4),
                math.acos(-math.sqrt(2) / 4),
                -math.acos(-math.sqrt(2) / 4),
            ]
        )
        assert args == pytest.approx(want)
        assert report.residuals.max() <= 1e-12

    def test_zero_angle_arguments(self):
        report = canonical_roots(3, 0.0)
        args = sorted(np.angle(report.roots))
        want = sorted(
            [math.pi / 6, -math.pi / 6, math.pi / 2, -math.pi / 2,
             5 * math.pi / 6, -5 * math.pi / 6]
        )
        assert args == pytest.approx(want)

    def test_against_numpy_companion_roots(self):
        # Oracle: z^2n * L_n(z) is an ordinary polynomial; np.roots finds
        # its zeros.
        for n, theta in ((2, math.pi / 6), (4, math.pi / 8), (5, 0.1)):
            poly = closed_form_coeffs(n, theta)
            monomial = poly.coeffs[::-1]
            want = np.roots(monomial)
            got = canonical_roots(n, theta).roots
            assert match_sets(got, want, 1e-8)

    @pytest.mark.parametrize("theta", GRID8_OPEN)
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    def test_report_properties(self, n, theta):
        report = canonical_roots(n, theta)
        assert len(report.roots) == 2 * n
        assert np.abs(np.abs(report.roots) - 1.0).max() <= 1e-12
        assert report.min_pairwise_gap > 1e-6
        assert report.residuals.max() <= 1e-10
        for z in report.roots:
            assert arc_membership(z, theta) in ("open_plus", "open_minus")

    def test_roots_closed_under_conjugation_and_negation(self):
        report = canonical_roots(4, math.pi / 8)
        roots = list(report.roots)
        assert match_sets(roots, [z.conjugate() for z in roots], 1e-12)
        assert match_sets(roots, [-z for z in roots], 1e-12)

    def test_min_gap_is_pairwise_minimum(self):
        # The report reads the gap off neighbours in pullback order: consecutive
        # upper roots, consecutive lower roots and the two conjugate pairs at
        # the ends. On one circle that is the minimum over all pairs.
        rng = np.random.default_rng(87)
        reports = [
            canonical_roots(n, theta)
            for n in (1, 2, 7, 64, 1024)
            for theta in (1e-3, 0.3, math.pi / 4 - 1e-3)
        ]
        reports += [matrix_roots(n, random_generic_matrix(rng)) for n in (1, 5, 16, 64)]
        reports.append(matrix_roots(1024, canonical_matrix(0.3) @ np.diag([1.02, 1 / 1.02])))
        for report in reports:
            roots = report.roots
            pairwise = np.full(len(roots), np.inf)
            for start in range(0, len(roots), 256):  # blocks keep the n = 1024 table small
                block = np.abs(roots[start:start + 256, None] - roots[None, :])
                block[np.arange(len(block)), start + np.arange(len(block))] = np.inf
                pairwise[start:start + 256] = block.min(axis=1)
            assert report.min_pairwise_gap == pairwise.min()

    @pytest.mark.parametrize("angles", [(3.13, 2.0, 1.0, 0.5), (2.6, 2.0, 1.0, 0.01)])
    def test_min_gap_counts_the_conjugate_pairs_at_both_ends(self, angles):
        # A ring in pullback order, upper roots with real parts ascending, each
        # followed by its conjugate, whose closest pair straddles the real axis
        # at angle ~pi (first case) or ~0 (second): the chord 2 sin(angle).
        ring = np.empty(8, dtype=complex)
        ring[0::2] = np.exp(1j * np.array(angles))
        ring[1::2] = ring[0::2].conj()
        closest = min(angles[0], angles[-1], key=math.sin)
        assert _min_gap(ring) == pytest.approx(2.0 * math.sin(closest), rel=1e-14)

    def test_min_gap_of_a_single_pair(self):
        # n = 1: the only pair straddles the real axis, and is both end pairs.
        report = canonical_roots(1, 0.3)
        assert report.min_pairwise_gap == np.abs(report.roots[0] - report.roots[1])

    @pytest.mark.parametrize("n, theta", [(1, 0.0), (7, 0.3), (64, math.pi / 4 - 1e-3), (256, 1e-3)])
    def test_pullback_matches_preimage_loop_bit_for_bit(self, n, theta):
        loop = [z for zeta in cheb_roots(n) for z in scaled_joukowski_preimage(zeta, theta)]
        assert canonical_roots(n, theta).roots.tobytes() == np.array(loop).tobytes()

    def test_quarter_angle_rejected(self):
        with pytest.raises(DomainError):
            canonical_roots(2, math.pi / 4)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            canonical_roots(0, 0.1)


class TestMatrixRoots:
    def test_diagonal_example(self):
        report = matrix_roots(1, np.diag([2.0, 1.0]))
        assert match_sets(report.roots, [0.5j, -0.5j], 1e-12)
        assert report.residuals.max() <= 1e-12

    def test_roots_land_on_shrunk_circle(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            m = random_generic_matrix(rng)
            nf = normal_form(m)
            if nf.angle >= math.pi / 4 - 1e-6:
                continue
            report = matrix_roots(3, m)
            radius = 1.0 / nf.dilation
            assert np.abs(np.abs(report.roots) - radius).max() <= 1e-9 * radius

    def test_residuals_measured_against_input_matrix(self):
        rng = np.random.default_rng(81)
        m = random_generic_matrix(rng)
        report = matrix_roots(4, m)
        poly = trace_power_coeffs(4, m)
        lead = max(abs(c) for c in poly.coeffs)
        assert report.residuals.max() <= 1e-8 * lead

    @pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-9, 1e-10])
    def test_quarter_turn_edge_shared_with_canonical_route(self, delta):
        # One edge decides where an angle counts as pi/4: the canonical
        # pullback, the circle restriction and the matrix route (through the
        # normal form) all accept or all reject.
        theta = math.pi / 4 - delta
        calls = (
            lambda: canonical_roots(8, theta),
            lambda: trig_roots(8, theta),
            lambda: matrix_roots(8, canonical_matrix(theta)),
        )
        outcomes = []
        for call in calls:
            try:
                call()
                outcomes.append("ok")
            except DomainError:
                outcomes.append("domain")
        assert len(set(outcomes)) == 1, outcomes
        assert outcomes[0] == ("domain" if math.cos(2 * theta) < 1e-9 else "ok")

    def test_rank_one_angle_rejected(self):
        mat = canonical_matrix(math.pi / 4) @ np.diag([2.0, 1.0])
        with pytest.raises(DomainError, match="collapse"):
            matrix_roots(2, mat)


class TestConjugateResiduals:
    """A conjugate pair shares one residual, evaluated once at the upper root;
    the copy must equal a full evaluation at all 2n roots bit for bit."""

    @pytest.mark.parametrize("theta", [1e-3, 0.3, math.pi / 4 - 1e-3])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
    def test_canonical_roots(self, n, theta):
        report = canonical_roots(n, theta)
        residuals = report.residuals
        assert residuals[0::2].tobytes() == residuals[1::2].tobytes()
        assert residuals.tobytes() == np.abs(closed_form_eval(n, theta, report.roots)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
    def test_matrix_roots(self, n):
        rng = np.random.default_rng(n)
        mats = [canonical_matrix(0.3) @ np.diag([1.02, 1 / 1.02])]
        if n < 1024:  # beyond, |det M|^n of a random matrix may leave double range
            mats += [random_generic_matrix(rng) for _ in range(5)]
        for mat in mats:
            report = matrix_roots(n, mat)
            residuals = report.residuals
            assert residuals[0::2].tobytes() == residuals[1::2].tobytes()
            assert residuals.tobytes() == np.abs(_matrix_eval(n, mat, report.roots)).tobytes()


class TestOneEvaluationPerCall:
    """Residuals come from one kernel call over the n upper roots, whatever the
    degree, so a per-root loop, an evaluation at the conjugate roots too, or a
    return to the matrix's coefficient table, fails here without any timing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"closed_form_eval": [], "_closed_form_values": [], "_matrix_eval": [],
                  "LaurentPoly.eval": [], "trace_power_coeffs": []}

        def counted(name, fn, points):
            def wrapper(*args, **kwargs):
                counts[name].append(points(args))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("closed_form_eval", "_closed_form_values", "_matrix_eval"):
            fn = getattr(tracelaurent.roots, name)
            monkeypatch.setattr(tracelaurent.roots, name, counted(name, fn, lambda args: np.size(args[2])))
        # Counted wherever roots could look the table route up.
        table = counted("trace_power_coeffs", tracelaurent.family.trace_power_coeffs, lambda args: 0)
        monkeypatch.setattr(tracelaurent.family, "trace_power_coeffs", table)
        monkeypatch.setattr(tracelaurent.roots, "trace_power_coeffs", table, raising=False)
        evaluate = counted("LaurentPoly.eval", LaurentPoly.eval, lambda args: np.size(args[1]))
        monkeypatch.setattr(LaurentPoly, "eval", evaluate)
        return counts

    @pytest.mark.parametrize("n", [1, 8, 64, 300])
    def test_canonical_roots(self, calls, n):
        canonical_roots(n, 0.3)
        assert calls == {"closed_form_eval": [], "_closed_form_values": [n], "_matrix_eval": [],
                         "LaurentPoly.eval": [], "trace_power_coeffs": []}

    @pytest.mark.parametrize("n", [1, 8, 64, 300])
    def test_matrix_roots(self, calls, n):
        # The canonical pullback is shared, not the canonical report: no
        # canonical residuals are computed only to be discarded.
        matrix_roots(n, canonical_matrix(0.3) @ np.diag([1.1, 0.9]))
        assert calls == {"closed_form_eval": [], "_closed_form_values": [], "_matrix_eval": [n],
                         "LaurentPoly.eval": [], "trace_power_coeffs": []}
