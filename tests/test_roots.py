"""Root localization: pullback construction, arc classification, matrix route."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tracelaurent.family
import tracelaurent.roots
from tracelaurent import (
    DomainError,
    LaurentPoly,
    RootReport,
    arc_membership,
    canonical_matrix,
    canonical_roots,
    closed_form_coeffs,
    closed_form_eval,
    matrix_roots,
    normal_form,
    trace_power_coeffs,
    trig_roots,
)
from tracelaurent.family import _family_values
from tracelaurent.roots import _min_gap
from conftest import (
    DERANDOMIZED,
    GRID8_OPEN,
    arc_label,
    circle_pullback,
    column_scale_exponents,
    match_sets,
    plain_pencil,
    random_generic_matrix,
    scaled_joukowski_preimage,
)


def scaled_joukowski(z, theta):
    return (z + 1.0 / z) / (2.0 * math.cos(2.0 * theta))


class TestMap:
    # The scaled Joukowski map and its preimage pair, by the plain quadratic formula.
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


# Pinned labels of points at a distance d in argument from an arc endpoint, on
# the arc's side and off it, at theta = pi/6. Within BOUNDARY_TOL a point is
# boundary; at d = 1e-10 rounding puts the argument just past that slack, so a
# point there is on the open arc on the arc's side and outside off it.
ENDPOINT_LABELS = {
    0.0: ("boundary", "boundary"),
    1e-16: ("boundary", "boundary"),
    1e-12: ("boundary", "boundary"),
    5e-11: ("boundary", "boundary"),
    1e-10: ("open", "outside"),
    2e-10: ("open", "outside"),
}


class TestArcs:
    def test_classification_samples(self):
        theta = math.pi / 6
        assert arc_membership(1j, theta) == "open_plus"
        assert arc_membership(-1j, theta) == "open_minus"
        assert arc_membership(complex(-0.0, 1.0), theta) == "open_plus"
        assert arc_membership(complex(-0.0, -1.0), theta) == "open_minus"
        boundary = complex(math.cos(2 * theta), math.sin(2 * theta))
        assert arc_membership(boundary, theta) == "boundary"
        assert arc_membership(1.0, theta) == "outside"
        assert arc_membership(1.5, theta) == "outside"
        assert arc_membership(0.5j, theta) == "outside"
        for re in (1.0, -1.0):
            for im in (0.0, -0.0):
                assert arc_membership(complex(re, im), theta) == "outside"
        lo, hi = 2 * theta, math.pi - 2 * theta
        for d, (inner, outer) in ENDPOINT_LABELS.items():
            for sign, arc in ((1.0, "open_plus"), (-1.0, "open_minus")):
                for a in (lo + d, hi - d):
                    label = arc_membership(cmath.exp(1j * sign * a), theta)
                    assert label == (arc if inner == "open" else inner), (d, sign, a)
                for a in (lo - d, hi + d):
                    assert arc_membership(cmath.exp(1j * sign * a), theta) == outer, (d, sign, a)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 8, 0.3, 0.01, 0.7])
    def test_no_gap_between_boundary_and_open_arc(self, theta):
        # On-arc points just past BOUNDARY_TOL from an endpoint, such as
        # exp(i (pi/3 + 1e-10)) at pi/6, used to be labelled "outside": rounding
        # left them outside the slack but not inside the arc shrunk by it.
        lo, hi = 2 * theta, math.pi - 2 * theta
        for a in (lo + 1e-10, hi - 1e-10, lo + 1.5e-10, hi - 1.5e-10):
            assert arc_membership(cmath.exp(1j * a), theta) == "open_plus", a
            assert arc_membership(cmath.exp(-1j * a), theta) == "open_minus", a
        for a in (lo - 1e-10, hi + 1e-10, lo - 1.5e-10, hi + 1.5e-10):
            assert arc_membership(cmath.exp(1j * a), theta) == "outside", a
            assert arc_membership(cmath.exp(-1j * a), theta) == "outside", a

    def test_zero_angle_arcs_cover_all_but_poles(self):
        assert arc_membership(cmath.exp(0.1j), 0.0) == "open_plus"
        assert arc_membership(1.0, 0.0) == "boundary"
        assert arc_membership(-1.0, 0.0) == "boundary"
        for re in (1.0, -1.0):
            for im in (0.0, -0.0):
                assert arc_membership(complex(re, im), 0.0) == "boundary"

    def test_angle_at_quarter_rejected(self):
        with pytest.raises(DomainError):
            arc_membership(1j, math.pi / 4)
        for z in (0, 0j):
            with pytest.raises(DomainError, match="evaluation requires z != 0"):
                arc_membership(z, math.pi / 6)


def _unit(a):
    return np.exp(1j * np.asarray(a))


ARC_MATRIX = np.array([[1 + 1j, 0.7], [0.5, 0.36]])  # CLI spelling "1+1i,0.7;0.5,0.36"
# Column exponents (p, q) near the ends of column_scale_exponents() whose normal
# form still fits in double range (+-1000 does not), with a degree that fits too.
ARC_SCALES = [(16, 510, -510), (16, -510, 510), (16, -510, -510), (1, 510, 510)]
END_THETAS = (math.pi / 6, math.pi / 8, 0.3, 0.01, 0.7)


def _arc_cases():
    for n in (1, 16, 1024, 10 ** 4):
        for theta in (0.0, 1e-12, 0.3, math.pi / 4 - 1e-3):
            yield f"canonical-{n}-{theta:.3g}", lambda n=n, theta=theta: (canonical_roots(n, theta).roots, theta)
    for n, p, q in [(64, 0, 0), *ARC_SCALES]:
        def scaled(n=n, p=p, q=q):
            report = matrix_roots(n, ARC_MATRIX * [2.0 ** p, 2.0 ** q])
            return report.roots * report.dilation, report.angle
        yield f"matrix-{n}-{p}-{q}", scaled
    for theta in END_THETAS:
        lo, hi = 2 * theta, math.pi - 2 * theta
        ends = [end + d for end in (lo, hi) for d in (1e-10, -1e-10, 1.5e-10, -1.5e-10)]
        yield f"ends-{theta:.3g}", lambda ends=ends, theta=theta: (_unit(ends + [-a for a in ends]), theta)
    axis = np.array([complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0)])
    for theta in (0.0, 0.3):
        yield f"axis-{theta:.3g}", lambda theta=theta: (axis, theta)
    circle = _unit(np.linspace(-math.pi, math.pi, 41))
    for theta in (0.0, 0.3):
        off = np.concatenate([circle * (1.0 + 2e-10), circle * (1.0 - 2e-10)])
        yield f"off-circle-{theta:.3g}", lambda off=off, theta=theta: (off, theta)


ARC_CASES = list(_arc_cases())


class TestArcArrays:
    """One array pass labels every point as the scalar cmath reference does."""

    @pytest.mark.parametrize("case", [case for _, case in ARC_CASES], ids=[name for name, _ in ARC_CASES])
    def test_matches_scalar_reference(self, case):
        points, theta = case()
        labels = arc_membership(points, theta)
        assert labels.shape == points.shape
        assert labels.tolist() == [arc_label(z, theta) for z in points]

    def test_shapes(self):
        points = canonical_roots(6, 0.3).roots.reshape(3, 4)
        labels = arc_membership(points, 0.3)
        assert labels.shape == (3, 4)
        assert labels.tolist() == [[arc_label(z, 0.3) for z in row] for row in points]
        assert type(arc_membership(1j, 0.3)) is str
        assert type(arc_membership(np.complex128(1j), 0.3)) is str
        listed = arc_membership([1j, -1j, 2.0], 0.3)
        assert isinstance(listed, np.ndarray)
        assert listed.tolist() == ["open_plus", "open_minus", "outside"]

    def test_zero_anywhere_in_an_array_is_rejected(self):
        with pytest.raises(DomainError, match="evaluation requires z != 0"):
            arc_membership(np.array([1j, 0.0, -1j]), 0.3)


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
        upper = [circle_pullback(m, n, theta) for m in range(2 * n - 1, 0, -2)]
        loop = [z for u in upper for z in (u, u.conjugate())]
        assert canonical_roots(n, theta).roots.tobytes() == np.array(loop).tobytes()

    def test_quarter_angle_rejected(self):
        with pytest.raises(DomainError):
            canonical_roots(2, math.pi / 4)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 16, 0.3, math.pi / 6])
    def test_report_carries_angle_and_unit_dilation(self, theta):
        report = canonical_roots(4, theta)
        assert (report.angle, report.dilation) == (theta, 1.0)

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

    def test_report_carries_normal_form_parameters(self):
        # The CLI classifies scaled roots through these; no second normal form.
        rng = np.random.default_rng(91)
        for _ in range(5):
            m = random_generic_matrix(rng)
            nf = normal_form(m)
            if math.cos(2.0 * nf.angle) < 1e-9:
                continue
            report = matrix_roots(3, m)
            assert (report.angle.hex(), report.dilation.hex()) == (nf.angle.hex(), nf.dilation.hex())

    def test_tiny_matrix_is_out_of_range_not_non_generic(self):
        # Both columns are nonzero; it used to be reported as a zero column.
        with pytest.raises(DomainError, match="scale 0 leaves the normal double range"):
            matrix_roots(16, 1e-170 * np.array([[1.0, 0.3], [0.2, 1.0]]))


# Unit-scale matrices whose columns the property below scales by powers of two.
SCALED_BASES = (np.array([[1.0, 0.3], [0.2, 1.0]]), random_generic_matrix(np.random.default_rng(97)))


@DERANDOMIZED
@given(column_scale_exponents(), st.sampled_from((4, 16)), st.sampled_from(range(len(SCALED_BASES))))
def test_matrix_roots_under_power_of_two_column_scales(exponents, n, index):
    # Scaling the columns by 2^p and 2^q is exact: the roots scale by 2^(q - p) and
    # L_n by 2^((p + q) n). Wherever the normal form and L(|z|) fit with a margin,
    # the roots must agree with the unscaled matrix's, and so must the residuals on
    # the backward-error scale L(|z|). Squaring the plain entries put the pencil out
    # of range long before the values: an overflow DomainError, or residuals off by
    # up to half of L(|z|).
    p, q = exponents
    base = SCALED_BASES[index]
    want, nf = matrix_roots(n, base), normal_form(base)
    unit = _family_values(n, *plain_pencil(base), np.abs(want.roots[:1])).real[0]
    log_scale = math.log2(nf.scale) + p + q
    log_dilation = math.log2(nf.dilation) + p - q
    log_unit = math.log2(unit) + n * (p + q)
    fits = -1000 < log_scale < 1000 and -1020 < log_dilation < 1020 and -1000 < log_unit < 1000
    try:
        got = matrix_roots(n, base * [2.0 ** p, 2.0 ** q])
    except DomainError:
        assert not fits, (p, q)
        return
    assert got.angle == want.angle
    assert got.dilation == math.ldexp(want.dilation, p - q)
    roots = np.ldexp(got.roots.real, p - q) + 1j * np.ldexp(got.roots.imag, p - q)
    assert np.abs(roots - want.roots).max() <= 1e-15 * abs(want.roots[0])
    if fits:
        residuals = np.ldexp(got.residuals, -(p + q) * n)
        assert np.abs(residuals - want.residuals).max() <= 1e-13 * unit


class TestReport:
    def test_validation(self):
        with pytest.raises(ValueError, match="residuals need shape"):
            RootReport([1j, -1j], [0.0], 2.0, 0.3, 1.0)
        # Non-finite roots or residuals used to be stored as given.
        for roots, residuals in (([math.nan], [0.0]), ([1j], [math.inf]), ([complex(1.0, math.inf)], [0.0])):
            with pytest.raises(DomainError, match="must be finite"):
                RootReport(roots, residuals, 0.0, 0.3, 1.0)

    def test_arrays_read_only(self):
        report = canonical_roots(2, 0.3)
        for values in (report.roots, report.residuals):
            with pytest.raises(ValueError):
                values[0] = 0.0


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
            values = _family_values(n, *plain_pencil(mat), report.roots)
            assert residuals.tobytes() == np.abs(values).tobytes()


class TestOneEvaluationPerCall:
    """Residuals come from one kernel call over the n upper roots, whatever the
    degree, so a per-root loop, an evaluation at the conjugate roots too, or a
    return to the matrix's coefficient table, fails here without any timing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"closed_form_eval": [], "_family_values": [], "LaurentPoly.eval": [],
                  "trace_power_coeffs": []}

        def counted(name, fn, points):
            def wrapper(*args, **kwargs):
                counts[name].append(points(args))
                return fn(*args, **kwargs)
            return wrapper

        evaluate = counted("closed_form_eval", tracelaurent.roots.closed_form_eval, lambda args: np.size(args[2]))
        monkeypatch.setattr(tracelaurent.roots, "closed_form_eval", evaluate)
        kernel = counted("_family_values", tracelaurent.roots._family_values, lambda args: np.size(args[4]))
        monkeypatch.setattr(tracelaurent.roots, "_family_values", kernel)
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
        assert calls == {"closed_form_eval": [], "_family_values": [n], "LaurentPoly.eval": [],
                         "trace_power_coeffs": []}

    @pytest.mark.parametrize("n", [1, 8, 64, 300])
    def test_matrix_roots(self, calls, n):
        # The canonical pullback is shared, not the canonical report: no
        # canonical residuals are computed only to be discarded.
        matrix_roots(n, canonical_matrix(0.3) @ np.diag([1.1, 0.9]))
        assert calls == {"closed_form_eval": [], "_family_values": [n], "LaurentPoly.eval": [],
                         "trace_power_coeffs": []}
