"""Container layer: construction, indexing, split-Horner evaluation, comparison."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tracelaurent as tl
from tracelaurent import DomainError, LaurentPoly, as_matrix, laurent_close
from tracelaurent.core import QUARTER_TURN_EPS, check_angle, check_open_angle
from conftest import random_unit_column_matrix, split_horner_loops


def test_public_names_are_the_modules_all():
    # The package lists no name of its own: its __all__ is each module's __all__ in
    # module order, then __version__, and each name is its module's own object.
    order = ("core", "chebyshev", "normal_form", "family", "roots", "trig")
    modules = [importlib.import_module(f"tracelaurent.{name}") for name in order]
    assert tl.__all__ == [*(name for module in modules for name in module.__all__), "__version__"]
    assert len(set(tl.__all__)) == len(tl.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(tl, name) is getattr(module, name), name


def half_sum():
    return LaurentPoly(1, [1.0, 0.0, 1.0])


def center_poly():
    """z^-2 + 1.5 + z^2."""
    return LaurentPoly(2, [1.0, 0.0, 1.5, 0.0, 1.0])


class TestEval:
    def test_half_sum_at_i(self):
        # i + 1/i = 0
        assert half_sum().eval(1j) == pytest.approx(0.0, abs=1e-15)

    def test_half_sum_at_two(self):
        assert half_sum().eval(2.0) == pytest.approx(2.5)

    def test_worked_center_value(self):
        assert center_poly().eval(1.0) == pytest.approx(3.5)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            half_sum().eval(0.0)

    def test_split_horner_extremes(self):
        # The positive-power half is evaluated in z and the negative half in
        # 1/z, so a lopsided argument only stresses the half that matters.
        p = half_sum()
        assert p.eval(1e3) == pytest.approx(1000.001, rel=1e-15)
        assert p.eval(1e-3) == pytest.approx(1000.001, rel=1e-15)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        p = LaurentPoly(4, coeffs)
        for z in (0.5 + 0.25j, -1.5j, 2.0, -0.3 + 0.9j):
            direct = sum(c * z ** k for k, c in p.terms())
            assert p.eval(z) == pytest.approx(direct, rel=1e-12)


class TestEvalAgainstLoops:
    # np.polyval runs the same Horner recurrence as the hand-written loops, so every
    # route table must evaluate to the same bytes as conftest's loop reference.
    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(29)
        radii = rng.uniform(0.8, 1.25, size=12)
        return radii * np.exp(1j * rng.uniform(-math.pi, math.pi, size=12))

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 257])
    def test_route_tables_bit_for_bit(self, n, points):
        rng = np.random.default_rng(n)
        mats = [random_unit_column_matrix(rng), tl.canonical_matrix(math.pi / 6)]
        tables = [tl.trace_power_coeffs(n, m) for m in mats]
        tables += [tl.closed_form_coeffs(n, theta) for theta in (0.0, 0.3, math.pi / 4)]
        if n <= 16:
            tables += [tl.brute_force_coeffs(n, m) for m in mats]
        for poly in tables:
            for z in (points, points.reshape(3, 4)):
                assert poly.eval(z).tobytes() == split_horner_loops(poly, z).tobytes()
            for z in (points[0], complex(points[1]), 1.0, -1j):
                got = poly.eval(z)
                assert type(got) is complex
                assert np.array(got).tobytes() == np.array(split_horner_loops(poly, z)).tobytes()


class TestContainer:
    def test_getitem_by_exponent(self):
        p = center_poly()
        assert p[2] == 1.0 and p[0] == 1.5 and p[1] == 0.0
        assert p[np.int64(-2)] == 1.0
        with pytest.raises(ValueError):
            p[3]

    @pytest.mark.parametrize("k", [True, False, 1.0, 1.5, np.float64(1.0), "1"], ids=repr)
    def test_getitem_rejects_non_integer_exponent(self, k):
        # p[True] used to return the z^1 coefficient, and p[1.0] and p[1.5]
        # raised numpy's bare IndexError.
        with pytest.raises(ValueError, match="is not an integer in"):
            center_poly()[k]

    def test_degree_bound_positive(self):
        with pytest.raises(ValueError):
            LaurentPoly(0, [1.0])

    def test_length_checked(self):
        with pytest.raises(ValueError):
            LaurentPoly(2, [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            LaurentPoly(1, [1.0, float("nan"), 1.0])
        with pytest.raises(DomainError):
            as_matrix([[1.0, float("inf")], [0.0, 1.0]])

    def test_coeffs_read_only(self):
        p = half_sum()
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.integers(-n, n),
                    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
                    max_size=2 * n + 1,
                ),
            )
        )
    )
    def test_terms_round_trip(self, case):
        n, terms = case
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        for k, value in terms.items():
            coeffs[k + n] = value
        p = LaurentPoly(n, coeffs)
        for k in range(-n, n + 1):
            assert p[k] == terms.get(k, 0.0)


class TestClose:
    def test_equal_tables(self):
        p = half_sum()
        assert laurent_close(p, half_sum(), 1e-12)

    def test_perturbation_beyond_tolerance(self):
        p = center_poly()
        q = LaurentPoly(2, [1.0, 0.0, 1.5 + 1e-6, 0.0, 1.0])
        assert not laurent_close(p, q, 1e-9)
        assert laurent_close(p, q, 1e-5)

    def test_scaling_by_p_magnitude(self):
        # The bound scales with max |p_k|: a 1e-8 shift on a 1e3 coefficient
        # passes at tol 1e-10 because 1e-10 * (1 + 1e3) > 1e-8.
        p = LaurentPoly(1, [0.0, 0.0, 1e3])
        q = LaurentPoly(1, [0.0, 0.0, 1e3 + 1e-8])
        assert laurent_close(p, q, 1e-10)

    def test_degree_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            laurent_close(half_sum(), LaurentPoly(2, [0.0, 0.0, 0.0, 1.0, 0.0]), 1e-9)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            laurent_close(half_sum(), half_sum(), 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf], ids=repr)
    def test_tolerance_must_be_finite(self, tol):
        # A NaN tolerance used to report False and an infinite one True.
        with pytest.raises(ValueError, match="tolerance must be positive"):
            laurent_close(half_sum(), half_sum(), tol)


# Every public entry point that takes a degree, with its other arguments.
DEGREE_CALLS = [
    ("LaurentPoly", lambda n: LaurentPoly(n, np.ones(7))),
    ("cheb_eval", lambda n: tl.cheb_eval(n, 0.3)),
    ("cheb_roots", lambda n: tl.cheb_roots(n)),
    ("cheb_preimage", lambda n: tl.cheb_preimage(n, 0.3)),
    ("trace_power_coeffs", lambda n: tl.trace_power_coeffs(n, np.eye(2))),
    ("brute_force_coeffs", lambda n: tl.brute_force_coeffs(n, np.eye(2))),
    ("closed_form_coeffs", lambda n: tl.closed_form_coeffs(n, 0.3)),
    ("closed_form_eval", lambda n: tl.closed_form_eval(n, 0.3, 1j)),
    ("canonical_roots", lambda n: tl.canonical_roots(n, 0.3)),
    ("matrix_roots", lambda n: tl.matrix_roots(n, tl.canonical_matrix(0.3))),
    ("trig_coeffs", lambda n: tl.trig_coeffs(n, 0.3)),
    ("trig_roots", lambda n: tl.trig_roots(n, 0.3)),
    ("unit_level_roots", lambda n: tl.unit_level_roots(n, 0.3)),
]


class TestDegreeDomain:
    # A float or bool degree used to run: cheb_roots(2.5) gave three values and
    # unit_level_roots(True, t) indexed with a boolean mask.
    @pytest.mark.parametrize("name, call", DEGREE_CALLS, ids=[name for name, _ in DEGREE_CALLS])
    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(3.0)], ids=repr)
    def test_non_integer_degree_rejected(self, name, call, n):
        with pytest.raises(ValueError, match="degree n must be a positive integer"):
            call(n)

    @pytest.mark.parametrize("name, call", DEGREE_CALLS, ids=[name for name, _ in DEGREE_CALLS])
    def test_numpy_integer_degree_accepted(self, name, call):
        got, want = call(np.int64(3)), call(3)
        if isinstance(want, LaurentPoly):
            got, want = got.coeffs, want.coeffs
        elif isinstance(want, tl.RootReport):
            got, want = got.roots, want.roots
        elif isinstance(want, tl.TrigPoly):
            got, want = got.cos_coeffs, want.cos_coeffs
        assert np.array_equal(got, want)


NAN, INF = float("nan"), float("inf")

# Every public evaluator or classifier of a point, with its other arguments.
POINT_CALLS = [
    ("LaurentPoly.eval", lambda z: half_sum().eval(z)),
    ("cheb_eval", lambda z: tl.cheb_eval(3, z)),
    ("closed_form_eval", lambda z: tl.closed_form_eval(3, 0.3, z)),
    ("closed_form_eval array", lambda z: tl.closed_form_eval(3, 0.3, np.array([1j, z]))),
    ("arc_membership", lambda z: tl.arc_membership(z, 0.3)),
    ("comb_map", lambda z: tl.comb_map(z, 0.3)),
    ("IntervalSystem.contains", lambda z: tl.IntervalSystem(0.3, 0, 0).contains(z)),
]
NON_FINITE = [NAN, INF, -INF, complex(NAN, 0.0), complex(NAN, 1.0), complex(1.0, INF), complex(INF, 1.0)]


class TestNonFinitePoints:
    # A NaN point used to come back as NaN or as "outside", or to be reported
    # as an overflow of double range; an infinite one raised a bare
    # "math domain error" in comb_map. IntervalSystem said a NaN was not
    # contained.
    @pytest.mark.parametrize("name, call", POINT_CALLS, ids=[name for name, _ in POINT_CALLS])
    @pytest.mark.parametrize("z", NON_FINITE, ids=repr)
    def test_rejected_as_non_finite(self, name, call, z):
        with pytest.raises(DomainError, match="must be finite"):
            call(z)


class TestAngleValidators:
    """The angle validators return the cos(2 theta) every caller used to form
    itself, bit for bit, and raise exactly where they did."""

    ACCEPTED = [0, 0.0, 1e-300, 1e-3, 0.3, np.float64(0.5), np.pi / 4 - 1e-3, np.pi / 4 - 6e-10]

    @pytest.mark.parametrize("theta", ACCEPTED, ids=repr)
    def test_open_angle_returns_cos_2theta(self, theta):
        got = check_open_angle(theta)
        assert type(got) is float and got == math.cos(2.0 * theta)

    @pytest.mark.parametrize("theta", ACCEPTED + [np.pi / 4 - 1e-10, np.pi / 4, np.pi / 4 + 1e-12], ids=repr)
    def test_closed_angle_returns_cos_2theta(self, theta):
        got = check_angle(theta)
        assert type(got) is float and got == math.cos(2.0 * theta)

    @pytest.mark.parametrize("theta", [-1e-300, np.pi / 4 - 1e-10, np.pi / 4, 1.0, NAN, INF, -INF], ids=repr)
    def test_open_angle_rejects(self, theta):
        with pytest.raises(DomainError, match=r"^angle must lie in \[0, pi/4\)$"):
            check_open_angle(theta)

    @pytest.mark.parametrize("theta", [-1e-300, np.pi / 4 + 2e-12, 1.0, NAN, INF, -INF], ids=repr)
    def test_closed_angle_rejects(self, theta):
        with pytest.raises(DomainError, match=r"^angle must lie in \[0, pi/4\]$"):
            check_angle(theta)

    def test_open_edge_is_the_quarter_turn_tolerance(self):
        # The open validator accepts exactly where cos(2 theta) >= QUARTER_TURN_EPS.
        for delta in np.geomspace(1e-11, 1e-8, 40):
            theta = math.pi / 4 - delta
            accepted = math.cos(2.0 * theta) >= QUARTER_TURN_EPS
            try:
                check_open_angle(theta)
                assert accepted, theta
            except DomainError:
                assert not accepted, theta


@given(
    st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=0.1, max_magnitude=10),
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=5),
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=5),
)
def test_eval_is_linear_in_coefficients(z, alpha, beta):
    rng = np.random.default_rng(11)
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    p, q = LaurentPoly(3, a), LaurentPoly(3, b)
    combo = LaurentPoly(3, alpha * a + beta * b)
    expected = alpha * p.eval(z) + beta * q.eval(z)
    scale = 1.0 + abs(expected)
    assert abs(combo.eval(z) - expected) <= 1e-9 * scale
