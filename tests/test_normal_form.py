"""Normal form layer: the parameter triple, its one pass over the input, and the Gram square root."""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelaurent import DomainError, NormalForm, as_matrix, canonical_matrix, matrix_roots, normal_form
from tracelaurent.family import _closed_form_matrix_coeffs
from conftest import (
    DERANDOMIZED,
    column_scale_exponents,
    psd_sqrt,
    random_generic_matrix,
    random_unit_column_matrix,
    unit_overlap,
)


# The package's `normal_form` attribute is the function; this is its module.
NF_MODULE = importlib.import_module("tracelaurent.normal_form")


def random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestColumns:
    def test_pythagorean_norms(self):
        # Column norms 5 and 13 give scale 65 and dilation 5/13 exactly.
        nf = normal_form([[3.0, 5.0], [4.0, 12.0]])
        assert (nf.scale, nf.dilation) == (65.0, 5.0 / 13.0)

    def test_normalize(self):
        # The unit columns [3, 4]/5 and [5, 12]/13 have overlap 63/65 and
        # |det| 16/65, a Pythagorean triple: sin and cos of twice the angle.
        nf = normal_form([[3.0, 5.0], [4.0, 12.0]])
        assert math.sin(2.0 * nf.angle) == pytest.approx(63.0 / 65.0)
        assert math.cos(2.0 * nf.angle) == pytest.approx(16.0 / 65.0)
        assert nf.phase == pytest.approx(1.0)

    def test_zero_column_rejected(self):
        for mat in ([[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]], np.zeros((2, 2))):
            with pytest.raises(DomainError, match="non-generic matrix: a column is zero"):
                normal_form(mat)

    def test_tiny_column_is_not_zero(self):
        # A column norm of 1e-301 is a nonzero column; scale 1.41e-301 and
        # dilation 7.07e-302 are normal doubles, so the matrix reduces.
        nf = normal_form([[1e-301, 1.0], [0.0, 1.0]])
        assert nf.scale == pytest.approx(math.sqrt(2.0) * 1e-301, rel=1e-15, abs=0.0)
        assert nf.dilation == pytest.approx(1e-301 / math.sqrt(2.0), rel=1e-15, abs=0.0)
        with pytest.raises(DomainError, match="normal-form scale 1.41e-310 leaves the normal double range"):
            normal_form([[1e-310, 1.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="non-generic matrix: a column is zero"):
            normal_form([[0.0, 1.0], [0.0, 1.0]])

    def test_overlap_against_direct_product(self):
        # phase * sin(2 angle) is the overlap <u1, u2> of the unit columns.
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = random_unit_column_matrix(rng)
            direct = (
                m[0, 0].conjugate() * m[0, 1] + m[1, 0].conjugate() * m[1, 1]
            )
            nf = normal_form(m)
            assert nf.phase * math.sin(2.0 * nf.angle) == pytest.approx(direct)
            assert unit_overlap(m) == pytest.approx(direct)

    def test_canonical_overlap_is_sin_double_angle(self):
        for theta in (0.0, math.pi / 12, math.pi / 6, math.pi / 4):
            mat = canonical_matrix(theta)
            assert unit_overlap(mat) == pytest.approx(math.sin(2 * theta), abs=1e-14)
            assert normal_form(mat).angle == pytest.approx(theta, abs=1e-15)


class TestOnePass:
    @pytest.fixture
    def calls(self, monkeypatch):
        # Every read goes through normal_form's module: one as_matrix copy and one
        # pass of the scale-robust column read per call, whatever the matrix.
        calls = {"as_matrix": 0, "_columns": 0}

        def counted(name):
            fn = getattr(NF_MODULE, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(NF_MODULE, name, counted(name))
        return calls

    def test_input_coerced_once_and_normed_once(self, calls):
        rng = np.random.default_rng(3)
        mats = [random_generic_matrix(rng), 1e-150 * BASE, 1e150 * BASE, [[3.0, 5.0], [4.0, 12.0]]]
        for count, mat in enumerate(mats, start=1):
            normal_form(mat)
            assert calls == {"as_matrix": count, "_columns": count}

    def test_matrix_roots_reads_its_matrix_once(self, calls):
        # The normal form and the residuals' pencil come from the same read; a
        # second as_matrix or column pass, as in the plain-squares pencil, fails here.
        rng = np.random.default_rng(3)
        mats = [random_generic_matrix(rng), BASE * [1e-160, 1e140], BASE * [1e155, 1e-150], [[3.0, 5.0], [4.0, 12.0]]]
        for count, mat in enumerate(mats, start=1):
            matrix_roots(4, mat)
            assert calls == {"as_matrix": count, "_columns": count}

    def test_closed_form_table_reads_its_matrix_once(self, calls):
        # The closed route takes the validated column read alone, with no normal form.
        rng = np.random.default_rng(3)
        mats = [random_generic_matrix(rng), BASE * [1e-160, 1e140], [[1e-200, 0.0], [0.0, 1e150]], [[3.0, 5.0], [4.0, 12.0]]]
        for count, mat in enumerate(mats, start=1):
            _closed_form_matrix_coeffs(1, mat)
            assert calls == {"as_matrix": count, "_columns": count}


class TestPsdSqrt:
    def test_diagonal(self):
        assert psd_sqrt([[4.0, 0.0], [0.0, 9.0]]) == pytest.approx(np.diag([2.0, 3.0]))

    def test_zero_maps_to_zero(self):
        assert np.all(psd_sqrt(np.zeros((2, 2))) == 0.0)

    def test_gram_of_real_canonical(self):
        g = math.sin(math.pi / 3)
        root = psd_sqrt([[1.0, g], [g, 1.0]])
        assert root == pytest.approx(canonical_matrix(math.pi / 6), abs=1e-14)

    def test_gram_with_imaginary_overlap(self):
        root = psd_sqrt([[1.0, 0.5j], [-0.5j, 1.0]])
        assert root == pytest.approx(canonical_matrix(math.pi / 12, 1j), abs=1e-14)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a.conj().T @ a
            w, v = np.linalg.eigh(m)
            oracle = v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
            assert psd_sqrt(m) == pytest.approx(oracle, abs=1e-10)

    def test_square_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a.conj().T @ a
            r = psd_sqrt(m)
            assert r @ r == pytest.approx(m, abs=1e-10 * (1 + np.abs(m).max()))
            # The root is Hermitian PSD itself.
            assert r == pytest.approx(r.conj().T)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            psd_sqrt([[1.0, 1.0], [0.0, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            psd_sqrt([[1.0, 0.0], [0.0, -1.0]])


# A matrix whose column norms are computed through squares: entries below
# ~1e-154 or above ~1e154 would under- or overflow on squaring.
BASE = np.array([[1.0, 0.3], [0.2, 1.0]])


class TestScaleRange:
    @pytest.mark.parametrize("s1, s2", [(1e-160, 1e-140), (1e160, 1e140), (1e-200, 1e-100), (1e200, 1e100)])
    def test_columns_beyond_squaring_range(self, s1, s2):
        # The product and ratio of the norms are in range, so the normal form
        # is the base matrix's, rescaled. It used to raise a usage ValueError or
        # leak numpy's overflow warning.
        base, got = normal_form(BASE), normal_form(BASE * [s1, s2])
        assert got.scale == pytest.approx(base.scale * s1 * s2, rel=1e-14, abs=0.0)
        assert got.dilation == pytest.approx(base.dilation * s1 / s2, rel=1e-14, abs=0.0)
        assert got.angle == pytest.approx(base.angle, abs=1e-15)

    def test_norms_in_range_are_unchanged(self):
        # The power-of-two rescale is exact: where the plain sum of squares
        # neither under- nor overflows, the norms agree with it bit for bit.
        rng = np.random.default_rng(53)
        for _ in range(300):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = m * 10.0 ** rng.uniform(-100.0, 100.0, size=(2, 2))
            r1, r2 = np.sqrt(np.sum(np.abs(m) ** 2, axis=0)).tolist()
            nf = normal_form(m)
            assert (nf.scale, nf.dilation) == (r1 * r2, r1 / r2)

    @pytest.mark.parametrize("s, what", [(1e-160, "scale 1.06e-320"), (1e-162, "scale 0"), (1e160, "scale inf")])
    def test_scale_beyond_normal_range_is_named(self, s, what):
        # 1e-160 raised the usage error "columns must be unit length", 1e-162 the
        # false "non-generic matrix: a column is zero", and 1e160 leaked numpy's
        # overflow warning first.
        with pytest.raises(DomainError, match=f"normal-form {what} leaves the normal double range"):
            normal_form(s * BASE)

    def test_dilation_beyond_normal_range_is_named(self):
        with pytest.raises(DomainError, match="normal-form dilation inf leaves the normal double range"):
            normal_form(BASE * [1e200, 1e-200])
        with pytest.raises(DomainError, match="normal-form dilation 0 leaves the normal double range"):
            normal_form(BASE * [1e-200, 1e200])


class TestAngle:
    def test_zero_overlap(self):
        nf = normal_form(np.diag([1.0, 2.0]))
        assert nf.angle == 0.0 and nf.phase == 1.0

    def test_full_overlap(self):
        nf = normal_form([[1.0, 2.0], [1.0, 2.0]])
        assert nf.angle == pytest.approx(math.pi / 4)

    def test_half_overlap_with_phase(self):
        # Unit columns with <u1, u2> = 0.5i: sin(2 angle) = 1/2.
        nf = normal_form([[1.0, 0.5j], [0.0, math.sqrt(0.75)]])
        assert nf.angle == pytest.approx(math.pi / 12)
        assert nf.phase == pytest.approx(1j)

    def test_rounding_slack_clamped(self):
        # Parallel columns whose computed overlap magnitude rounds above 1
        # still land in [0, pi/4], at pi/4.
        rng = np.random.default_rng(0)
        above_one = 0
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            m = np.column_stack([v, 3.0 * v])
            above_one += abs(unit_overlap(m)) > 1.0
            angle = normal_form(m).angle
            assert 0.0 <= angle <= math.pi / 4
            assert angle == pytest.approx(math.pi / 4, abs=1e-15)
        assert above_one > 0

    @pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-9, 1e-10])
    def test_angle_exact_near_quarter_turn(self, delta):
        theta = math.pi / 4 - delta
        assert normal_form(canonical_matrix(theta)).angle == pytest.approx(theta, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalForm(-1.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            NormalForm(1.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            NormalForm(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NormalForm(1.0, 1.0, 0.1, 2.0j)
        # A NaN phase, and a scale outside the normal range, used to construct.
        with pytest.raises(ValueError, match="phase must have unit magnitude"):
            NormalForm(1.0, 1.0, 0.3, math.nan)
        with pytest.raises(DomainError, match="normal-form scale inf leaves the normal double range"):
            NormalForm(math.inf, 1.0, 0.3, 1.0)
        with pytest.raises(DomainError, match="normal-form scale 1e-320 leaves the normal double range"):
            NormalForm(1e-320, 1.0, 0.3, 1.0)


ACCURACY_TOL = 1e-14  # relative error of the angle, absolute error of the unit phase


def mp_angle_phase(mat):
    """The angle and phase of `mat` in 40-digit mpmath, from the exact double entries:
    half the atan2 of |<c1, c2>| and |det M|, and <c1, c2> / |<c1, c2>|."""
    with mpmath.workdps(40):
        (p, q), (r, s) = [[mpmath.mpc(complex(v)) for v in row] for row in np.asarray(mat)]
        g = mpmath.conj(p) * q + mpmath.conj(r) * s
        return mpmath.atan2(abs(g), abs(p * s - q * r)) / 2, g / abs(g)


def assert_angle_phase_accurate(mat):
    nf = normal_form(mat)
    angle, phase = mp_angle_phase(mat)
    with mpmath.workdps(40):
        assert float(abs(nf.angle - angle) / angle) <= ACCURACY_TOL, (mat, nf)
        assert float(abs(mpmath.mpc(nf.phase) - phase)) <= ACCURACY_TOL, (mat, nf)
    return nf


def gaussian_matrices(count):
    """`count` seeded matrices with independent N(0, 1) real and imaginary parts."""
    rng = np.random.default_rng(61)
    return [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(count)]


class TestAccuracy:
    def test_gaussian_matrices(self):
        for m in gaussian_matrices(200):
            assert_angle_phase_accurate(m)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_near_parallel_columns(self, eps):
        # Angles within ~eps / 2 of pi/4, where the overlap is nearly |c1| |c2|.
        rng = np.random.default_rng(67)
        for _ in range(50):
            v, u = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
            w = complex(rng.normal(), rng.normal())
            assert_angle_phase_accurate(np.column_stack([v, w * v + eps * u]))

    @DERANDOMIZED
    @given(column_scale_exponents(), st.sampled_from(range(20)))
    def test_power_of_two_column_scales(self, exponents, index):
        # Scaling the columns by 2^p and 2^q is exact and leaves the angle and phase
        # unchanged, wherever the scale and dilation stay in the normal double range.
        p, q = exponents
        base = gaussian_matrices(20)[index]
        unscaled = normal_form(base)
        try:
            nf = assert_angle_phase_accurate(base * [2.0 ** p, 2.0 ** q])
        except DomainError:
            log_scale, log_dilation = math.log2(unscaled.scale) + p + q, math.log2(unscaled.dilation) + p - q
            assert not (-1020 < log_scale < 1020 and -1020 < log_dilation < 1020), exponents
            return
        assert (nf.angle, nf.phase) == (unscaled.angle, unscaled.phase)


class TestNormalForm:
    def test_worked_example(self):
        mat = canonical_matrix(math.pi / 6) @ np.diag([2.0, 1.0])
        nf = normal_form(mat)
        assert nf.scale == pytest.approx(2.0)
        assert nf.dilation == pytest.approx(2.0)
        assert nf.angle == pytest.approx(math.pi / 6)
        assert nf.phase == pytest.approx(1.0)

    def test_identity(self):
        nf = normal_form(np.eye(2))
        assert (nf.scale, nf.dilation, nf.angle) == pytest.approx((1.0, 1.0, 0.0))

    def test_orthogonal_columns_mean_zero_angle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            u = random_unitary(rng)
            mat = u @ np.diag(rng.uniform(0.5, 2.0, 2))
            assert normal_form(mat).angle == pytest.approx(0.0, abs=1e-8)

    def test_proportional_columns_mean_quarter_angle(self):
        nf = normal_form([[1.0, 2.0], [1.0, 2.0]])
        assert nf.angle == pytest.approx(math.pi / 4)

    def test_left_unitary_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g = random_generic_matrix(rng)
            u = random_unitary(rng)
            a, b = normal_form(g), normal_form(u @ g)
            assert b.scale == pytest.approx(a.scale, rel=1e-10)
            assert b.dilation == pytest.approx(a.dilation, rel=1e-10)
            assert b.angle == pytest.approx(a.angle, abs=1e-10)

    def test_right_phase_invariance(self):
        # Multiplying columns by unit phases moves the overlap phase only.
        rng = np.random.default_rng(37)
        for _ in range(15):
            g = random_generic_matrix(rng)
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
            a, b = normal_form(g), normal_form(g @ np.diag(phases))
            assert b.scale == pytest.approx(a.scale, rel=1e-10)
            assert b.dilation == pytest.approx(a.dilation, rel=1e-10)
            assert b.angle == pytest.approx(a.angle, abs=1e-10)

    def test_scalar_scaling_covariance(self):
        rng = np.random.default_rng(41)
        g = random_generic_matrix(rng)
        a, b = normal_form(g), normal_form(2.5 * g)
        assert b.scale == pytest.approx(2.5 ** 2 * a.scale, rel=1e-10)
        assert b.dilation == pytest.approx(a.dilation, rel=1e-10)
        assert b.angle == pytest.approx(a.angle, abs=1e-12)

    def test_gram_root_is_canonical(self):
        # psd_sqrt of the Gram matrix of the unit-column reduction equals the
        # canonical matrix at the recovered angle and phase.
        rng = np.random.default_rng(43)
        for _ in range(15):
            unit = random_unit_column_matrix(rng)
            nf = normal_form(unit)
            gram = unit.conj().T @ unit
            assert psd_sqrt(gram) == pytest.approx(
                canonical_matrix(nf.angle, nf.phase), abs=1e-9
            )


class TestCanonical:
    def test_frozen_entries(self):
        f = canonical_matrix(math.pi / 6)
        assert f == pytest.approx(
            np.array([[math.sqrt(3) / 2, 0.5], [0.5, math.sqrt(3) / 2]])
        )

    def test_zero_angle_is_identity(self):
        assert canonical_matrix(0.0) == pytest.approx(np.eye(2))

    def test_default_phase_is_phase_one_bit_for_bit(self):
        # One construction: the default reads as phase 1, whose matrix is the real one, signed zeros included.
        for theta in np.linspace(0.0, math.pi / 4, 101).tolist():
            c, s = math.cos(theta), math.sin(theta)
            want = as_matrix([[c, s], [s, c]]).tobytes()
            assert canonical_matrix(theta).tobytes() == canonical_matrix(theta, 1).tobytes() == want

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            canonical_matrix(-0.1)
        with pytest.raises(DomainError):
            canonical_matrix(1.0)

    def test_phase_variant_via_conjugation(self):
        # The phased representative is diag(a, 1) conjugation of the real one.
        theta, a = math.pi / 8, complex(math.cos(1.1), math.sin(1.1))
        u = np.diag([a, 1])
        expected = u @ canonical_matrix(theta) @ u.conj().T
        assert canonical_matrix(theta, a) == pytest.approx(expected)
