"""Trace-power family: the three routes against each other and by hand."""

import itertools
import math
import warnings

import numpy as np
import pytest

from tracelaurent import (
    DegreeCapError,
    DomainError,
    brute_force_coeffs,
    canonical_matrix,
    closed_form_coeffs,
    closed_form_eval,
    laurent_close,
    normal_form,
    trace_power_coeffs,
)
from conftest import GRID6, eigen_split, random_generic_matrix, transfer_matrix

F6 = canonical_matrix(math.pi / 6)


class TestTransfer:
    def test_identity_matrix(self):
        s = transfer_matrix(2.0, np.eye(2))
        assert s == pytest.approx(np.diag([2.0, 0.5]))

    def test_at_one_is_gram_product(self):
        rng = np.random.default_rng(3)
        m = random_generic_matrix(rng)
        assert transfer_matrix(1.0, m) == pytest.approx(m @ m.conj().T)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            transfer_matrix(0.0, np.eye(2))

    def test_trace_of_power_matches_coeff_route(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_generic_matrix(rng)
            z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            s = transfer_matrix(z, m)
            value = np.trace(np.linalg.matrix_power(s, 5))
            table = trace_power_coeffs(5, m).eval(z)
            assert value == pytest.approx(table, rel=1e-9)


class TestTraceRoute:
    def test_degree_one_by_hand(self):
        # tr S = |c1|^2 z + |c2|^2 / z.
        p = trace_power_coeffs(1, np.diag([2.0, 1.0]))
        assert list(p.coeffs) == pytest.approx([1.0, 0.0, 4.0])

    def test_worked_canonical_example(self):
        p = trace_power_coeffs(2, F6)
        assert list(p.coeffs) == pytest.approx([1.0, 0.0, 1.5, 0.0, 1.0])

    def test_rank_one_collapse_is_binomial(self):
        p = trace_power_coeffs(3, canonical_matrix(math.pi / 4))
        assert list(p.coeffs) == pytest.approx([1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0])

    def test_odd_slots_are_structural_zeros(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p = trace_power_coeffs(7, random_generic_matrix(rng))
            assert np.all(p.coeffs[1::2] == 0.0)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            trace_power_coeffs(0, F6)

    def test_overflow_names_degree(self):
        # The true table holds (1e160)^8: beyond double range. The error names
        # the degree and the overflow, and no numpy warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="degree 8 overflow"):
                trace_power_coeffs(8, 1e80 * np.eye(2))


class TestBruteForce:
    def test_sequence_count_per_exponent(self):
        # At n = 4 exactly binomial(4, 3) = 4 sign sequences place three P1
        # factors, landing on exponent 3 - 1 = 2.
        hits = [
            seq
            for seq in itertools.product((1, 2), repeat=4)
            if seq.count(1) - seq.count(2) == 2
        ]
        assert len(hits) == math.comb(4, 3)

    def test_matches_itertools_enumeration(self):
        # Fully independent oracle: explicit product over sign sequences.
        rng = np.random.default_rng(21)
        m = random_generic_matrix(rng)
        c1 = m[:, :1]
        c2 = m[:, 1:]
        p1, p2 = c1 @ c1.conj().T, c2 @ c2.conj().T
        n = 4
        expected = np.zeros(2 * n + 1, dtype=complex)
        for seq in itertools.product((1, 2), repeat=n):
            prod = np.eye(2, dtype=complex)
            for pick in seq:
                prod = prod @ (p1 if pick == 1 else p2)
            k = seq.count(1) - seq.count(2)
            expected[k + n] += np.trace(prod)
        got = brute_force_coeffs(n, m)
        assert got.coeffs == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_trace_route(self):
        rng = np.random.default_rng(27)
        for n in (1, 2, 3, 5, 8):
            m = random_generic_matrix(rng)
            assert laurent_close(
                brute_force_coeffs(n, m), trace_power_coeffs(n, m), 1e-10
            )

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            brute_force_coeffs(25, np.eye(2))

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            brute_force_coeffs(0, np.eye(2))


class TestClosedForm:
    def test_worked_coefficient_tables(self):
        assert list(closed_form_coeffs(1, 0.7).coeffs) == pytest.approx([1.0, 0.0, 1.0])
        assert list(closed_form_coeffs(2, math.pi / 6).coeffs) == pytest.approx(
            [1.0, 0.0, 1.5, 0.0, 1.0]
        )

    def test_zero_angle_is_pure_pair(self):
        for n in range(1, 13):
            p = closed_form_coeffs(n, 0.0)
            expected = np.zeros(2 * n + 1, dtype=complex)
            expected[0] = expected[-1] = 1.0
            assert np.all(p.coeffs == expected)

    def test_quarter_angle_is_binomial_row(self):
        p = closed_form_coeffs(3, math.pi / 4)
        assert np.all(p.coeffs == np.array([1, 0, 3, 0, 3, 0, 1], dtype=complex))

    def test_central_coefficient_formula(self):
        # p_0 at degree 2 is 2 sin^2(2 theta), read off the expansion.
        for theta in (0.1, math.pi / 8, math.pi / 6, 0.7):
            p = closed_form_coeffs(2, theta)
            assert p[0].real == pytest.approx(2 * math.sin(2 * theta) ** 2, abs=1e-14)

    def test_worked_value(self):
        assert closed_form_eval(2, math.pi / 6, 1.0) == pytest.approx(3.5)

    def test_value_limits(self):
        z = 0.8 + 0.3j
        assert closed_form_eval(4, 0.0, z) == pytest.approx(z ** 4 + z ** -4)
        assert closed_form_eval(4, math.pi / 4, z) == pytest.approx((z + 1 / z) ** 4)

    def test_eval_matches_coeff_table(self):
        rng = np.random.default_rng(33)
        for theta in GRID6:
            p = closed_form_coeffs(5, theta)
            # The 5 (real, imaginary) draws of one uniform stream, in one array.
            u = rng.random((5, 2))
            z = (0.5 + 1.5 * u[:, 0]) + 1j * (-1.0 + 2.0 * u[:, 1])
            a, b = closed_form_eval(5, theta, z), p.eval(z)
            assert np.all(abs(a - b) <= 1e-10 * (1.0 + np.maximum(abs(a), abs(b))))

    def test_angle_range_checked(self):
        with pytest.raises(DomainError):
            closed_form_coeffs(2, -0.1)
        with pytest.raises(DomainError):
            closed_form_eval(2, 1.0, 1.0)


class TestEigenSplit:
    def test_worked_example(self):
        lambda1, lambda2 = eigen_split(1.0, math.pi / 6)
        assert lambda1 == pytest.approx(1 + math.sqrt(3) / 2)
        assert lambda2 == pytest.approx(1 - math.sqrt(3) / 2)

    def test_product_is_cos_squared(self):
        rng = np.random.default_rng(39)
        for theta in (0.0, 0.3, math.pi / 4):
            for _ in range(5):
                z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                lambda1, lambda2 = eigen_split(z, theta)
                assert lambda1 * lambda2 == pytest.approx(
                    math.cos(2 * theta) ** 2, abs=1e-12
                )

    def test_power_sum_is_family_value(self):
        rng = np.random.default_rng(45)
        for theta in GRID6:
            for n in (1, 3, 6):
                z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                lambda1, lambda2 = eigen_split(z, theta)
                total = lambda1 ** n + lambda2 ** n
                want = closed_form_eval(n, theta, z)
                assert abs(total - want) <= 1e-9 * (1.0 + abs(want))

    def test_match_eigvals(self):
        # The split matches numpy's eigenvalues of the transfer matrix.
        z = 0.9 + 0.4j
        theta = math.pi / 6
        s = transfer_matrix(z, canonical_matrix(theta))
        want = sorted(np.linalg.eigvals(s), key=lambda v: (v.real, v.imag))
        got = sorted(eigen_split(z, theta), key=lambda v: (v.real, v.imag))
        assert got == pytest.approx(want, rel=1e-9)


class TestThreeWay:
    @pytest.mark.parametrize("theta", GRID6)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_canonical_routes_agree(self, n, theta):
        f = canonical_matrix(theta)
        a = trace_power_coeffs(n, f)
        b = brute_force_coeffs(n, f)
        c = closed_form_coeffs(n, theta)
        assert laurent_close(a, b, 1e-10)
        assert laurent_close(a, c, 1e-10)

    def test_zero_angle_exact_in_all_routes(self):
        for n in range(1, 13):
            expected = np.zeros(2 * n + 1, dtype=complex)
            expected[0] = expected[-1] = 1.0
            for route in (
                trace_power_coeffs(n, np.eye(2)),
                brute_force_coeffs(n, np.eye(2)),
                closed_form_coeffs(n, 0.0),
            ):
                assert np.all(route.coeffs == expected)


class TestStructure:
    def test_left_unitary_invariance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = random_generic_matrix(rng)
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(a)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            assert laurent_close(
                trace_power_coeffs(4, m), trace_power_coeffs(4, u @ m), 1e-10
            )

    def test_scalar_scaling(self):
        rng = np.random.default_rng(57)
        m = random_generic_matrix(rng)
        n = 3
        a = trace_power_coeffs(n, m)
        b = trace_power_coeffs(n, 1.7 * m)
        assert b.coeffs == pytest.approx(1.7 ** (2 * n) * a.coeffs, rel=1e-12)

    def test_normal_form_rescaling_identity(self):
        # c_k = scale^n * dilation^k * p_k ties any matrix to its angle.
        rng = np.random.default_rng(63)
        for _ in range(10):
            m = random_generic_matrix(rng)
            nf = normal_form(m)
            n = 5
            p = closed_form_coeffs(n, nf.angle)
            ks = np.arange(-n, n + 1)
            predicted = nf.scale ** n * nf.dilation ** ks.astype(float) * p.coeffs
            got = trace_power_coeffs(n, m).coeffs
            scale = 1.0 + np.abs(predicted).max()
            assert np.abs(got - predicted).max() <= 1e-9 * scale

    def test_leading_coefficients_are_norm_powers(self):
        rng = np.random.default_rng(69)
        for n in (1, 2, 4, 8):
            m = random_generic_matrix(rng)
            norms = np.sqrt(np.sum(np.abs(m) ** 2, axis=0))
            p = trace_power_coeffs(n, m)
            assert p[n] == pytest.approx(norms[0] ** (2 * n), rel=1e-10)
            assert p[-n] == pytest.approx(norms[1] ** (2 * n), rel=1e-10)

    def test_canonical_symmetry_and_positivity(self):
        for theta in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3):
            for n in (2, 5, 9):
                p = closed_form_coeffs(n, theta)
                for k in range(0, n + 1):
                    assert abs(p[k] - p[-k]) <= 1e-12 * (1.0 + abs(p[k]))
                    if (n - k) % 2 == 0:
                        assert p[k].real > 0.0

    def test_majorization_bound_on_upper_range(self):
        # Lower bound 2^{1-n} C(n, (n-k)/2) holds for angles >= pi/8 and is
        # attained at pi/8 for n = 2, k = 0.
        for theta in (math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3):
            for n in range(2, 9):
                p = closed_form_coeffs(n, theta)
                for k in range(n % 2, n + 1, 2):
                    bound = 2.0 ** (1 - n) * math.comb(n, (n - k) // 2)
                    assert p[k].real >= bound - 1e-10

    def test_majorization_bound_is_sharp(self):
        p = closed_form_coeffs(2, math.pi / 8)
        assert p[0].real == pytest.approx(1.0, abs=1e-12)
        # Below pi/8 the bound genuinely fails.
        q = closed_form_coeffs(2, math.pi / 16)
        assert q[0].real < 1.0 - 0.5

    def test_coefficients_grow_with_angle(self):
        thetas = np.linspace(0.0, math.pi / 4, 64)
        for n in range(2, 9):
            tables = [closed_form_coeffs(n, t).coeffs.real for t in thetas]
            for prev, curr in zip(tables, tables[1:]):
                assert np.all(curr - prev >= -1e-12)
