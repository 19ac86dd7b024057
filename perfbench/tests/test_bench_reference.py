"""The mpmath reference checked on its own, without the package under test."""

import math

import numpy as np
import pytest

from perfbench import reference as ref


def _numpy_trace(mat, n, z):
    s = mat @ np.diag([z, 1 / z]) @ mat.conj().T
    return np.trace(np.linalg.matrix_power(s, n))


def _eval(coeffs, z):
    n = (len(coeffs) - 1) // 2
    return sum(c * z**k for k, c in zip(range(-n, n + 1), coeffs))


@pytest.mark.parametrize("n", [1, 5, 16, 64])
def test_angle_zero_table_is_z_power_plus_inverse(n):
    want = np.zeros(2 * n + 1)
    want[0] = want[-1] = 1.0
    table = ref.Table(ref.canonical(0.0), n)
    assert np.max(np.abs(table.absolute() - want)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 7])
def test_trace_values_and_table_match_numpy_matrix_powers(n):
    rng = np.random.default_rng(n)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    table = ref.Table(mat, n)
    for z in (0.7 + 0.4j, -1.3 + 0.2j, 1j):
        want = _numpy_trace(mat, n, z)
        assert abs(complex(ref.trace_values(mat, n, [z])[0]) - want) < 1e-12 * abs(want)
        assert abs(_eval(table.absolute(), z) - want) < 1e-12 * max(1.0, abs(want))


def test_table_coefficients_are_real_and_parity_split():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    table = ref.Table(mat, 6)
    assert np.max(np.abs(table.coeffs.imag)) < 1e-15
    assert np.max(np.abs(table.coeffs[1::2])) < 1e-15


def test_table_beyond_double_range_stays_finite():
    table = ref.Table(ref.canonical(math.pi / 4 - 1e-3), 1100)
    assert table.scale > 1e308
    assert np.all(np.isfinite(table.coeffs))


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.75])
def test_closed_form_matches_matrix_powers(theta):
    # L_n(z) = 2 cos(2theta)^n T_n((z + 1/z) / (2 cos 2theta)) for the canonical matrix.
    n, z = 9, 0.8 + 0.5j
    c = math.cos(2 * theta)
    want = complex(ref.trace_values(ref.canonical(theta), n, [z])[0])
    got = complex(2 * c**n * ref.cheb_t(n, (z + 1 / z) / (2 * c)))
    assert abs(got - want) < 1e-12 * abs(want)


def test_cheb_t_matches_numpy_chebyshev():
    for n in (1, 4, 11):
        coeffs = [0] * n + [1]
        for x in (-0.9, 0.3, 1.0, 1.7, -2.5):
            want = np.polynomial.chebyshev.chebval(x, coeffs)
            assert abs(float(ref.cheb_t(n, x).real) - want) < 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n,theta", [(5, 0.2), (16, 0.7)])
def test_root_and_level_arguments_solve_the_circle_equation(n, theta):
    c = math.cos(2 * theta)
    for t in ref.root_args(n, theta):
        assert abs(ref.cheb_t(n, math.cos(t) / c)) < 1e-12
    levels = ref.level_args(n, theta)
    assert sum(m for _, lv, m in levels if lv == 1) == n
    assert sum(m for _, lv, m in levels if lv == -1) == n
    for t, level, _ in levels:
        assert abs(ref.cheb_t(n, math.cos(t) / c) - level) < 1e-9


def test_backward_error_is_small_at_roots_and_large_elsewhere():
    n, theta = 12, 0.3
    mat = ref.canonical(theta)
    table = ref.Table(mat, n)
    roots = np.exp(1j * ref.root_args(n, theta))
    assert np.max(ref.backward_errors(mat, n, roots, table)) < 1e-14
    assert np.min(ref.backward_errors(mat, n, roots * np.exp(1e-6j), table)) > 1e-8


def test_normal_form_of_a_built_matrix():
    theta, rho = 0.3, 1.5
    u = np.array([[1.0, math.sin(2 * theta)], [0.0, math.cos(2 * theta)]])
    mat = u * np.array([math.sqrt(rho) * 2, 2 / math.sqrt(rho)])
    got = ref.normal_form(mat)
    assert got["scale"] == pytest.approx(4.0, rel=1e-15)
    assert got["dilation"] == pytest.approx(rho, rel=1e-15)
    assert got["angle"] == pytest.approx(theta, rel=1e-14)
