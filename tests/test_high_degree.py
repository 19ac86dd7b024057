"""High-degree tables, values and zero sets against extended-precision references.

The table reference runs the power-sum recurrence p_k = (a z + b/z) p_{k-1} - d p_{k-2}
on Python integers in fixed point with REF_BITS fraction bits, starting from
a = |c1|^2, b = |c2|^2 and d = |det M|^2 evaluated in mpmath (exactly for
double matrix entries, to 300 bits for cos 2 theta). Its rounding error is
~2^-REF_BITS of the largest coefficient, far below the 1e-11 bound. One run
to the top degree yields the tables of every lower degree on the way.

Values and root residuals are checked against L(z) = l1^n + l2^n in mpmath,
where l1, l2 = (t +- sqrt(t^2 - 4d)) / 2 are the eigenvalues of S(z) at
t = a z + b/z. Every table of the family has non-negative coefficients, so the
backward-error scale sum_k |c_k| |z|^k is L(|z|).
"""

import math

import mpmath
import numpy as np
import pytest

from tracelaurent import (
    DomainError,
    canonical_roots,
    closed_form_coeffs,
    closed_form_eval,
    matrix_roots,
    trace_power_coeffs,
    trig_coeffs,
)
from conftest import GRID6

DEGREES = (64, 256, 512)
REF_BITS = 160
SCALED_TOL = 1e-11


def reference_tables(a, b, d, degrees):
    """Tables {n: real coefficients, exponents -n..n} for each degree in `degrees`."""
    one = 1 << REF_BITS
    with mpmath.workprec(300):
        fixed = [int(mpmath.nint(mpmath.ldexp(v, REF_BITS))) for v in (a, b, d)]
    a_fix, b_fix, d_fix = fixed
    top = max(degrees)
    prev = np.zeros(2 * top + 1, dtype=object)
    prev[top] = 2 * one
    cur = np.zeros(2 * top + 1, dtype=object)
    cur[top - 1], cur[top + 1] = b_fix, a_fix
    tables = {}
    for k in range(2, top + 1):
        nxt = -d_fix * prev
        nxt[1:] += a_fix * cur[:-1]
        nxt[:-1] += b_fix * cur[1:]
        prev, cur = cur, nxt >> REF_BITS
        if k in degrees:
            tables[k] = np.array([v / one for v in cur[top - k : top + k + 1]])
    return tables


def canonical_reference(theta, degrees):
    with mpmath.workprec(300):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        return reference_tables(1, 1, c * c, degrees)


def matrix_reference(m, degrees):
    with mpmath.workprec(300):
        e = [[mpmath.mpc(complex(m[i, j])) for j in range(2)] for i in range(2)]
        a = abs(e[0][0]) ** 2 + abs(e[1][0]) ** 2
        b = abs(e[0][1]) ** 2 + abs(e[1][1]) ** 2
        d = abs(e[0][0] * e[1][1] - e[0][1] * e[1][0]) ** 2
    return reference_tables(a, b, d, degrees)


def scaled_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def seeded_matrices():
    """N(0,1) matrices with the larger squared column norm set to 1.5, so the
    tables stay below ~3^512, plus two near-degenerate ones."""
    rng = np.random.default_rng(2015)
    out = []
    for _ in range(3):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out.append(m * math.sqrt(1.5) / np.linalg.norm(m, axis=0).max())
    out.append(np.array([[1.0, 1.0 + 1e-8], [1.0, 1.0]]) / math.sqrt(2.0))
    out.append(np.array([[1.0, 0.3], [1e-7, 0.3e-7 + 1e-12]]))
    return out


@pytest.mark.parametrize("theta", GRID6)
def test_closed_form_against_reference(theta):
    refs = canonical_reference(theta, DEGREES)
    for n in DEGREES:
        got = closed_form_coeffs(n, theta).coeffs
        assert np.all(got.imag == 0.0)
        assert scaled_error(got.real, refs[n]) <= SCALED_TOL, n


@pytest.mark.parametrize(
    "theta",
    [
        # The table peaks near 6e275; the binomial expansion overflowed here.
        math.pi / 6,
        # The table peaks near 4.5e306 and the largest sample, L(1), near 1.8e308.
        math.pi / 4 - 1e-3,
    ],
)
def test_closed_form_at_1024_within_double_range(theta):
    n = 1024
    got = closed_form_coeffs(n, theta).coeffs.real
    assert scaled_error(got, canonical_reference(theta, (n,))[n]) <= SCALED_TOL
    assert got[0] == got[-1] == 1.0


@pytest.mark.parametrize("n, theta", [(64, math.pi / 4 - 1e-3), (256, math.pi / 8), (512, 0.12)])
def test_trig_coeffs_against_reference(n, theta):
    with mpmath.workprec(300):
        c_pow = float(mpmath.cos(2 * mpmath.mpf(theta)) ** n)
    want = canonical_reference(theta, (n,))[n][n:] / c_pow
    want[0] /= 2.0
    assert scaled_error(trig_coeffs(n, theta).cos_coeffs, want) <= SCALED_TOL


@pytest.mark.parametrize("index", range(5))
def test_trace_power_against_reference(index):
    m = seeded_matrices()[index]
    refs = matrix_reference(m, DEGREES)
    for n in DEGREES:
        got = trace_power_coeffs(n, m).coeffs
        assert np.all(got.imag == 0.0)
        assert not np.any(np.signbit(got.real[1::2]))
        assert scaled_error(got.real, refs[n]) <= SCALED_TOL, n


@pytest.mark.parametrize(
    "route, n, theta",
    [
        # The true tables exceed double range.
        (trig_coeffs, 1024, 0.42),
        (trig_coeffs, 200, math.pi / 4 - 1e-3),
        (closed_form_coeffs, 1100, math.pi / 4),
        # Every coefficient fits (max ~9e306), but the largest sample,
        # L(1) ~ 3.6e308, does not: the route's stated limit.
        (closed_form_coeffs, 1025, math.pi / 4 - 1e-3),
    ],
)
def test_overflow_is_named(route, n, theta):
    with pytest.raises(DomainError, match=f"degree {n} overflow"):
        route(n, theta)


# ---- values and zero sets ------------------------------------------------

ROOT_DEGREES = (256, 1024)
OPEN_ANGLES = (1e-3, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3)
# Largest backward errors measured over these inputs, both at n = 1024 and
# angle 1e-3, where roots near z = +-1 carry argument errors ~eps / sin(arg):
# 3.1e-12 for the computed roots and 5.6e-12 for a reported residual's
# distance from the reference |L(z)|. Elsewhere they stay below 3e-16.
ROOT_BERR_TOL = 1e-10
RESIDUAL_BERR_TOL = 1e-10
VALUE_REL_TOL = 1e-11  # largest measured relative error of the values below: 7.3e-13
VALUE_DPS = 40


def pencil_params(m):
    """a = |c1|^2, b = |c2|^2 and d = |det M|^2 of a matrix, in mpmath."""
    e = [[mpmath.mpc(complex(m[i, j])) for j in range(2)] for i in range(2)]
    a = abs(e[0][0]) ** 2 + abs(e[1][0]) ** 2
    b = abs(e[0][1]) ** 2 + abs(e[1][1]) ** 2
    d = abs(e[0][0] * e[1][1] - e[0][1] * e[1][0]) ** 2
    return a, b, d


def canonical_params(theta):
    return 1, 1, mpmath.cos(2 * mpmath.mpf(theta)) ** 2


def family_value(params, n, z):
    a, b, d = params
    t = a * z + b / z
    s = mpmath.sqrt(t * t - 4 * d)
    return ((t + s) / 2) ** n + ((t - s) / 2) ** n


def root_backward_errors(params, n, roots, residuals):
    """Per root: |L(z)| / L(|z|), and |residual - |L(z)|| / L(|z|)."""
    with mpmath.workdps(VALUE_DPS):
        out = []
        for z, res in zip(roots, residuals):
            value = abs(family_value(params, n, mpmath.mpc(complex(z))))
            scale = abs(family_value(params, n, mpmath.mpf(abs(complex(z)))))
            out.append((float(value / scale), float(abs(mpmath.mpf(float(res)) - value) / scale)))
    return np.array(out)


def unit_scale_matrices():
    """Columns of norms sqrt(rho) and 1/sqrt(rho), so scale 1 and dilation rho
    near 1, with seeded angles; the tables stay within double range at n = 1024."""
    rng = np.random.default_rng(2016)
    out = []
    for theta in (0.05, rng.uniform(0.1, 0.4), 0.5):
        rho = rng.uniform(0.98, 1.02)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        u2 = q @ (np.array([math.sin(2 * theta), math.cos(2 * theta)]) * phases)
        out.append(np.column_stack([q[:, 0] * math.sqrt(rho), u2 / math.sqrt(rho)]))
    return out


@pytest.mark.parametrize("theta", OPEN_ANGLES)
@pytest.mark.parametrize("n", ROOT_DEGREES)
def test_canonical_root_residuals_against_reference(n, theta):
    report = canonical_roots(n, theta)
    berr = root_backward_errors(canonical_params(theta), n, report.roots, report.residuals)
    assert berr[:, 0].max() <= ROOT_BERR_TOL
    assert berr[:, 1].max() <= RESIDUAL_BERR_TOL


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("n", ROOT_DEGREES)
def test_matrix_root_residuals_against_reference(n, index):
    m = unit_scale_matrices()[index]
    report = matrix_roots(n, m)
    berr = root_backward_errors(pencil_params(m), n, report.roots, report.residuals)
    assert berr[:, 0].max() <= ROOT_BERR_TOL
    assert berr[:, 1].max() <= RESIDUAL_BERR_TOL


@pytest.mark.parametrize(
    "n, theta, z, want",
    [
        # Near pi/4: c^n underflows and T_n(x) overflows when formed apart,
        # which made the value NaN.
        (1024, math.pi / 4 - 1e-3, 1.0, 1.79585e308),
        (1024, math.pi / 4 - 5e-3, 0.3 + 0.95j, 2.42732e-226 + 8.98284e-227j),
        (1023, math.pi / 4 - 1e-3, -1.0, -8.97928e307),
        (500, 0.3, 1.7 + 0.2j, -2.20611e143 - 2.17203e143j),
    ],
)
def test_closed_form_value_against_reference(n, theta, z, want):
    got = closed_form_eval(n, theta, z)
    with mpmath.workdps(VALUE_DPS):
        ref = family_value(canonical_params(theta), n, mpmath.mpc(z))
        assert float(abs(mpmath.mpc(got) - ref) / abs(ref)) <= VALUE_REL_TOL
    assert got == pytest.approx(want, rel=1e-5)
    if isinstance(z, float):
        assert got.imag == 0.0


def test_value_beyond_double_range_is_named():
    with pytest.raises(DomainError, match="degree 1100 overflow"):
        closed_form_eval(1100, math.pi / 4 - 1e-3, 1.0)
    # Every coefficient fits (max ~9e306), but L(1) ~ 3.6e308 does not.
    table = trace_power_coeffs(1025, np.array([[1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2.0))
    with pytest.raises(DomainError, match="degree 1025 overflow"):
        table.eval(np.array([0.5j, 1.0]))


def sample_points(rng, size):
    """Complex points around the unit circle, real points of both signs, and +-1, +-i."""
    radius = rng.uniform(0.5, 1.5, size)
    ring = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    real = rng.uniform(0.2, 3.0, size) * rng.choice([-1.0, 1.0], size)
    return np.concatenate([ring, real + 0j, [1.0, -1.0, 1j, -1j]])


@pytest.mark.parametrize("theta", [0.0, 0.1, math.pi / 6, math.pi / 4 - 1e-3, math.pi / 4])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
def test_array_and_scalar_evaluation_agree(n, theta):
    z = sample_points(np.random.default_rng(n), 40)
    real = z.imag == 0.0
    closed = closed_form_eval(n, theta, z)
    poly = closed_form_coeffs(n, theta)
    table = poly.eval(z)
    assert closed.shape == table.shape == z.shape
    assert np.all(closed[real].imag == 0.0) and np.all(table[real].imag == 0.0)
    for i, point in enumerate(z):
        one = closed_form_eval(n, theta, point)
        assert isinstance(one, complex)
        assert one == closed[i]
        one = poly.eval(point)
        assert isinstance(one, complex)
        assert one == table[i]
    assert np.array_equal(closed_form_eval(n, theta, z.reshape(4, -1)), closed.reshape(4, -1))


def test_array_evaluation_rejects_any_zero():
    z = np.array([1.0, 0.0, 2j])
    with pytest.raises(DomainError, match="z != 0"):
        closed_form_eval(3, 0.2, z)
    with pytest.raises(DomainError, match="z != 0"):
        trace_power_coeffs(3, np.eye(2)).eval(z)
