"""High-degree coefficient tables against an extended-precision reference.

The reference runs the power-sum recurrence p_k = (a z + b/z) p_{k-1} - d p_{k-2}
on Python integers in fixed point with REF_BITS fraction bits, starting from
a = |c1|^2, b = |c2|^2 and d = |det M|^2 evaluated in mpmath (exactly for
double matrix entries, to 300 bits for cos 2 theta). Its rounding error is
~2^-REF_BITS of the largest coefficient, far below the 1e-11 bound. One run
to the top degree yields the tables of every lower degree on the way.
"""

import math

import mpmath
import numpy as np
import pytest

from tracelaurent import DomainError, closed_form_coeffs, trace_power_coeffs, trig_coeffs
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
