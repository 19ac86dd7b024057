"""High-degree tables, values and zero sets against extended-precision references.

The table reference runs the Cayley-Hamilton recurrence for the power sums,
p_k = (a z + b/z) p_{k-1} - d p_{k-2}, which no package route uses, on Python
integers in fixed point with REF_BITS fraction bits, starting from
a = |c1|^2, b = |c2|^2 and d = |det M|^2 evaluated in mpmath (exactly for
double matrix entries, to 300 bits for cos 2 theta). Its rounding error is
~2^-REF_BITS of the largest coefficient, far below the 1e-11 bound. One run
to the top degree yields the tables of every lower degree on the way.

Entrywise, tables are checked against the sum over words of projection
products (word_sum_table), whose terms are all positive, so every entry is
accurate to mpmath's working precision however far below the peak it lies.

Values and root residuals are checked against L(z) = l1^n + l2^n in mpmath,
where l1, l2 = (t +- sqrt(t^2 - 4d)) / 2 are the eigenvalues of S(z) at
t = a z + b/z. Every table of the family has non-negative coefficients, so the
backward-error scale sum_k |c_k| |z|^k is L(|z|).
"""

import functools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelaurent import (
    DomainError,
    canonical_roots,
    cheb_eval,
    cheb_roots,
    cheb_preimage,
    cli,
    closed_form_coeffs,
    closed_form_eval,
    matrix_roots,
    trace_power_coeffs,
    trig_coeffs,
    trig_roots,
    unit_level_roots,
)
from tracelaurent.family import _closed_form_matrix_coeffs, _family_values
from tracelaurent.normal_form import _columns, canonical_matrix, normal_form
from conftest import DERANDOMIZED, GRID6, circle_restriction, column_scale_exponents, plain_pencil

DEGREES = (64, 256, 512)
REF_BITS = 160
SCALED_TOL = 1e-11
EPS = float(np.finfo(float).eps)


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
        # The table peaks near 4.5e306, 5 degrees below its last within double range.
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
        # The middle coefficient, ~2.9e308, is the first to leave double range;
        # at 1029 it is ~1.4e308, and the table fits.
        (closed_form_coeffs, 1030, math.pi / 4 - 1e-3),
    ],
)
def test_overflow_is_named(route, n, theta):
    with pytest.raises(DomainError, match=f"degree {n} overflow"):
        route(n, theta)


# ---- entrywise tables ----------------------------------------------------

# Largest entrywise relative errors measured over the inputs below: 1.0e-14 for
# closed_form_coeffs (1024, pi/6), 3.4e-14 for trig_coeffs (1024, 0.2), and
# 5.7e-14 for the closed-form CLI table of ENTRY_MATRIX at n = 256, 5.1e-14 of
# it from the rounding of |c1|^2 and |c2|^2 before their n-th powers.
ENTRY_REL_TOL = 1e-13
ENTRY_DPS = 40
ENTRY_INPUTS = [
    (1024, math.pi / 6),
    (512, math.pi / 6),
    (256, 1e-8),
    (255, 0.7),
    (1000, 0.01),
    (1024, 0.2),
    (1024, math.pi / 4 - 1e-3),
    (300, 1e-12),
]
ENTRY_MATRIX = np.array([[1 + 1j, 0.7], [0.5, 0.36]])


def word_sum_table(n, s, a=1, b=1):
    """Entries at exponents -n, -n+2, ..., n of the pencil with squared column
    norms a, b and s = |c1* c2|^2 / (a b), in mpmath.

    A word of j factors P1 and n - j factors P2 with 2m cyclic runs has trace
    a^(j-m) b^(n-j-m) |c1* c2|^(2m), and n/m C(j-1, m-1) C(n-j-1, m-1) words
    share j and m. So the entry of exponent 2j - n is
    a^j b^(n-j) n s 2F1(1-j, 1-n+j; 2; s), a sum of positive terms.
    """
    inner = [a ** j * b ** (n - j) * n * s * mpmath.hyp2f1(1 - j, 1 - n + j, 2, s) for j in range(1, n)]
    return [b ** n, *inner, a ** n]


def entrywise_error(got, want):
    with mpmath.workdps(ENTRY_DPS):
        return max(float(abs(mpmath.mpf(float(g)) / w - 1)) for g, w in zip(got, want, strict=True))


def canonical_word_sums(n, theta):
    with mpmath.workdps(ENTRY_DPS):
        return word_sum_table(n, mpmath.sin(2 * mpmath.mpf(theta)) ** 2)


@pytest.mark.parametrize("n, theta", ENTRY_INPUTS)
def test_closed_form_entrywise_against_word_sums(n, theta):
    # The DFT route erred by 2.2e120 at (512, pi/6) and 0.37 at (256, 1e-8).
    got = closed_form_coeffs(n, theta).coeffs.real
    assert not np.any(got[1::2])
    assert entrywise_error(got[::2], canonical_word_sums(n, theta)) <= ENTRY_REL_TOL


def test_closed_form_entry_far_below_the_peak():
    # n sin^2(2 theta) = 768, next to a table peak of ~6e275; the DFT route gave -5.18e261.
    assert closed_form_coeffs(1024, math.pi / 6)[-1022].real == pytest.approx(768.0, rel=ENTRY_REL_TOL)


# ENTRY_INPUTS but (1024, pi/6) and (1024, pi/4 - 1e-3), whose cosine tables exceed double range.
@pytest.mark.parametrize("n, theta", [(512, math.pi / 6), (256, 1e-8), (255, 0.7), (1000, 0.01),
                                      (1024, 0.2), (300, 1e-12)])
def test_trig_coeffs_entrywise_against_word_sums(n, theta):
    # The cosine coefficients of exponents n, n-2, ... (k = 0 halved) over c^n.
    got = trig_coeffs(n, theta).cos_coeffs
    assert not np.any(got[n - 1 :: -2])
    with mpmath.workdps(ENTRY_DPS):
        c_pow = mpmath.cos(2 * mpmath.mpf(theta)) ** n
        want = [v / c_pow for v in canonical_word_sums(n, theta)[(n + 1) // 2 :]]
        if n % 2 == 0:
            want[0] /= 2
    assert entrywise_error(got[n % 2 :: 2], want) <= ENTRY_REL_TOL


def matrix_word_sums(n, m):
    """word_sum_table of the pencil of a matrix's own double entries, in mpmath."""
    with mpmath.workdps(ENTRY_DPS):
        (p, r), (q, t) = [[mpmath.mpc(complex(v)) for v in col] for col in m.T]
        a, b = abs(p) ** 2 + abs(r) ** 2, abs(q) ** 2 + abs(t) ** 2
        s = abs(mpmath.conj(p) * q + mpmath.conj(r) * t) ** 2 / (a * b)
        return word_sum_table(n, s, a, b)


@pytest.mark.parametrize("n, theta", ENTRY_INPUTS)
def test_trace_power_entrywise_against_word_sums(n, theta):
    # The Cayley-Hamilton recurrence subtracted d p_{k-2}, d ~ ab at small angles: it
    # erred by 0.445 at (256, 1e-8) and lost every digit at (300, 1e-12).
    m = canonical_matrix(theta)
    got = trace_power_coeffs(n, m).coeffs.real
    assert not np.any(got[1::2])
    assert entrywise_error(got[::2], matrix_word_sums(n, m)) <= ENTRY_REL_TOL


# The trace route's largest accepted degree at four angles, as ROADMAP's State table lists it.
@pytest.mark.parametrize("theta, n", [(0.05, 7520), (math.pi / 8, 1334), (math.pi / 6, 1143),
                                      (math.pi / 4 - 1e-3, 1029)])
def test_trace_power_degree_limits(theta, n):
    m = canonical_matrix(theta)
    assert trace_power_coeffs(n, m).n == n
    with pytest.raises(DomainError, match=f"degree {n + 1} overflow"):
        trace_power_coeffs(n + 1, m)


# Past the limit by far, the bound on tr K^n refuses before any powering. Powering first took
# 4.1-4.6 s to overflow at (100000, 0.1) and 0.62-0.74 s to underflow at n = 40,000 on a 1e-100
# matrix (process time, 2-core machine).
@pytest.mark.parametrize("n, m, way", [(100000, canonical_matrix(0.1), "overflow"),
                                       (40000, np.array([[1e-100, 0.3e-100], [0.2e-100, 1e-100]]), "underflow")])
def test_trace_power_refuses_out_of_range_before_powering(n, m, way, monkeypatch):
    calls, convolve = [], np.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", counted)
    with pytest.raises(DomainError, match=f"^trace-power coefficients of degree {n} {way} double range$"):
        trace_power_coeffs(n, m)
    assert not calls


# The closed form's largest accepted degree at the same four angles and at 1e-3, as ROADMAP's
# State table lists it; at 1e-3 each call takes under 0.1 s.
@pytest.mark.parametrize("theta, n", [(0.05, 7520), (math.pi / 8, 1334), (math.pi / 6, 1143),
                                      (math.pi / 4 - 1e-3, 1029), (1e-3, 360116)])
def test_closed_form_degree_limits(theta, n):
    assert closed_form_coeffs(n, theta).n == n
    with pytest.raises(DomainError, match=f"degree {n + 1} overflow"):
        closed_form_coeffs(n + 1, theta)


def column_word_sums(n, m):
    """word_sum_table of the pencil of _columns' own rounded a', b', |g'| and exponents, in mpmath.

    It holds the trace route to its own rounding: the rounding of a' = |c1'|^2, raised to the
    n-th power, can add up to n eps / 2 against matrix_word_sums.
    """
    a, b, _, g, e1, e2 = _columns(m)
    with mpmath.workdps(ENTRY_DPS):
        a, b, g = mpmath.ldexp(a, 2 * e1), mpmath.ldexp(b, 2 * e2), mpmath.ldexp(abs(g), e1 + e2)
        return word_sum_table(n, g ** 2 / (a * b), a, b)


@pytest.mark.parametrize("n, theta", [(2048, 0.002), (4096, 0.001)])
def test_trace_power_entrywise_at_high_degree(n, theta):
    # n sin 2 theta ~ 8, where the recurrence erred by 5.6e-11 and 1.9e-10 of the peak.
    m = canonical_matrix(theta)
    got = trace_power_coeffs(n, m).coeffs.real
    assert not np.any(got[1::2])
    assert entrywise_error(got[::2], column_word_sums(n, m)) <= ENTRY_REL_TOL


@pytest.mark.parametrize("n", [1025, 1024])
def test_trace_power_entrywise_at_both_loop_ends(n):
    # 1025 ends on a step by T, 1024 on the squaring that forms only the trace; the matrix
    # has unequal complex columns, so the three carried rows are all distinct.
    m = np.array([[0.8 + 0.3j, 0.5], [0.4, 0.7 - 0.2j]])
    got = trace_power_coeffs(n, m).coeffs.real
    assert entrywise_error(got[::2], column_word_sums(n, m)) <= ENTRY_REL_TOL


def matrix_spec(m):
    """The CLI --matrix spec of m, every entry to 17 digits, so it parses back to m."""
    return ";".join(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in m)


# The columns times 2^30 and 2^-30 at n = 8 are held to 8 n eps: the rescale
# exp(n log scale + k log dilation) erred by 2.5e-14 there.
@pytest.mark.parametrize("n, exponents, tol", [(64, (0, 0), ENTRY_REL_TOL), (256, (0, 0), ENTRY_REL_TOL),
                                               (8, (30, -30), 8 * 8 * EPS)],
                         ids=["64", "256", "8-columns-scaled"])
def test_closed_form_matrix_table_entrywise(capsys, n, exponents, tol):
    # The DFT table, rescaled by dilation^k, erred by 3.5e-4 of the peak at n = 64
    # and 7.9e33 at n = 256 against the trace table; the trace table is held to the
    # same bound, as the second route of the CLI.
    m = ENTRY_MATRIX * np.ldexp(1.0, exponents)
    want = matrix_word_sums(n, m)
    tables = []
    for method in ("closed", "trace"):
        assert cli.run(["coeffs", "--n", str(n), "--matrix", matrix_spec(m), "--method", method]) == 0
        rows = json.loads(capsys.readouterr().out)["data"]["coefficients"]
        got = np.array([row["re"] for row in rows])
        assert [row["k"] for row in rows] == list(range(-n, n + 1))
        assert not np.any(got[1::2]) and not any(row["im"] for row in rows)
        assert entrywise_error(got[::2], want) <= tol, method
        tables.append(got)
    assert scaled_error(*tables) <= tol


@DERANDOMIZED
@given(column_scale_exponents(), st.sampled_from((4, 16)))
def test_closed_form_matrix_table_under_power_of_two_column_scales(exponents, n):
    # Scaling the columns by 2^p and 2^q is exact, so entry k of the table must scale
    # by exactly 2^(p(n+k) + q(n-k)) wherever both tables are normal doubles, as the
    # roots of matrix_roots do. The exp(n log scale + k log dilation) rescale missed it
    # in the last bits. Where every entry fits, the scaled table must not raise.
    # The trace route powers the scaled pencil itself, whose partial products can leave
    # double range where only part of the table fits (README, Notes on numerics), so it
    # is held to this where the whole scaled table is normal.
    p, q = exponents
    k = np.arange(-n, n + 1)
    for route in (_closed_form_matrix_coeffs, trace_power_coeffs):
        with np.errstate(over="ignore"):
            want = np.ldexp(route(n, ENTRY_MATRIX).coeffs.real, p * (n + k) + q * (n - k))
        normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
        if route is trace_power_coeffs and not normal[::2].all():
            continue
        try:
            got = route(n, ENTRY_MATRIX * np.ldexp(1.0, exponents)).coeffs.real
        except DomainError:
            assert not normal[::2].all(), (route.__name__, p, q)
            continue
        assert np.array_equal(got[normal], want[normal]), (route.__name__, p, q)
        assert not np.any(got[1::2])


# ---- values and zero sets ------------------------------------------------

ROOT_DEGREES = (256, 1024)
OPEN_ANGLES = (1e-3, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3)
# Largest backward errors measured over these inputs, both at n = 1024: 9.0e-14
# for the computed roots (angle 1e-3), whose positions are within a few eps
# (test_zero_set_positions_against_reference), and 7.9e-12 for a reported
# residual's distance from the reference |L(z)|.
ROOT_BERR_TOL = 1e-10
RESIDUAL_BERR_TOL = 1e-10
VALUE_REL_TOL = 1e-11  # largest measured relative error of the values below: 7.3e-13
VALUE_DPS = 40


def pencil_params(m):
    """a = |c1|^2, b = |c2|^2 and d = |det M|^2 of a matrix, in mpmath at VALUE_DPS digits."""
    with mpmath.workdps(VALUE_DPS):
        e = [[mpmath.mpc(complex(m[i, j])) for j in range(2)] for i in range(2)]
        a = abs(e[0][0]) ** 2 + abs(e[1][0]) ** 2
        b = abs(e[0][1]) ** 2 + abs(e[1][1]) ** 2
        d = abs(e[0][0] * e[1][1] - e[0][1] * e[1][0]) ** 2
    return a, b, d


def canonical_params(theta):
    """The canonical matrix's pencil (1, 1, cos^2 2 theta), in mpmath at VALUE_DPS digits."""
    with mpmath.workdps(VALUE_DPS):
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


def off_root_points(rng, n, radius, size):
    """Points at log-distance 1/n..30/n off the roots' circle, on both sides, so
    that |L(z)| stays within a factor ~e^30 of its scale and within double range."""
    offset = rng.uniform(1.0, 30.0, size) / n * rng.choice([-1.0, 1.0], size)
    return radius * np.exp(offset + 1j * rng.uniform(-math.pi, math.pi, size))


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("n", (16, 256, 1024))
def test_matrix_values_against_reference(n, index):
    m = unit_scale_matrices()[index]
    z = off_root_points(np.random.default_rng(n + index), n, 1.0 / normal_form(m).dilation, 30)
    got = _family_values(n, *plain_pencil(m), z)
    params = pencil_params(m)
    with mpmath.workdps(VALUE_DPS):
        for point, value in zip(z, got):
            ref = family_value(params, n, mpmath.mpc(complex(point)))
            assert float(abs(mpmath.mpc(complex(value)) - ref) / abs(ref)) <= VALUE_REL_TOL


# Column scales of [[1, 0.3], [0.2, 1]] at which squaring the plain entries leaves double
# range, while the normal form and the values at the roots fit. At the first,
# a = |c1|^2 = 1.04e-320 was subnormal and the residuals erred by 1.2e-5 of L(|z|);
# at the second, a = inf raised an overflow DomainError for values near 1e20.
EXTREME_COLUMN_SCALES = ((1e-160, 1e140), (1e155, 1e-150), (1e154, 1e-154))
EXTREME_RESIDUAL_TOL = 1e-13


@pytest.mark.parametrize("scales", EXTREME_COLUMN_SCALES)
@pytest.mark.parametrize("n", (4, 16))
def test_matrix_root_residuals_at_extreme_column_scales(n, scales):
    m = np.array([[1.0, 0.3], [0.2, 1.0]]) * scales
    report = matrix_roots(n, m)
    berr = root_backward_errors(pencil_params(m), n, report.roots, report.residuals)
    assert berr[:, 0].max() <= ROOT_BERR_TOL
    assert berr[:, 1].max() <= EXTREME_RESIDUAL_TOL


@pytest.mark.parametrize("scales", [(1e150, 1e150), (1e300, 1e-5)])
@pytest.mark.parametrize("n", (4, 16))
def test_matrix_roots_beyond_double_range_still_raise(n, scales):
    # Here the values themselves, near scale^n, leave double range.
    with pytest.raises(DomainError, match=f"family values of degree {n} overflow double range"):
        matrix_roots(n, np.array([[1.0, 0.3], [0.2, 1.0]]) * scales)


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("n", (2048, 4096, 10 ** 4))
def test_matrix_roots_beyond_table_range(n, index):
    # The trace-power table overflows past n ~ 1,143 at pi/6; the residuals'
    # Chebyshev form only needs c^n = |det M|^n within range at the roots.
    m = [canonical_matrix(math.pi / 6), *unit_scale_matrices()][index]
    report = matrix_roots(n, m)
    radius = 1.0 / normal_form(m).dilation
    assert report.roots.shape == (2 * n,)
    assert np.abs(np.abs(report.roots) - radius).max() <= 1e-9 * radius
    sample = np.linspace(0, 2 * n - 1, 20).astype(int)
    berr = root_backward_errors(pencil_params(m), n, report.roots[sample], report.residuals[sample])
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


@pytest.mark.parametrize(
    "evaluate",
    [lambda: cheb_eval(2000, 2.0), lambda: cheb_eval(2000, 2.0 + 0.5j), lambda: circle_restriction(2000, 0.3, 0.1)],
    ids=["real", "complex", "trig"],
)
def test_chebyshev_recurrence_overflow_is_named(evaluate):
    # The three-term recurrence that cheb_eval used to run went to inf and then
    # formed inf - inf, which was returned as NaN; the kernel must name the limit.
    with pytest.raises(DomainError, match="Chebyshev values of degree 2000 overflow double range"):
        evaluate()


@pytest.mark.parametrize("n, x", [(530, 2.0), (500, 2.0 + 0.5j), (701, -1.5)])
def test_chebyshev_recurrence_near_double_range(n, x):
    # The last degrees below the limit stay finite and accurate.
    got = cheb_eval(n, x)
    with mpmath.workdps(VALUE_DPS):
        ref = mpmath.chebyt(n, mpmath.mpmathify(x))
        assert float(abs(mpmath.mpmathify(got) - ref) / abs(ref)) <= VALUE_REL_TOL


def chebyshev_points(rng, n, size):
    """Real and complex points on, near and off [-1, 1], with |T_n| below ~e^500."""
    a, b = rng.uniform(0.0, 500.0 / n, size), rng.uniform(0.0, math.pi, size)
    near = 10.0 ** rng.uniform(-12.0, -4.0, size)
    real = np.concatenate([np.cos(b), np.cosh(a), -np.cosh(a), 1.0 + near, -1.0 - near])
    complex_ = np.concatenate([np.cosh(a + 1j * b), np.cos(b) + 1j * near, np.cos(b) + 0j])
    return real, complex_


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_chebyshev_kernel_against_reference(n):
    # The error is taken relative to max(1, |T_n|): on [-1, 1] the values are
    # O(1) and carry an absolute error of ~n ulp of the angle.
    real, complex_ = chebyshev_points(np.random.default_rng(n), n, 6)
    worst = 0.0
    with mpmath.workdps(VALUE_DPS):
        for x in (real, complex_):
            for point, value in zip(x, cheb_eval(n, x)):
                ref = mpmath.chebyt(n, mpmath.mpmathify(point.item()))
                error = abs(mpmath.mpmathify(value.item()) - ref) / max(1, abs(ref))
                worst = max(worst, float(error))
    assert worst <= VALUE_REL_TOL


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


# ---- exact level sets ----------------------------------------------------

# Adjacent preimages of a level near +-1 sit ~(pi/n)^2 apart, so at this
# degree any merging of nearby values would join distinct simple roots.
LEVEL_DEGREE = 2 * 10 ** 5
# Forward error of t = acos(c zeta) in units of eps (t + |cot t|), the
# condition of acos at a rounded c zeta. The pullback forms t = atan2(y, x)
# without that rounding and stays within a few eps of t itself
# (test_zero_set_positions_against_reference); largest measured on this
# scale: 0.64 over the cases below.
ARG_ULPS = 2.0


def sample_indices(count):
    return np.unique(np.linspace(0, count - 1, 20).astype(int))


def assert_near_reference(got, angles):
    """got[i] against cos(angles[i]) in mpmath, within a few ulps of 1."""
    with mpmath.workprec(200):
        for x, angle in zip(got, angles):
            assert abs(x - mpmath.cos(angle)) <= 4 * EPS, (x, angle)


def test_interior_level_preimages_are_simple_at_large_degree():
    n, s = LEVEL_DEGREE, 0.5
    hits = cheb_preimage(n, s)
    assert len(hits) == n
    assert all(m == 1 for _, m in hits)
    x = np.array([v for v, _ in hits])
    assert np.all(np.diff(x) > 0)
    # Each sampled x lies within a few ulps of its nearest exact preimage
    # cos((2 pi j +- acos s) / n).
    sample = x[sample_indices(n)]
    nearest = []
    with mpmath.workprec(200):
        alpha, turn = mpmath.acos(s), 2 * mpmath.pi
        for v in sample:
            phase = n * mpmath.acos(v)
            angles = [(turn * mpmath.nint((phase - sign * alpha) / turn) + sign * alpha) / n
                      for sign in (1, -1)]
            nearest.append(min(angles, key=lambda a: abs(v - mpmath.cos(a))))
    assert_near_reference(sample, nearest)


@pytest.mark.parametrize("level", [1.0, -1.0])
def test_extreme_level_preimages_at_large_degree(level):
    # T_n = +-1 at cos(k pi/n) for even or odd k: double inside, simple at +-1.
    n = LEVEL_DEGREE
    hits = cheb_preimage(n, level)
    k = np.arange(n + 1)[::-1]
    k = k[(-1.0) ** k == level]
    x = np.array([v for v, _ in hits])
    mult = np.array([m for _, m in hits])
    assert len(hits) == len(k)
    assert np.all(np.diff(x) > 0)
    assert mult.sum() == n
    assert np.array_equal(mult == 1, np.abs(x) == 1.0)
    i = sample_indices(len(k))
    assert_near_reference(x[i], [int(j) * mpmath.pi / n for j in k[i]])


@pytest.mark.parametrize("theta", OPEN_ANGLES)
def test_unit_level_structure_at_large_degree(theta):
    n = LEVEL_DEGREE
    hits = unit_level_roots(n, theta)
    assert len(hits) == n + 1
    assert [level for _, level, _ in hits] == [1, -1] * (n // 2) + [1]
    assert [m for _, _, m in hits] == [1] + [2] * (n - 1) + [1]
    assert hits[0][0] == 2.0 * theta and hits[-1][0] == math.pi - 2.0 * theta
    assert all(a <= b for (a, _, _), (b, _, _) in zip(hits, hits[1:]))


@pytest.mark.parametrize("theta", OPEN_ANGLES)
@pytest.mark.parametrize("n", (1024, LEVEL_DEGREE))
def test_circle_roots_and_unit_levels_against_reference(n, theta):
    roots = trig_roots(n, theta)
    levels = unit_level_roots(n, theta)
    j, k = sample_indices(n), sample_indices(n + 1)
    with mpmath.workprec(200):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        pairs = [(roots[i], (2 * int(i) + 1) * mpmath.pi / (2 * n)) for i in j]
        pairs += [(levels[i][0], int(i) * mpmath.pi / n) for i in k]
        for got, angle in pairs:
            ref = mpmath.acos(c * mpmath.cos(angle))
            scale = ref + abs(mpmath.cot(ref))
            assert abs(got - ref) <= ARG_ULPS * EPS * scale, (got, angle)


# ---- zero-set positions --------------------------------------------------

# Every root, circle root and unit-level point against VALUE_DPS-digit
# references, at angles down to 1e-12 and degrees up to 10^4, where the points
# next to +-1 sit only ~pi/2n off the real axis. Imaginary parts and arguments
# are held to a relative POSITION_ULPS eps each, point by point. The minimum
# gap is the distance between two rounded roots of modulus 1, so it is held to
# POSITION_ULPS eps absolute.
POSITION_ULPS = 4


@functools.lru_cache(maxsize=3)
def chebyshev_cosines(n):
    """cos(m pi / 2n) for m = 0..2n, in mpmath: the roots at odd m, the extrema at even m."""
    with mpmath.workdps(VALUE_DPS):
        return [mpmath.cos(m * mpmath.pi / (2 * n)) for m in range(2 * n + 1)]


@functools.lru_cache(maxsize=4)
def exact_pullback(n, theta, ms):
    """x = cos(2 theta) cos(m pi / 2n), y = sqrt(1 - x^2) and t = acos x for each m in the range ms, in mpmath."""
    cosines = chebyshev_cosines(n)
    with mpmath.workdps(VALUE_DPS):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        xs = [c * cosines[m] for m in ms]
        return xs, [mpmath.sqrt(1 - x * x) for x in xs], [mpmath.acos(x) for x in xs]


def relative_ulps(got, refs):
    """Largest |got - ref| / ref over the pairs, in units of eps."""
    with mpmath.workdps(VALUE_DPS):
        return max(float(abs(float(g) - r) / r) for g, r in zip(got, refs)) / EPS


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-6, 1e-4, 0.3])
@pytest.mark.parametrize("n", [7, 1024, 10 ** 4])
def test_zero_set_positions_against_reference(n, theta):
    upper_m = range(2 * n - 1, 0, -2)  # the upper roots in report order, real parts ascending
    for report in (canonical_roots(n, theta), matrix_roots(n, canonical_matrix(theta))):
        assert report.dilation == 1.0
        upper = report.roots[0::2]
        # Real parts stay the plain product cos(2 angle) zeta.
        assert np.array_equal(upper.real, math.cos(2.0 * report.angle) * cheb_roots(n))
        x, y, _ = exact_pullback(n, report.angle, upper_m)
        assert relative_ulps(upper.imag, y) <= POSITION_ULPS
        with mpmath.workdps(VALUE_DPS):
            ring = [mpmath.mpc(a, b) for a, b in zip(x, y)]
            gaps = [abs(q - p) for p, q in zip(ring, ring[1:])] + [2 * y[0], 2 * y[-1]]
            assert abs(report.min_pairwise_gap - min(gaps)) <= POSITION_ULPS * EPS
    t = exact_pullback(n, theta, upper_m)[2]
    assert relative_ulps(trig_roots(n, theta), t[::-1]) <= POSITION_ULPS
    t = exact_pullback(n, theta, range(0, 2 * n + 1, 2))[2]
    assert relative_ulps([point for point, _, _ in unit_level_roots(n, theta)], t) <= POSITION_ULPS
