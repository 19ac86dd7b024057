"""Independent mpmath reference for the trace-power family.

Nothing here imports tracelaurent. Values of L_n(z) = tr(S(z)^n), with
S(z) = M diag(z, 1/z) M*, come from 2x2 matrix powers by repeated squaring
in extended precision. Whole tables are recovered from 2n+1 such values at
the roots of unity by one discrete Fourier transform. Chebyshev values use
T_n(x) = cos(n acos x).

The tables sample the unit circle rather than |z| = 1/dilation. A DFT gives
every coefficient the same absolute error; on |z| = r that error is later
multiplied by r^-k, which at n = 1024 and dilation 1.02 would push the
reference's own max-norm scaled error to ~1e-8. On |z| = 1 it stays below
(2n+1) * 2^-53.
"""

from __future__ import annotations

import mpmath
import numpy as np
from mpmath import mp

# Working precision of every mpmath evaluation. 96 bits leaves ~40 bits of
# headroom over double for the cancellation in a trace near a root.
PREC = 96


def _mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _square(a):
    # Five products instead of eight; the workloads' degrees are powers of 2.
    a00, a01, a10, a11 = a
    cross = a01 * a10
    diag = a00 + a11
    return (a00 * a00 + cross, a01 * diag, a10 * diag, a11 * a11 + cross)


def _power(a, n: int):
    result = None
    while True:
        if n & 1:
            result = a if result is None else _mul(result, a)
        n >>= 1
        if not n:
            return result
        a = _square(a)


def _mp_matrix(mat):
    """Row-major 4-tuple of mpc entries; double entries convert exactly."""
    return tuple(mpmath.mpc(mat[i][j]) for i in range(2) for j in range(2))


def _pencil(m, z):
    """S(z) = M diag(z, 1/z) M* for a row-major 4-tuple M and an mpc z."""
    w = 1 / z
    m00, m01, m10, m11 = m
    c00, c01, c10, c11 = (mpmath.conj(x) for x in m)
    return (
        m00 * z * c00 + m01 * w * c01,
        m00 * z * c10 + m01 * w * c11,
        m10 * z * c00 + m11 * w * c01,
        m10 * z * c10 + m11 * w * c11,
    )


def trace_values(mat, n: int, zs) -> list:
    """tr(S(z)^n) at each point of zs, as mpc."""
    with mp.workprec(PREC):
        m = _mp_matrix(mat)
        out = []
        for z in zs:
            p = _power(_pencil(m, mpmath.mpc(z)), n)
            out.append(p[0] + p[3])
        return out


def canonical(theta: float) -> list:
    """[[cos theta, sin theta], [sin theta, cos theta]], built here in mpmath."""
    with mp.workprec(PREC):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        return [[mpmath.mpc(c), mpmath.mpc(s)], [mpmath.mpc(s), mpmath.mpc(c)]]


def normal_form(mat) -> dict:
    """Scale, dilation, angle and overlap phase of a matrix, in mpmath."""
    with mp.workprec(PREC):
        m = _mp_matrix(mat)
        r1 = mpmath.sqrt(abs(m[0]) ** 2 + abs(m[2]) ** 2)
        r2 = mpmath.sqrt(abs(m[1]) ** 2 + abs(m[3]) ** 2)
        overlap = (mpmath.conj(m[0]) * m[1] + mpmath.conj(m[2]) * m[3]) / (r1 * r2)
        mag = abs(overlap)
        return {
            "scale": float(r1 * r2),
            "dilation": float(r1 / r2),
            "angle": float(mpmath.asin(min(mag, 1)) / 2),
            "phase": complex(overlap / mag) if mag > 0 else 1 + 0j,
        }


class Table:
    """Reference coefficients of L_n for one matrix.

    `coeffs[k + n]` is the coefficient of z^k divided by `scale`, an mpf
    chosen so the largest sample is 1; tables whose true values exceed double
    range stay representable this way.
    """

    def __init__(self, mat, n: int):
        self.n = n
        size = 2 * n + 1
        # S(conj z) = S(z)^*, so L(conj z) = conj L(z): half the samples suffice.
        with mp.workprec(PREC):
            points = [mpmath.expjpi(mpmath.mpf(2 * j) / size) for j in range(n + 1)]
            values = trace_values(mat, n, points)
            self.scale = max(abs(v) for v in values)
            half = [complex(v / self.scale) for v in values]
        samples = np.array(half + [x.conjugate() for x in half[:0:-1]])
        # The coefficient of z^k sits in FFT slot k mod (2n+1).
        self.coeffs = np.roll(np.fft.fft(samples) / size, n)

    def absolute(self) -> np.ndarray:
        """Coefficients in absolute terms; only valid when they fit in double."""
        return self.coeffs * float(self.scale)

    def abs_sum(self, z) -> mpmath.mpf:
        """sum_k |c_k| |z|^k in absolute terms, as an mpf."""
        r = abs(complex(z))
        weights = np.abs(self.coeffs) * r ** np.arange(-self.n, self.n + 1, dtype=float)
        with mp.workprec(PREC):
            return mpmath.mpf(float(np.sum(weights))) * self.scale


def scaled_error(got, table: Table) -> float:
    """max_k |got_k - c_k| / max_k |c_k| against a reference table."""
    want = table.coeffs
    got = np.asarray(got, dtype=complex) / float(table.scale)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def backward_errors(mat, n: int, roots, table: Table) -> np.ndarray:
    """|L(z)| / sum_k |c_k||z|^k at each root, numerator in mpmath."""
    values = trace_values(mat, n, [complex(z) for z in roots])
    with mp.workprec(PREC):
        return np.array([float(abs(v) / table.abs_sum(z)) for v, z in zip(values, roots)])


def cheb_t(n: int, x):
    """T_n(x) = cos(n acos x), valid for any real or complex x."""
    with mp.workprec(PREC):
        return mpmath.cos(n * mpmath.acos(x))


def root_args(n: int, theta: float) -> np.ndarray:
    """The paper's root arguments acos(cos 2theta cos((2j-1)pi/2n)), ascending."""
    with mp.workprec(PREC):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        args = [
            mpmath.acos(c * mpmath.cos((2 * j - 1) * mpmath.pi / (2 * n)))
            for j in range(1, n + 1)
        ]
        return np.array([float(a) for a in args])


def level_args(n: int, theta: float) -> list:
    """Solutions of T_n(cos t / cos 2theta) = +-1 on [2theta, pi - 2theta].

    T_n(cos(k pi / n)) = (-1)^k, so t_k = acos(cos 2theta cos(k pi / n)) for
    k = 0..n, ascending: (t, level, multiplicity) with multiplicity 2 at the
    interior extrema of T_n and 1 at the two band ends.
    """
    with mp.workprec(PREC):
        c = mpmath.cos(2 * mpmath.mpf(theta))
        return [
            (float(mpmath.acos(c * mpmath.cos(k * mpmath.pi / n))), (-1) ** k, 1 if k in (0, n) else 2)
            for k in range(n + 1)
        ]
