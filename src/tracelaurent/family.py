"""Trace powers of the two-projection pencil: three routes to one Laurent family.

A matrix with columns c1, c2 defines the pencil S(z) = P1 z + P2 / z, where
P1 = c1 c1* and P2 = c2 c2* are the rank-one column projections. The family
member of degree n is the trace of S(z)^n, a Laurent polynomial with exponent
range -n..n. This module computes it by

  trace_power_coeffs   powers of a non-negative transfer matrix (production),
  brute_force_coeffs   full enumeration of the 2^n projection products,
  closed_form_*        scaled Chebyshev closed form for canonical matrices.

The three routes are kept algorithmically independent so each can serve as an
oracle for the others.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .chebyshev import _scaled_cheb
# Not called here any more; the name stays bound because the benchmark's
# tracer test (perfbench/tests/test_bench_tracer.py) reads family.cheb_eval.
from .chebyshev import cheb_eval  # noqa: F401
from .core import QUARTER_TURN_EPS
from .core import DomainError, LaurentPoly, as_matrix, check_angle, check_degree, check_double_range, check_points
from .normal_form import _columns, _reduce

__all__ = [
    "DegreeCapError",
    "brute_force_coeffs",
    "closed_form_coeffs",
    "closed_form_eval",
    "trace_power_coeffs",
]

_BRUTE_FORCE_CAP = 16


class DegreeCapError(RuntimeError):
    """Brute-force enumeration requested beyond the supported degree."""


def trace_power_coeffs(n: int, mat) -> LaurentPoly:
    """Coefficients of tr(S(z)^n) as the trace of T(z)^n, T(z) = [[a z, g z], [g / z, b / z]].

    A projection word's trace is a^i b^j g^2k, a = |c1|^2, b = |c2|^2, g = |<c1, c2>|. Every
    exponent of T(z)^k has k's parity, so T is powered by squaring with direct convolutions of
    packed rows, slot i holding z^(2i - k). T = diag(z, 1/z) K with K symmetric, so row 10 of T^k
    is row 01 one slot down, and three rows carry the power: a squaring takes four convolutions,
    a last squaring that forms only the trace three, and a step by T none. Every entry is a sum of
    non-negative terms, with a small relative error; off-parity slots are written as exact zeros,
    not computed. A table beyond double range, or one of a nonzero matrix wholly below it, raises
    a DomainError naming the degree.
    """
    def squares(p00, p01, p11):  # P00 P00, P01 P10 and P11 P11, where P10 is P01 one slot down
        s00, q = np.convolve(p00, p00), np.convolve(p01, p01)
        tail = q[1:]  # moved one slot down in place, indexed without a minus sign as the route has none
        q[: tail.size], q[tail.size] = tail, 0.0
        return s00, q, np.convolve(p11, p11)

    check_degree(n)
    m = as_matrix(mat)
    a, b, _, g, e1, e2 = _columns(m)
    with np.errstate(over="ignore", invalid="ignore"):  # a last step's row 01, never read, may overflow
        a, b, g = np.ldexp([a, b, abs(g)], [2 * e1, 2 * e2, e1 + e2])
        p00, p01, p11 = np.array([0.0, a]), np.array([0.0, g]), np.array([b, 0.0])
        for bit in bin(n if n % 2 else n // 2)[3:]:  # an even n ends on the trace-only squaring
            s00, q, s11 = squares(p00, p01, p11)
            p00, p01, p11 = s00 + q, np.convolve(p01, p00 + p11), q + s11
            if bit == "1":  # times T: the z column moves up one slot, the 1/z column stays
                p00, p01, p11 = (np.append(0.0, a * p00) + np.append(g * p01, 0.0),
                                 np.append(0.0, g * p00) + np.append(b * p01, 0.0), np.append(g * p01 + b * p11, 0.0))
        if n % 2:
            trace = p00 + p11
        else:
            s00, q, s11 = squares(p00, p01, p11)
            trace = s00 + s11 + 2.0 * q
        table = np.zeros(2 * n + 1)
        table[::2] = trace
    check_double_range(table, "trace-power coefficients", n, nonzero=m.any())
    return LaurentPoly(n, table)


def brute_force_coeffs(n: int, mat) -> LaurentPoly:
    """Oracle route: enumerate all 2^n sign sequences of projection products.

    A sequence e in {1, 2}^n contributes tr(P_{e_1} ... P_{e_n}) to the
    exponent (number of P1 picks) - (number of P2 picks). One array pass
    runs over every sequence in index order, so the output is deterministic.
    Its cost doubles per degree, so a degree above 16 raises a DegreeCapError.
    The n=4 cross-check that exactly binomial(4, 3) sequences land on
    exponent 2 lives in the test suite. A table beyond double range, or a
    table of a nonzero matrix wholly below it, raises a DomainError naming
    the degree.
    """
    check_degree(n)
    if n > _BRUTE_FORCE_CAP:
        raise DegreeCapError(f"oracle degree cap: n must be <= {_BRUTE_FORCE_CAP}")
    m = as_matrix(mat)
    c1, c2 = m[:, :1], m[:, 1:]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    counts = bits.sum(axis=1)
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.stack([c2 @ c2.conj().T, c1 @ c1.conj().T])
        chain = stack[bits[:, 0]]
        for j in range(1, n):
            chain = chain @ stack[bits[:, j]]
        traces = chain[:, 0, 0] + chain[:, 1, 1]
        coeffs[::2] += np.bincount(counts, weights=traces.real, minlength=n + 1)
        coeffs[::2] += 1j * np.bincount(counts, weights=traces.imag, minlength=n + 1)
    check_double_range(coeffs, "brute-force coefficients", n, nonzero=m.any())
    return LaurentPoly(n, coeffs)


def closed_form_eval(n: int, theta: float, z):
    """Value of the canonical family member: 2 c^n T_n(x), x = (z + 1/z) / 2c, c = cos 2t.

    A scalar z gives a complex, an array an ndarray of its shape; every point
    must be finite and nonzero. Each point costs O(1) in the Chebyshev kernel
    of `chebyshev.py`; exactly real x gives a value whose imaginary part is
    exactly zero. Within rounding reach of pi/4 the rank-one limit
    (z + 1/z)^n is taken explicitly. Values beyond double range raise a
    DomainError naming the degree.
    """
    check_degree(n)
    c = check_angle(theta)
    z, shape = check_points(z)
    values = _family_values(n, 1.0, 1.0, c, z)
    return complex(values[0]) if shape == () else values.reshape(shape)


def _family_values(n: int, a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    # L_n(z) = 2 c^n T_n(w / 2c), w = a z + b/z, of the pencil (a, b, c) at a 1-d array
    # of finite nonzero z, O(1) per point; the canonical matrix has (1, 1, cos 2 theta).
    # Where the matrix's cos 2 theta = c / sqrt(a b) is below QUARTER_TURN_EPS, the
    # rank-one limit w^n is taken, real w staying real; the test scales the edge by
    # sqrt(a) sqrt(b), so it holds at any matrix scale and forms no a b that could
    # overflow. Beyond double range it raises.
    with np.errstate(over="ignore", invalid="ignore"):
        w = a * z + b / z
        if c < QUARTER_TURN_EPS * math.sqrt(a) * math.sqrt(b):
            values = w ** n
            real = w.imag == 0.0
            values[real] = w.real[real] ** n
        else:
            values = _scaled_cheb(n, math.log(c), w / (2.0 * c))
    check_double_range(values, "family values", n)
    return values


def closed_form_coeffs(n: int, theta: float) -> LaurentPoly:
    """Coefficient table of the canonical family member, 2 c^n T_n((z + 1/z) / 2c).

    Every entry to a small relative error, c = cos 2 theta; angle 0 and the quarter
    turn are exact. A table beyond double range raises a DomainError naming the degree.
    """
    check_degree(n)
    return LaurentPoly(n, _canonical_coeffs(n, check_angle(theta), math.sin(2.0 * theta)))


def _canonical_coeffs(n: int, c: float, s: float) -> np.ndarray:
    # closed_form_coeffs' real table for c = cos 2 theta and s = sin 2 theta already formed.
    # Off the quarter turn, g_k = (1 - k^2/n^2) p_k has third difference (in steps of 2)
    # h [(k-2)(k-1) p_{k-2} - (k-5)(k-4) p_{k-4}], h = 4 s^2 / n^2, from T_n's
    # differential equation: three running sums carry it from p_{-n} = 1 to the middle.
    # The factors h m(m+1), m = k-2 and k-5, and (n-k)(n+k) / n^2 are formed once, from integers
    # exact in float64 while n^2 < 2^53: a step is an int loop's 7 float operations, in order.
    coeffs = np.zeros(2 * n + 1)
    if c < QUARTER_TURN_EPS:
        row = [math.comb(n, j) for j in range(n + 1)]
        if row[n // 2] > sys.float_info.max:
            raise DomainError(f"closed-form coefficients of degree {n} overflow double range")
        coeffs[::2] = row
        return coeffs
    h = 4.0 * s ** 2 / (n * n)
    m = np.arange(-3.0 - n, -1.0)  # k - 5 for k = 2 - n, .., and k - 2 three slots on
    hm, a = (h * (m * (m + 1.0))).tolist(), np.arange(2.0, n + 1.0, 2.0)  # a = n + k
    p4, p2, d2, d1, g, half = 0.0, 1.0, 0.0, 0.0, 0.0, [1.0]  # p_{-n-2}, p_{-n}
    for up, down, q in zip(hm[3::2], hm[::2], (a * (2.0 * n - a) / (n * n)).tolist()):
        d2 += up * p2
        d2 -= down * p4
        d1 += d2
        g += d1
        p4, p2 = p2, g / q
        half.append(p2)
    coeffs[: n + 1 : 2] = half
    coeffs[n + 1 :] = coeffs[n - 1 :: -1]
    check_double_range(coeffs, "closed-form coefficients", n)
    return coeffs


def _closed_form_matrix_coeffs(n: int, mat) -> LaurentPoly:
    """Closed-form table of a generic matrix, from its one column read.

    The canonical table at the matrix's own c = |det M| / (|c1| |c2|) and
    s = |<c1, c2>| / (|c1| |c2|), with entry 2j - n times a^j b^(n-j),
    a = |c1|^2 = a' 4^e1 and b = |c2|^2 = b' 4^e2. The mantissa powers are
    2^x, x = j log2 a' + (n - j) log2 b'; the entry takes 2^(x - ceil x) <= 1,
    and ceil x with the column exponents is applied last and exactly, by ldexp.
    A table beyond double range, or wholly below it, raises a DomainError.
    """
    _, (a, b, det, overlap, e1, e2) = _reduce(mat)
    check_degree(n)
    root = math.sqrt(a * b)
    base = _canonical_coeffs(n, det / root, abs(overlap) / root)
    i = np.arange(2 * n + 1)  # entry 2j - n sits at i = 2j
    x = 0.5 * (i * math.log2(a) + (2 * n - i) * math.log2(b))
    top = np.ceil(x)
    with np.errstate(over="ignore"):
        coeffs = np.ldexp(base * np.exp2(x - top), top.astype(np.int64) + e1 * i + e2 * (2 * n - i))
    check_double_range(coeffs, "closed-form coefficients", n, nonzero=True)
    return LaurentPoly(n, coeffs)
