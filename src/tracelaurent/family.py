"""Trace powers of the two-projection pencil: three routes to one Laurent family.

A matrix with columns c1, c2 defines the pencil S(z) = P1 z + P2 / z, where
P1 = c1 c1* and P2 = c2 c2* are the rank-one column projections. The family
member of degree n is the trace of S(z)^n, a Laurent polynomial with exponent
range -n..n. This module computes it by

  trace_power_coeffs   the Cayley-Hamilton recurrence for tr(S^k) (production),
  brute_force_coeffs   full enumeration of the 2^n projection products,
  closed_form_*        scaled Chebyshev closed form for canonical matrices.

The three routes are kept algorithmically independent so each can serve as an
oracle for the others.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Not called here any more; the name stays bound because the benchmark's
# tracer test (perfbench/tests/test_bench_tracer.py) reads family.cheb_eval.
from .chebyshev import cheb_eval  # noqa: F401
from .core import QUARTER_TURN_EPS
from .core import DomainError, LaurentPoly, as_matrix, check_angle, check_degree, check_double_range, check_finite
from .normal_form import normal_form

__all__ = [
    "DegreeCapError",
    "brute_force_coeffs",
    "closed_form_coeffs",
    "closed_form_eval",
    "trace_power_coeffs",
]

_BRUTE_FORCE_CAP = 24
_BLOCK_BITS = 16


class DegreeCapError(RuntimeError):
    """Brute-force enumeration requested beyond the supported degree."""


def _pencil_params(mat):
    # a = |c1|^2, b = |c2|^2 and c = |det M|: det S = c^2, L_n = 2 c^n T_n((a z + b/z) / 2c).
    m = as_matrix(mat)
    a, b = np.sum(np.abs(m) ** 2, axis=0)
    return a, b, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def trace_power_coeffs(n: int, mat) -> LaurentPoly:
    """Coefficients of tr(S(z)^n) by the Cayley-Hamilton recurrence.

    With a = |c1|^2, b = |c2|^2 and d = |det M|^2 = det S, the power sums
    obey p_k = (a z + b / z) p_{k-1} - d p_{k-2}, p_0 = 2: two shifted real
    axpys per step, off-parity slots staying exact zeros. A table beyond
    double range raises a DomainError naming the degree.
    """
    check_degree(n)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = _pencil_params(mat)
        d = c ** 2
        prev, cur = np.zeros((2, 2 * n + 1))
        prev[n] = 2.0
        cur[n - 1], cur[n + 1] = b, a
        for _ in range(n - 1):
            prev *= -d
            prev[1:] += a * cur[:-1]
            prev[:-1] += b * cur[1:]
            prev, cur = cur, prev
    check_double_range(cur, "trace-power coefficients", n)
    return LaurentPoly(n, cur)


def brute_force_coeffs(n: int, mat) -> LaurentPoly:
    """Oracle route: enumerate all 2^n sign sequences of projection products.

    A sequence e in {1, 2}^n contributes tr(P_{e_1} ... P_{e_n}) to the
    exponent (number of P1 picks) - (number of P2 picks). Enumeration runs in
    fixed-size index blocks with a fixed per-block summation order, and block
    results are reduced in index order, so the output is deterministic.
    The n=4 cross-check that exactly binomial(4, 3) sequences land on
    exponent 2 lives in the test suite.
    """
    check_degree(n)
    if n > _BRUTE_FORCE_CAP:
        raise DegreeCapError(f"oracle degree cap: n must be <= {_BRUTE_FORCE_CAP}")
    m = as_matrix(mat)
    c1, c2 = m[:, :1], m[:, 1:]
    stack = np.stack([c2 @ c2.conj().T, c1 @ c1.conj().T])
    total = 1 << n
    block = min(total, 1 << _BLOCK_BITS)
    shifts = np.arange(n)
    plus_sums = np.zeros(n + 1, dtype=complex)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        chain = stack[bits[:, 0]]
        for j in range(1, n):
            chain = chain @ stack[bits[:, j]]
        traces = chain[:, 0, 0] + chain[:, 1, 1]
        counts = bits.sum(axis=1)
        plus_sums += np.bincount(counts, weights=traces.real, minlength=n + 1)
        plus_sums += 1j * np.bincount(counts, weights=traces.imag, minlength=n + 1)
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    coeffs[2 * np.arange(n + 1)] = plus_sums
    return LaurentPoly(n, coeffs)


def _log_chebyshev(n: int, log_c, alpha):
    # 2 c^n T_n(cosh alpha), with c^n and T_n unable to over- or underflow apart;
    # T_n(cosh alpha) = cosh(n alpha) is even in alpha, so any acosh branch serves.
    return np.exp(n * (log_c + alpha)) + np.exp(n * (log_c - alpha))


def _real_closed_form(n: int, c: float, x: np.ndarray) -> np.ndarray:
    # 2 c^n T_n(x) at real x: 2 c^n cos(n acos x) on [-1, 1], and outside it
    # sign(x)^n times the log form at acosh|x|.
    values = _log_chebyshev(n, math.log(c), np.arccosh(np.maximum(np.abs(x), 1.0)))
    values *= np.cos(n * np.arccos(np.clip(x, -1.0, 1.0)))
    return values


def _matrix_eval(n: int, mat, z: np.ndarray) -> np.ndarray:
    # L_n(z) of any matrix with det M != 0 at an array of nonzero z, O(1) per
    # point from (a, b, c) of the matrix itself; beyond double range it raises.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = _pencil_params(mat)
        values = _log_chebyshev(n, math.log(c), np.arccosh((a * z + b / z) / (2.0 * c)))
    check_double_range(values, "family values", n)
    return values


def closed_form_eval(n: int, theta: float, z):
    """Value of the canonical family member: 2 c^n T_n(x), x = (z + 1/z) / 2c, c = cos 2t.

    A scalar z gives a complex, an array an ndarray of its shape; every point
    must be finite and nonzero. Each point costs O(1) in log form,
    exp(n (log c + a)) + exp(n (log c - a)) with a = acosh x on any branch;
    exactly real x takes the sign-aware real form, whose imaginary part is
    exactly zero. Within rounding reach of pi/4 the rank-one limit
    (z + 1/z)^n is taken explicitly. Values beyond double range raise a
    DomainError naming the degree.
    """
    check_degree(n)
    c = check_angle(theta)
    shape = np.shape(z)
    z = np.array(z, dtype=complex, ndmin=1)  # a scalar runs as a one-point array
    if np.any(z == 0):
        raise DomainError("evaluation requires z != 0")
    check_finite(z, "evaluation points")
    values = _closed_form_values(n, c, z)
    return complex(values[0]) if shape == () else values.reshape(shape)


def _closed_form_values(n: int, c: float, z: np.ndarray) -> np.ndarray:
    # closed_form_eval's kernel at a 1-d array of finite nonzero z, c = cos 2 theta;
    # a branch with no points is skipped. Beyond double range it raises.
    with np.errstate(over="ignore", invalid="ignore"):
        w = z + 1.0 / z
        real = w.imag == 0.0
        count = np.count_nonzero(real)
        values = np.empty_like(w)
        if c < QUARTER_TURN_EPS:
            values[real] = w.real[real] ** n
            values[~real] = w[~real] ** n
        else:
            x = w / (2.0 * c)
            if count:
                values[real] = _real_closed_form(n, c, x.real[real])
            if count < real.size:
                values[~real] = _log_chebyshev(n, math.log(c), np.arccosh(x[~real]))
    check_double_range(values, "closed-form values", n)
    return values


def closed_form_coeffs(n: int, theta: float) -> LaurentPoly:
    """Coefficient table of the canonical family member by one DFT of its values.

    The values 2 c^n T_n(x), x = cos t / c, c = cos 2 theta, are real and even
    in t. They are sampled at the 2n+1 roots of unity in the sign-aware log form
    of `_real_closed_form`, and one real DFT gives the table. Angle 0,
    the quarter turn and the edge coefficients 1 are exact; other entries are
    accurate relative to the largest. Samples beyond double range raise a
    DomainError naming the degree.
    """
    check_degree(n)
    c = check_angle(theta)
    coeffs = np.zeros(2 * n + 1)
    if c < QUARTER_TURN_EPS:
        row = [math.comb(n, j) for j in range(n + 1)]
        if row[n // 2] > sys.float_info.max:
            raise DomainError(f"closed-form coefficients of degree {n} overflow double range")
        coeffs[::2] = row
    elif theta > 0.0:  # at angle 0 only the edge coefficients are nonzero
        size = 2 * n + 1
        x = np.cos(2.0 * np.pi * np.arange(size) / size) / c
        with np.errstate(over="ignore", invalid="ignore"):
            half = np.fft.rfft(_real_closed_form(n, c, x) / size).real
        check_double_range(half, "closed-form samples", n)
        coeffs[:n], coeffs[n:] = half[:0:-1], half
        coeffs[1::2] = 0.0
    coeffs[0] = coeffs[-1] = 1.0
    return LaurentPoly(n, coeffs)


def _closed_form_matrix_coeffs(n: int, mat) -> LaurentPoly:
    """Closed-form table of a generic matrix, rescaled from its normal form.

    The canonical table of the matrix's angle is multiplied by
    scale^n dilation^k, formed as exp(n log scale + k log dilation) so that the
    two factors cannot overflow apart. A table beyond double range raises a
    DomainError naming the degree.
    """
    nf = normal_form(mat)
    base = closed_form_coeffs(n, nf.angle)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = n * math.log(nf.scale) + np.arange(-n, n + 1) * math.log(nf.dilation)
        coeffs = base.coeffs * np.exp(logs)
    check_double_range(coeffs, "closed-form coefficients", n)
    return LaurentPoly(n, coeffs)
