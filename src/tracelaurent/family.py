"""Trace powers of the two-projection pencil: three routes to one Laurent family.

A matrix with columns c1, c2 defines the pencil S(z) = P1 z + P2 / z, where
P1 = c1 c1* and P2 = c2 c2* are the rank-one column projections. The family
member of degree n is the trace of S(z)^n, a Laurent polynomial with exponent
range -n..n. This module computes it by

  trace_power_coeffs   polynomial-matrix powers of S (the defining route),
  brute_force_coeffs   full enumeration of the 2^n projection products,
  closed_form_*        scaled Chebyshev closed form for canonical matrices.

The three routes are kept algorithmically independent so each can serve as an
oracle for the others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import cheb_eval
from .core import DomainError, LaurentPoly, as_matrix, at_quarter_turn, check_angle, check_degree

__all__ = [
    "DegreeCapError",
    "EigenPair",
    "brute_force_coeffs",
    "closed_form_coeffs",
    "closed_form_eval",
    "eigen_split",
    "trace_power_coeffs",
    "transfer_matrix",
]

_BRUTE_FORCE_CAP = 24
_BLOCK_BITS = 16


class DegreeCapError(RuntimeError):
    """Brute-force enumeration requested beyond the supported degree."""


def transfer_matrix(z, mat) -> np.ndarray:
    """S(z) = M diag(z, 1/z) M* for nonzero z."""
    z = complex(z)
    if z == 0:
        raise DomainError("transfer matrix requires z != 0")
    m = as_matrix(mat)
    return as_matrix(m @ np.diag([z, 1.0 / z]) @ m.conj().T)


def _column_projections(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c1 = m[:, :1]
    c2 = m[:, 1:]
    return c1 @ c1.conj().T, c2 @ c2.conj().T


def _poly_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Entries are dense exponent vectors; convolution adds exponent offsets.
    la, lb = a.shape[2], b.shape[2]
    out = np.zeros((2, 2, la + lb - 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                out[i, j] += np.convolve(a[i, l], b[l, j])
    return out


def trace_power_coeffs(n: int, mat) -> LaurentPoly:
    """Coefficients of tr(S(z)^n) via iterated polynomial-matrix products.

    Entries of S have exponent support {-1, +1}, so every entry of S^k is
    supported on one parity class; off-parity coefficients stay exactly zero
    through the convolutions. A table beyond double range raises a
    DomainError naming the degree.
    """
    check_degree(n)
    m = as_matrix(mat)
    p1, p2 = _column_projections(m)
    base = np.zeros((2, 2, 3), dtype=complex)
    base[:, :, 2] = p1
    base[:, :, 0] = p2
    acc = base
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            acc = _poly_mat_mul(acc, base)
        coeffs = acc[0, 0] + acc[1, 1]
    if not np.all(np.isfinite(coeffs)):
        raise DomainError(f"trace-power coefficients of degree {n} overflow double range")
    return LaurentPoly(n, coeffs)


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
    p1, p2 = _column_projections(m)
    stack = np.stack([p2, p1])
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


def closed_form_eval(n: int, theta: float, z) -> complex:
    """Value of the canonical family member: 2 cos(2t)^n T_n((z + 1/z) / (2 cos 2t)).

    At angle 0 this reduces to z^n + z^-n; within rounding reach of pi/4 the
    rank-one limit (z + 1/z)^n is dispatched explicitly.
    """
    check_degree(n)
    check_angle(theta)
    z = complex(z)
    if z == 0:
        raise DomainError("evaluation requires z != 0")
    w = z + 1.0 / z
    if at_quarter_turn(theta):
        return w ** n
    c = math.cos(2.0 * theta)
    return 2.0 * c ** n * cheb_eval(n, w / (2.0 * c))


def closed_form_coeffs(n: int, theta: float) -> LaurentPoly:
    """Coefficient table of the canonical family member by termwise expansion.

    Expands 2^{-(n-1)} sum_j C(n, 2j) (z + 1/z)^{n-2j} (z^2 + z^-2 - 2cos 4t)^j,
    the substitution of the half-sum argument into the even-power Chebyshev
    expansion. Odd-parity slots are structural zeros and are pinned to exact
    zero after the expansion.
    """
    check_degree(n)
    check_angle(theta)
    if at_quarter_turn(theta):
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        coeffs[::2] = [math.comb(n, j) for j in range(n + 1)]
        return LaurentPoly(n, coeffs)
    half_sum = np.array([1.0, 0.0, 1.0])
    bracket = np.array([1.0, 0.0, -2.0 * math.cos(4.0 * theta), 0.0, 1.0])
    half_sum_pows = [np.array([1.0])]
    for _ in range(n):
        half_sum_pows.append(np.convolve(half_sum_pows[-1], half_sum))
    acc = np.zeros(2 * n + 1)
    bracket_pow = np.array([1.0])
    for j in range(n // 2 + 1):
        # Each term spans the full exponent range -n..n: (n-2j) + 2j = n.
        acc += math.comb(n, 2 * j) * np.convolve(half_sum_pows[n - 2 * j], bracket_pow)
        bracket_pow = np.convolve(bracket_pow, bracket)
    acc *= 0.5 ** (n - 1)
    coeffs = acc.astype(complex)
    coeffs[1::2] = 0.0
    return LaurentPoly(n, coeffs)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of the canonical pencil at a point, product cos(2 theta)^2."""

    lambda1: complex
    lambda2: complex


def eigen_split(z, theta: float) -> EigenPair:
    """Eigenvalues w +- sqrt(w^2 - cos(2t)^2) of S(z) with w = (z + 1/z)/2.

    The family value is lambda1^n + lambda2^n.
    """
    check_angle(theta)
    z = complex(z)
    if z == 0:
        raise DomainError("eigenvalue split requires z != 0")
    w = (z + 1.0 / z) / 2.0
    c = math.cos(2.0 * theta)
    s = cmath.sqrt(w * w - c * c)
    return EigenPair(w + s, w - s)
