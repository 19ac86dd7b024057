"""Shared value types, domain validators and named tolerances.

Holds 2x2 complex matrices, dense Laurent coefficient vectors, the one
validator per input domain (degree, closed angle, open angle, unit phase,
finite values, evaluation points), the one read-only-array constructor and
every numerical tolerance of the package. The angle validators return the
cos(2 theta) they compute. These stay out of `__all__`; the other modules
import them by name.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["DomainError", "LaurentPoly", "as_matrix", "laurent_close"]

# Tolerances. No other module holds a float literal below 1e-6.
# An angle counts as pi/4 when cos(2 theta) falls below QUARTER_TURN_EPS, that
# is within ~5e-10 of pi/4; the closed form's rank-one switch, the open-angle
# validator and matrix_roots all read this one edge.
QUARTER_TURN_EPS = 1e-9
ANGLE_SLACK = 1e-12  # rounding slack above pi/4 in the closed-angle validator
UNIT_PHASE_TOL = 1e-12  # allowed deviation of |phase| from 1
BOUNDARY_TOL = 1e-10  # off-circle and arc-endpoint slack in arc_membership
VERIFY_TOL = 1e-10  # default comparison tolerance of the CLI's --verify


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def _is_integer(k) -> bool:
    # Plain int first: the common case, and far cheaper than the Integral ABC check.
    # bool is an Integral too, but True would act as a mask or as 1, not as a number.
    return type(k) is int or not isinstance(k, bool) and isinstance(k, numbers.Integral)


def check_degree(n: int):
    if not _is_integer(n) or n < 1:
        raise ValueError("degree n must be a positive integer")


def check_angle(theta: float) -> float:
    """Validate an angle in [0, pi/4] and return cos(2 theta)."""
    if not 0.0 <= theta <= math.pi / 4 + ANGLE_SLACK:
        raise DomainError("angle must lie in [0, pi/4]")
    return math.cos(2.0 * theta)


def check_open_angle(theta: float) -> float:
    """Validate an angle in [0, pi/4) and return cos(2 theta).

    The arcs close up and the pullback degenerates at the quarter turn, where
    cos(2 theta) falls below QUARTER_TURN_EPS.
    """
    if 0.0 <= theta < math.pi / 4:
        c = math.cos(2.0 * theta)
        if c >= QUARTER_TURN_EPS:
            return c
    raise DomainError("angle must lie in [0, pi/4)")


def check_unit_phase(phase: complex):
    if not abs(abs(phase) - 1.0) <= UNIT_PHASE_TOL:
        raise ValueError("phase must have unit magnitude")


def check_finite(values, what: str):
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite")


def check_double_range(values, what: str, n: int, nonzero: bool = False):
    # Every input has passed check_finite, so a non-finite result overflowed. A
    # `nonzero` table (one whose matrix has a nonzero column, so its edge entries
    # |c1|^2n, |c2|^2n are not both 0) underflowed if all of it is below the normal range.
    if not np.isfinite(values).all():
        raise DomainError(f"{what} of degree {n} overflow double range")
    if nonzero and np.abs(values).max() < sys.float_info.min:
        raise DomainError(f"{what} of degree {n} underflow double range")


def _frozen(values, dtype, shape, what: str) -> np.ndarray:
    # The one constructor of the package's read-only arrays: a copy of `values` as
    # `dtype`, of exactly `shape`, with no NaN or Inf, that no caller can write to.
    out = np.array(values, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"{what} need shape {shape}, got shape {out.shape}")
    check_finite(out, what)
    out.flags.writeable = False
    return out


def check_points(z):
    """The finite nonzero evaluation points z as a 1-d complex array, and z's shape."""
    shape = np.shape(z)
    # A scalar runs as a one-point array, out of place: numpy's scalar and
    # in-place complex products round differently from its array loop.
    points = np.array(z, dtype=complex).ravel()
    if np.any(points == 0):
        raise DomainError("evaluation requires z != 0")
    check_finite(points, "evaluation points")
    return points, shape


def as_matrix(mat) -> np.ndarray:
    """Coerce an array-like to a read-only 2x2 complex matrix.

    Non-finite entries are rejected; no NaN or Inf is admitted into any
    public constructor.
    """
    return _frozen(mat, complex, (2, 2), "matrix entries")


@dataclass(frozen=True)
class LaurentPoly:
    """Dense Laurent polynomial sum of coeffs[k] * z**k over k = -n..n.

    `coeffs` holds 2n+1 complex values ordered from exponent -n upward.
    Instances are immutable; the coefficient array is stored read-only, so
    values are safe to share across threads.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        object.__setattr__(self, "coeffs", _frozen(self.coeffs, complex, (2 * self.n + 1,), "coefficients"))

    def __getitem__(self, k: int) -> complex:
        """Coefficient at signed integer exponent k; any other k raises a ValueError."""
        if not _is_integer(k) or not -self.n <= k <= self.n:
            raise ValueError(f"exponent {k!r} is not an integer in [-{self.n}, {self.n}]")
        return complex(self.coeffs[k + self.n])

    def terms(self):
        """Iterate (exponent, coefficient) pairs, exponents ascending."""
        for i, value in enumerate(self.coeffs):
            yield i - self.n, complex(value)

    def eval(self, z):
        """Evaluate at one nonzero point or at an array of them.

        A scalar z gives a complex, an array an ndarray of its shape; every
        point must be finite and nonzero. Two `np.polyval` Horner passes, over
        the non-negative powers in z and the negative powers in 1/z, keep large
        and small |z| from overflowing artificially; each steps once per
        coefficient over all points together. Values beyond double range raise
        a DomainError naming the degree.
        """
        z, shape = check_points(z)
        c, n = self.coeffs, self.n
        with np.errstate(over="ignore", invalid="ignore"):
            w = 1 / z
            out = np.polyval(c[n:][::-1], z) + np.polyval(c[:n], w) * w
        check_double_range(out, "Laurent polynomial values", n)
        return complex(out[0]) if shape == () else out.reshape(shape)


def laurent_close(p: LaurentPoly, q: LaurentPoly, tol: float) -> bool:
    """Max-norm coefficient comparison scaled by the magnitude of p.

    Returns True when max_k |p_k - q_k| <= tol * (1 + max_k |p_k|).
    Both arguments must carry the same degree bound.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if p.n != q.n:
        raise ValueError(f"degree bounds differ: {p.n} vs {q.n}")
    diff = float(np.max(np.abs(p.coeffs - q.coeffs)))
    return diff <= tol * (1.0 + float(np.max(np.abs(p.coeffs))))
