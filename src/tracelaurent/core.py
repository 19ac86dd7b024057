"""Shared value types, domain validators and named tolerances.

Holds 2x2 complex matrices, dense Laurent coefficient vectors, the one
validator per input domain (degree, closed angle, open angle, unit phase,
finite values) and every numerical tolerance of the package. The angle
validators return the cos(2 theta) they compute. The validators and
tolerances stay out of `__all__`; the other modules import them by name.
"""

from __future__ import annotations

import math
import numbers
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
UNIT_COLUMN_TOL = 1e-9  # allowed deviation of a column norm from 1 in column_overlap
MIN_COLUMN_NORM = 1e-300  # a column counts as nonzero above this norm
BOUNDARY_TOL = 1e-10  # off-circle and arc-endpoint slack in arc_membership
VERIFY_TOL = 1e-10  # default comparison tolerance of the CLI's --verify


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def check_degree(n: int):
    # Plain int first: the common case, and far cheaper than the Integral ABC check.
    # bool is an Integral too, but True would index like a mask, not a degree.
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral)) or n < 1:
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
    if abs(abs(phase) - 1.0) > UNIT_PHASE_TOL:
        raise ValueError("phase must have unit magnitude")


def check_finite(values, what: str):
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite")


def check_double_range(values, what: str, n: int):
    # Every input has passed check_finite, so a non-finite result overflowed.
    if not np.isfinite(values).all():
        raise DomainError(f"{what} of degree {n} overflow double range")


def as_matrix(mat) -> np.ndarray:
    """Coerce an array-like to a read-only 2x2 complex matrix.

    Non-finite entries are rejected; no NaN or Inf is admitted into any
    public constructor.
    """
    out = np.array(mat, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {out.shape}")
    check_finite(out, "matrix entries")
    out.flags.writeable = False
    return out


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
        arr = np.array(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.n + 1,):
            raise ValueError(
                f"need {2 * self.n + 1} coefficients for degree bound {self.n}, "
                f"got shape {arr.shape}"
            )
        check_finite(arr, "coefficients")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_terms(cls, n: int, terms: dict[int, complex]) -> "LaurentPoly":
        """Build from a sparse {exponent: coefficient} mapping."""
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        for k, value in terms.items():
            if not -n <= k <= n:
                raise ValueError(f"exponent {k} outside [-{n}, {n}]")
            coeffs[k + n] = value
        return cls(n, coeffs)

    def __getitem__(self, k: int) -> complex:
        """Coefficient at signed exponent k."""
        if not -self.n <= k <= self.n:
            raise ValueError(f"exponent {k} outside [-{self.n}, {self.n}]")
        return complex(self.coeffs[k + self.n])

    def terms(self):
        """Iterate (exponent, coefficient) pairs, exponents ascending."""
        for i, value in enumerate(self.coeffs):
            yield i - self.n, complex(value)

    def eval(self, z):
        """Evaluate at one nonzero point or at an array of them.

        A scalar z gives a complex, an array an ndarray of its shape; every
        point must be finite and nonzero. Split into a non-negative-power
        Horner pass in z and a negative-power Horner pass in 1/z, so neither
        large nor small |z| overflows artificially. Each pass steps once per coefficient over
        all points together, in memory proportional to the number of points.
        Values beyond double range raise a DomainError naming the degree.
        """
        shape = np.shape(z)
        # A scalar runs as a one-point array, out of place: numpy's scalar and
        # in-place complex products round differently from its array loop.
        z = np.array(z, dtype=complex, ndmin=1)
        if np.any(z == 0):
            raise DomainError("Laurent polynomial evaluation requires z != 0")
        check_finite(z, "evaluation points")
        c = self.coeffs
        n = self.n
        with np.errstate(over="ignore", invalid="ignore"):
            pos = np.full_like(z, c[2 * n])
            for i in range(2 * n - 1, n - 1, -1):
                pos = pos * z + c[i]
            w = 1 / z
            neg = np.full_like(z, c[0])
            for i in range(1, n):
                neg = neg * w + c[i]
            out = pos + neg * w
        check_double_range(out, "Laurent polynomial values", n)
        return complex(out[0]) if shape == () else out.reshape(shape)

    def __call__(self, z):
        return self.eval(z)


def laurent_close(p: LaurentPoly, q: LaurentPoly, tol: float) -> bool:
    """Max-norm coefficient comparison scaled by the magnitude of p.

    Returns True when max_k |p_k - q_k| <= tol * (1 + max_k |p_k|).
    Both arguments must carry the same degree bound.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p.n != q.n:
        raise ValueError(f"degree bounds differ: {p.n} vs {q.n}")
    diff = float(np.max(np.abs(p.coeffs - q.coeffs)))
    return diff <= tol * (1.0 + float(np.max(np.abs(p.coeffs))))
