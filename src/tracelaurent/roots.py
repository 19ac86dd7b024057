"""Root localization on unit-circle arcs via the scaled half-sum pullback.

For angles strictly below pi/4, the degree-n canonical family member has all
2n roots simple, on the unit circle, inside the open arcs where the principal
argument a satisfies 2 theta < |a| < pi - 2 theta. The roots are obtained
analytically by pulling the n Chebyshev roots back through the scaled
Joukowski map (z + 1/z) / (2 cos 2 theta); no iterative solver is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import BOUNDARY_TOL, DomainError, as_matrix, at_quarter_turn, check_degree, check_open_angle
from .chebyshev import cheb_roots
from .family import closed_form_eval, trace_power_coeffs
from .normal_form import normal_form

__all__ = [
    "RootReport",
    "arc_membership",
    "canonical_roots",
    "matrix_roots",
    "scaled_joukowski",
    "scaled_joukowski_preimage",
]


def scaled_joukowski(z, theta: float) -> complex:
    """(z + 1/z) / (2 cos 2 theta) for nonzero z."""
    check_open_angle(theta)
    z = complex(z)
    if z == 0:
        raise DomainError("map requires z != 0")
    return (z + 1.0 / z) / (2.0 * math.cos(2.0 * theta))


def scaled_joukowski_preimage(w, theta: float) -> tuple[complex, complex]:
    """The two solutions of (z + 1/z) / (2 cos 2 theta) = w.

    Solves z^2 - 2 w cos(2 theta) z + 1 = 0; the two preimages multiply to 1.
    For real w with |w cos 2 theta| <= 1 they form an exact conjugate pair on
    the unit circle.
    """
    check_open_angle(theta)
    w = complex(w)
    wc = w * math.cos(2.0 * theta)
    if wc.imag == 0.0 and abs(wc.real) <= 1.0:
        x = wc.real
        y = math.sqrt(max(1.0 - x * x, 0.0))
        return complex(x, y), complex(x, -y)
    s = cmath.sqrt(wc * wc - 1.0)
    return wc + s, wc - s


def arc_membership(z, theta: float) -> str:
    """Classify a point against the two open localization arcs.

    Returns one of "open_plus", "open_minus", "boundary", "outside". Points
    off the unit circle beyond 1e-10 are outside; on-circle points within
    1e-10 of an arc endpoint are boundary; otherwise strict containment of
    the principal argument (or its negative) in (2 theta, pi - 2 theta)
    decides.
    """
    check_open_angle(theta)
    z = complex(z)
    if z == 0:
        raise DomainError("classification requires z != 0")
    if abs(abs(z) - 1.0) > BOUNDARY_TOL:
        return "outside"
    a = cmath.phase(z)
    lo, hi = 2.0 * theta, math.pi - 2.0 * theta
    boundary = False
    for phi, label in ((a, "open_plus"), (-a, "open_minus")):
        if lo + BOUNDARY_TOL < phi < hi - BOUNDARY_TOL:
            return label
        if abs(phi - lo) <= BOUNDARY_TOL or abs(phi - hi) <= BOUNDARY_TOL:
            boundary = True
    return "boundary" if boundary else "outside"


def _min_gap(roots: np.ndarray) -> float:
    # The roots lie on one circle, so the closest pair is adjacent in angle.
    ring = roots[np.argsort(np.angle(roots))]
    return float(np.abs(ring - np.roll(ring, 1)).min())


@dataclass(frozen=True)
class RootReport:
    """Roots with per-root residuals and the minimum pairwise separation."""

    roots: np.ndarray
    residuals: np.ndarray
    min_pairwise_gap: float

    def __post_init__(self):
        roots = np.array(self.roots, dtype=complex)
        residuals = np.array(self.residuals, dtype=float)
        if roots.shape != residuals.shape:
            raise ValueError("roots and residuals must align")
        roots.flags.writeable = False
        residuals.flags.writeable = False
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "residuals", residuals)


def canonical_roots(n: int, theta: float) -> RootReport:
    """All 2n roots of the canonical family member, by Chebyshev pullback.

    Each Chebyshev root pulls back to a conjugate pair x +- iy on the unit
    circle, x = cos(2 theta) times the root, y = sqrt(1 - x^2); all pairs are
    formed at once. Residuals report the closed-form magnitude at each
    computed root, from one evaluation over all of them.
    """
    check_degree(n)
    check_open_angle(theta)
    x = math.cos(2.0 * theta) * cheb_roots(n)
    y = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    roots = np.empty(2 * n, dtype=complex)
    roots[0::2] = x + 1j * y
    roots[1::2] = x - 1j * y
    residuals = np.abs(closed_form_eval(n, theta, roots))
    return RootReport(roots, residuals, _min_gap(roots))


def matrix_roots(n: int, mat) -> RootReport:
    """Roots for a generic matrix, through its normal form.

    The canonical roots are divided by the dilation, landing on the circle
    whose radius is the reciprocal of the dilation. An angle at pi/4 (by
    the same edge as `canonical_roots`) is rejected: there the polynomial
    degenerates to (z + 1/z)^n scaled, whose roots collapse onto +-i with
    multiplicity n, outside this module's simple-root contract. Residuals are measured
    against the trace-power coefficients of the input matrix itself, in one
    evaluation over all roots.
    """
    check_degree(n)
    nf = normal_form(mat)
    if at_quarter_turn(nf.angle):
        raise DomainError(
            "angle at pi/4: roots collapse to +-i with multiplicity n; "
            "localization requires an angle strictly below pi/4"
        )
    canonical = canonical_roots(n, nf.angle)
    roots = canonical.roots / nf.dilation
    residuals = np.abs(trace_power_coeffs(n, as_matrix(mat)).eval(roots))
    return RootReport(roots, residuals, _min_gap(roots))
