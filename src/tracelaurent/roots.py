"""Root localization on unit-circle arcs via the scaled half-sum pullback.

For angles strictly below pi/4, the degree-n canonical family member has all
2n roots simple, on the unit circle, inside the open arcs where the principal
argument a satisfies 2 theta < |a| < pi - 2 theta. The roots are obtained
analytically by pulling the n Chebyshev roots back through the scaled
Joukowski map (z + 1/z) / (2 cos 2 theta); no iterative solver is involved.

The pullback fixes the layout of every report: roots[0::2] are the upper
roots with real parts ascending, and roots[1::2] their exact conjugates. The
family has real coefficients, so a conjugate pair shares one residual, which
is evaluated at the upper root only; and the roots are in angle order already,
so the minimum gap is read off neighbours in O(n), without a sort.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import QUARTER_TURN_EPS
from .core import BOUNDARY_TOL, DomainError, check_degree, check_finite, check_open_angle
from .chebyshev import cheb_roots
# closed_form_eval is not called here; the name stays bound because the
# benchmark's tracer test (perfbench/tests/test_bench_tracer.py) reads it.
from .family import _closed_form_values, _matrix_eval, closed_form_eval  # noqa: F401
from .normal_form import normal_form

__all__ = [
    "RootReport",
    "arc_membership",
    "canonical_roots",
    "matrix_roots",
]


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
    check_finite(z, "point z")
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
    # In pullback order the neighbours in angle are consecutive upper roots,
    # consecutive lower roots, and the two conjugate pairs that straddle the
    # real axis at angles ~pi (the first pair) and ~0 (the last pair).
    upper, lower = roots[0::2], roots[1::2]
    steps = np.concatenate([np.diff(upper), np.diff(lower), roots[[0, -2]] - roots[[1, -1]]])
    return float(np.abs(steps).min())


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


def _pullback(n: int, c: float) -> np.ndarray:
    # Each Chebyshev root zeta pulls back to the conjugate pair x +- iy on the
    # unit circle, x = c zeta with c = cos(2 theta), y = sqrt(1 - x^2), all at once.
    x = c * cheb_roots(n)
    y = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    roots = np.empty(2 * n, dtype=complex)
    roots[0::2] = x + 1j * y
    roots[1::2] = x - 1j * y
    return roots


def canonical_roots(n: int, theta: float) -> RootReport:
    """All 2n roots of the canonical family member, by Chebyshev pullback.

    The pullback is the one `matrix_roots` shares. Residuals report the
    closed-form magnitude at each computed root, from one evaluation over the
    n upper roots; each conjugate root shares its partner's value.
    """
    check_degree(n)
    c = check_open_angle(theta)
    roots = _pullback(n, c)
    residuals = np.repeat(np.abs(_closed_form_values(n, c, roots[0::2])), 2)
    return RootReport(roots, residuals, _min_gap(roots))


def matrix_roots(n: int, mat) -> RootReport:
    """Roots for a generic matrix, through its normal form.

    The canonical pullback at the normal form's angle, divided by the
    dilation, lands on the circle whose radius is the reciprocal of the
    dilation. An angle at pi/4 (by the same edge as `canonical_roots`) is
    rejected: there the polynomial degenerates to (z + 1/z)^n scaled, whose
    roots collapse onto +-i with multiplicity n, outside this module's
    simple-root contract. Residuals are
    |2 c^n T_n((a z + b/z) / 2c)| with a, b, c = |det M| of the input matrix, not
    its normal form, in one O(1)-per-root pass over the n upper roots while
    c^n fits in double range; each conjugate root shares its partner's value.
    """
    check_degree(n)
    nf = normal_form(mat)
    c = math.cos(2.0 * nf.angle)
    if c < QUARTER_TURN_EPS:
        raise DomainError(
            "angle at pi/4: roots collapse to +-i with multiplicity n; "
            "localization requires an angle strictly below pi/4"
        )
    roots = _pullback(n, c) / nf.dilation
    residuals = np.repeat(np.abs(_matrix_eval(n, mat, roots[0::2])), 2)
    return RootReport(roots, residuals, _min_gap(roots))
