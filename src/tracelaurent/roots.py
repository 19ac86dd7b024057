"""Root localization on unit-circle arcs via the scaled half-sum pullback.

For angles strictly below pi/4, the degree-n canonical family member has all
2n roots simple, on the unit circle, inside the open arcs where the principal
argument a satisfies 2 theta < |a| < pi - 2 theta. The roots are obtained
analytically by pulling the n Chebyshev roots back through the scaled Joukowski
map (z + 1/z) / (2 cos 2 theta), free of cancellation, with no iterative solver.

The pullback fixes the layout of every report: roots[0::2] are the upper
roots with real parts ascending, and roots[1::2] their exact conjugates. The
family has real coefficients, so a conjugate pair shares one residual, which
is evaluated at the upper root only; and the roots are in angle order already,
so the minimum gap is read off neighbours in O(n), without a sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BOUNDARY_TOL, QUARTER_TURN_EPS, DomainError, _frozen, check_degree, check_open_angle, check_points
from .chebyshev import cheb_roots
from .family import _family_values
# closed_form_eval is not called here; the name stays bound because the
# benchmark's tracer test (perfbench/tests/test_bench_tracer.py) reads it.
from .family import closed_form_eval  # noqa: F401
from .normal_form import _reduce

__all__ = [
    "RootReport",
    "arc_membership",
    "canonical_roots",
    "matrix_roots",
]


def arc_membership(z, theta: float):
    """Classify points, in one pass, against the two open localization arcs.

    Returns "open_plus", "open_minus", "boundary" or "outside": a str for a
    scalar z, a string array of z's shape for an array. Points off the unit
    circle beyond 1e-10 are outside; on-circle points within 1e-10 of an arc
    endpoint are boundary; any other point whose principal argument's modulus
    lies in (2 theta, pi - 2 theta) is on an open arc, picked by the argument's
    sign; the rest are outside. Every point must be finite and nonzero.
    """
    check_open_angle(theta)
    points, shape = check_points(z)
    a = np.angle(points)
    r, lo, hi = np.abs(a), 2.0 * theta, math.pi - 2.0 * theta
    # Later labels win: an open arc by the argument's sign, then boundary, then off-circle.
    labels = np.where((lo < r) & (r < hi), np.where(a > 0.0, "open_plus", "open_minus"), "outside")
    labels[(np.abs(r - lo) <= BOUNDARY_TOL) | (np.abs(r - hi) <= BOUNDARY_TOL)] = "boundary"
    labels[np.abs(np.abs(points) - 1.0) > BOUNDARY_TOL] = "outside"
    return str(labels[0]) if shape == () else labels.reshape(shape)


def _min_gap(roots: np.ndarray) -> float:
    # In pullback order the neighbours in angle are consecutive upper roots, their exact conjugates
    # (the same gaps, bit for bit), and the first and last conjugate pairs, each 2 |Im z| apart.
    upper = roots[0::2]
    return float(np.concatenate([np.abs(np.diff(upper)), 2.0 * np.abs(upper[[0, -1]].imag)]).min())


@dataclass(frozen=True)
class RootReport:
    """Roots with per-root residuals and the minimum pairwise separation.

    `roots` and `residuals` are read-only arrays of one shape, and finite.
    `angle` and `dilation` are the normal-form parameters the pullback used:
    (theta, 1.0) from `canonical_roots`, the normal form's from `matrix_roots`.
    Each root z corresponds to the canonical root z * dilation at that angle.
    """

    roots: np.ndarray
    residuals: np.ndarray
    min_pairwise_gap: float
    angle: float
    dilation: float

    def __post_init__(self):
        shape = np.shape(self.roots)
        for name, dtype in (("roots", complex), ("residuals", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, shape, name))


def _pullback(n: int, theta: float, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (x, y) of the upper preimages x + iy on the unit circle of zeta = cos(m pi / 2n), the n roots (m odd)
    # or n + 1 extrema (m even) of T_n: x = cos(2 theta) zeta, y = sqrt(1 - x^2) = hypot(sin a, sin(2 theta) zeta),
    # a = min(m, 2n - m) pi / 2n folded into [0, pi/2], so nothing cancels next to +-1; 2n - m is m reversed.
    m = np.arange(2 * n - 1, 0, -2) if zeta.size == n else np.arange(0, 2 * n + 1, 2)
    y = np.hypot(np.sin(np.minimum(m, m[::-1]) * (math.pi / (2 * n))), math.sin(2.0 * theta) * zeta)
    return math.cos(2.0 * theta) * zeta, y


def _conjugate_pairs(x, y) -> np.ndarray:
    # The report layout: x + iy at even indices, x - iy at odd ones.
    return np.column_stack([x, y, x, -y]).view(complex).ravel()


def canonical_roots(n: int, theta: float) -> RootReport:
    """All 2n roots of the canonical family member, by Chebyshev pullback.

    The pullback is the one `matrix_roots` shares. Residuals report the
    closed-form magnitude at each computed root, from one evaluation over the
    n upper roots; each conjugate root shares its partner's value.
    """
    check_degree(n)
    c = check_open_angle(theta)
    roots = _conjugate_pairs(*_pullback(n, theta, cheb_roots(n)))
    residuals = np.repeat(np.abs(_family_values(n, 1.0, 1.0, c, roots[0::2])), 2)
    return RootReport(roots, residuals, _min_gap(roots), float(theta), 1.0)


def matrix_roots(n: int, mat) -> RootReport:
    """Roots for a generic matrix, through its normal form.

    The canonical pullback at the normal form's angle, divided by the
    dilation, lands on the circle whose radius is the reciprocal of the
    dilation. An angle at pi/4 (by the same edge as `canonical_roots`) is
    rejected: there the polynomial degenerates to (z + 1/z)^n scaled, whose
    roots collapse onto +-i with multiplicity n, outside this module's
    simple-root contract. Residuals are |L_n(z)| = |2 c^n T_n((a z + b/z) / 2c)|
    of the input matrix's a = |c1|^2, b = |c2|^2 and c = |det M|, not of its
    normal form, in one O(1)-per-root pass over the n upper roots while c^n fits
    in double range, on the balanced pencil L_n(2^t z; a / 2^t, 2^t b, c), 2^t <=
    dilation < 2^(t+1); each conjugate root shares its partner's value.
    """
    check_degree(n)
    nf, (a, b, det, _, e1, e2) = _reduce(mat)
    if math.cos(2.0 * nf.angle) < QUARTER_TURN_EPS:
        raise DomainError(
            "angle at pi/4: roots collapse to +-i with multiplicity n; "
            "localization requires an angle strictly below pi/4"
        )
    roots = _conjugate_pairs(*_pullback(n, nf.angle, cheb_roots(n))) / nf.dilation
    t = math.frexp(nf.dilation)[1] - 1
    with np.errstate(over="ignore"):
        pencil = np.ldexp([a, b, det], [2 * e1 - t, 2 * e2 + t, e1 + e2])
    residuals = np.repeat(np.abs(_family_values(n, *pencil, roots[0::2] * 2.0 ** t)), 2)
    return RootReport(roots, residuals, _min_gap(roots), nf.angle, nf.dilation)
