"""The (scale, dilation, angle) normal form of a 2x2 matrix.

A 2x2 complex matrix with two nonzero columns reduces, for the purposes of
the whole trace-power family, to three real parameters:

  scale     product of the two column norms,
  dilation  ratio of the two column norms,
  angle     half the angle whose sine is the column overlap magnitude and
            whose cosine is |det| of the unit-column matrix, in [0, pi/4].

The canonical representative for an angle is the symmetric unit-column matrix
[[cos a, sin a], [sin a, cos a]], obtained as the positive square root of the
Gram matrix of the column-normalized input. The phase of the overlap is
carried along but never affects the trace-power family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_matrix, check_angle, check_unit_phase

__all__ = [
    "NormalForm",
    "canonical_matrix",
    "normal_form",
]


def _norms(m: np.ndarray) -> np.ndarray:
    # Each column is divided by the power of two 2^e just above its largest |entry|
    # before squaring, so no square under- or overflows. The rescale is exact: norms
    # that the plain sum of squares gets right come out bit for bit the same.
    mag = np.abs(m)
    e = np.frexp(mag.max(axis=0))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.sum(np.ldexp(mag, -e) ** 2, axis=0)), e)


@dataclass(frozen=True)
class NormalForm:
    """Parameter triple (scale, dilation, angle) plus the overlap phase.

    The trace-power family of the original matrix is recovered from the
    canonical matrix of `angle` by value scaling scale**degree and argument
    scaling by `dilation`. `phase` records the unit phase of the overlap; it
    is informational, the family does not depend on it.
    """

    scale: float
    dilation: float
    angle: float
    phase: complex

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if not self.dilation > 0.0:
            raise ValueError("dilation must be positive")
        check_angle(self.angle)
        check_unit_phase(self.phase)


def normal_form(mat) -> NormalForm:
    """Reduce a generic matrix to its normal form parameters.

    The input is read once: its column norms give the scale and dilation, and
    dividing by them gives the unit-column matrix U. A zero column, or a scale
    or dilation outside the normal double range, raises a DomainError naming
    it. |<u1, u2>| = sin(2 angle) and |det U| = cos(2 angle), so the angle is
    half their atan2: accurate to rounding up to pi/4, where the arcsine of
    the overlap alone loses half the digits, and in [0, pi/4] by
    construction, even where rounding lifts the overlap above 1. A zero
    overlap carries the conventional phase 1.
    """
    m = as_matrix(mat)
    norms = _norms(m)
    if not (norms[0] > 0.0 and norms[1] > 0.0):
        raise DomainError("non-generic matrix: a column is zero")
    r1, r2 = norms.tolist()
    scale, dilation = r1 * r2, r1 / r2
    for name, value in (("scale", scale), ("dilation", dilation)):
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise DomainError(f"normal-form {name} {value:.3g} leaves the normal double range")
    unit = m / norms
    overlap = complex(np.vdot(unit[:, 0], unit[:, 1]))
    mag = abs(overlap)
    det = abs(complex(unit[0, 0] * unit[1, 1] - unit[0, 1] * unit[1, 0]))
    phase = overlap / mag if mag > 0.0 else 1.0 + 0j
    return NormalForm(scale, dilation, 0.5 * math.atan2(mag, det), phase)


def canonical_matrix(theta: float, phase=None) -> np.ndarray:
    """Unit-column symmetric representative with column overlap sin(2 theta).

    With the default phase the matrix is real:
    [[cos theta, sin theta], [sin theta, cos theta]]. A unit `phase` rotates
    the off-diagonal pair to [cos, phase*sin; conj(phase)*sin, cos], which is
    the square root of the Gram matrix [[1, g], [conj(g), 1]] with
    g = phase * sin(2 theta).
    """
    theta = float(theta)
    check_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    if phase is None:
        return as_matrix([[c, s], [s, c]])
    phase = complex(phase)
    check_unit_phase(phase)
    return as_matrix([[c, phase * s], [phase.conjugate() * s, c]])
