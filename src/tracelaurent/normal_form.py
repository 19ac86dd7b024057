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


def _columns(m: np.ndarray):
    # The one read of a matrix from as_matrix: each column is divided, exactly, by the power
    # of two 2^e just above its largest |entry| (numpy's array abs) before any square or
    # product. Returns a' = |c1'|^2, b' = |c2'|^2, c' = |det M'|, the overlap
    # g' = <c1', c2'>, e1 and e2; bit for bit, |c1|^2 = a' 4^e1, |c2|^2 = b' 4^e2 and
    # |det M| = c' 2^(e1 + e2) wherever they fit, and <c1, c2> = g' 2^(e1 + e2).
    (p, q), (r, s) = m.tolist()
    (mp, mq), (mr, ms) = np.abs(m).tolist()
    e1, e2 = math.frexp(max(mp, mr))[1], math.frexp(max(mq, ms))[1]
    mp, mr, mq, ms = math.ldexp(mp, -e1), math.ldexp(mr, -e1), math.ldexp(mq, -e2), math.ldexp(ms, -e2)
    p, r = (complex(math.ldexp(v.real, -e1), math.ldexp(v.imag, -e1)) for v in (p, r))
    q, s = (complex(math.ldexp(v.real, -e2), math.ldexp(v.imag, -e2)) for v in (q, s))
    return mp * mp + mr * mr, mq * mq + ms * ms, abs(p * s - q * r), p.conjugate() * q + r.conjugate() * s, e1, e2


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
        for name, value in (("scale", self.scale), ("dilation", self.dilation)):
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise DomainError(f"normal-form {name} {value:.3g} leaves the normal double range")
        check_angle(self.angle)
        check_unit_phase(self.phase)


def normal_form(mat) -> NormalForm:
    """Reduce a generic matrix to its normal form parameters.

    The input is read once: its column norms give the scale and dilation. A
    zero column, or a scale or dilation outside the normal double range,
    raises a DomainError naming it. The same rescaled columns give the overlap
    g = <c1, c2> and |det M|; |g| and |det M| are |c1| |c2| times sin(2 angle)
    and cos(2 angle), so the angle is half their atan2: accurate to rounding up to
    pi/4, where the arcsine of the unit overlap alone loses half the digits,
    and in [0, pi/4] by construction. The phase is g / |g|; a zero overlap
    carries the conventional phase 1.
    """
    return _reduce(mat)[0]


def _generic_columns(mat):
    # The one read of a generic matrix: _columns of as_matrix(mat), a zero column rejected.
    columns = _columns(as_matrix(mat))
    if not (columns[0] > 0.0 and columns[1] > 0.0):
        raise DomainError("non-generic matrix: a column is zero")
    return columns


def _reduce(mat):
    # normal_form's one pass over _generic_columns, whose read matrix_roots' residuals share.
    a, b, det, overlap, e1, e2 = columns = _generic_columns(mat)
    with np.errstate(over="ignore"):  # NormalForm names a norm out of range
        r1, r2 = np.ldexp(np.sqrt([a, b]), [e1, e2]).tolist()
    mag = abs(overlap)
    phase = overlap / mag if mag > 0.0 else 1.0 + 0j
    return NormalForm(r1 * r2, r1 / r2, 0.5 * math.atan2(mag, det), phase), columns


def canonical_matrix(theta: float, phase=None) -> np.ndarray:
    """Unit-column representative [[cos, phase*sin], [conj(phase)*sin, cos]] of theta.

    It is the square root of the Gram matrix [[1, g], [conj(g), 1]] with column
    overlap g = phase * sin(2 theta). The default phase is 1, which gives the real
    symmetric [[cos theta, sin theta], [sin theta, cos theta]], bit for bit.
    """
    theta = float(theta)
    check_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    phase = 1.0 + 0j if phase is None else complex(phase)  # at phase 1 the real matrix, signed zeros too
    check_unit_phase(phase)
    return as_matrix([[c, phase * s], [phase.conjugate() * s, c]])
