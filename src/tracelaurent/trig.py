"""Restriction to the unit circle: cosine polynomials, roots, and the comb map.

On z = exp(it) the canonical family member, divided by 2 cos(2 theta)^n,
becomes the real cosine polynomial T_n(cos t / cos 2 theta). Its modulus is
at most 1 exactly on the periodic interval system

    P = union over integer p of [p pi + 2 theta, (p+1) pi - 2 theta],

and on the open interior of P the composition is cos(n u(t)) for the comb map
u defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _extrema, cheb_eval, cheb_roots
from .core import DomainError, check_degree, check_double_range, check_finite, check_open_angle
from .family import closed_form_coeffs

__all__ = [
    "IntervalSystem",
    "TrigPoly",
    "comb_height",
    "comb_map",
    "trig_coeffs",
    "trig_eval",
    "trig_roots",
    "unit_level_roots",
]


def trig_eval(n: int, theta: float, t):
    """T_n(cos t / cos 2 theta); real input gives a float, complex a complex.

    A NaN or infinite t raises a DomainError.
    """
    check_degree(n)
    c = check_open_angle(theta)
    check_finite(t, "point t")
    if isinstance(t, complex):
        return cheb_eval(n, cmath.cos(t) / c)
    return cheb_eval(n, math.cos(t) / c)


@dataclass(frozen=True)
class TrigPoly:
    """Real cosine polynomial sum of cos_coeffs[k] * cos(k t), k = 0..n."""

    n: int
    cos_coeffs: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        arr = np.array(self.cos_coeffs, dtype=float)
        if arr.shape != (self.n + 1,):
            raise ValueError(f"need {self.n + 1} cosine coefficients")
        check_finite(arr, "coefficients")
        arr.flags.writeable = False
        object.__setattr__(self, "cos_coeffs", arr)

    def eval(self, t):
        """Value at a real or complex t; a NaN or infinite t raises a DomainError."""
        if not isinstance(t, complex):
            t = float(t)
        check_finite(t, "point t")
        if isinstance(t, complex):
            return sum(
                ck * cmath.cos(k * t) for k, ck in enumerate(self.cos_coeffs)
            )
        return float(
            sum(ck * math.cos(k * t) for k, ck in enumerate(self.cos_coeffs))
        )


def trig_coeffs(n: int, theta: float) -> TrigPoly:
    """Cosine coefficients of the circle restriction.

    The Laurent coefficients p_k over c^n, c = cos(2 theta), with p_0 halved:
    the leading one is exactly 1 / c^n, the others are accurate relative to
    the largest. Parity zeros carry over exactly; a table beyond double
    range raises a DomainError.
    """
    check_degree(n)
    c = check_open_angle(theta)
    poly = closed_form_coeffs(n, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        cos_coeffs = poly.coeffs.real[n:] * np.float64(c) ** -n
    cos_coeffs[0] /= 2.0
    check_double_range(cos_coeffs, "cosine coefficients", n)
    return TrigPoly(n, cos_coeffs)


@dataclass(frozen=True)
class IntervalSystem:
    """The periodic interval system with a materialized index window.

    Membership queries are periodic and hold for any real t; the window
    [p_min, p_max] only selects which intervals `intervals` lists.
    """

    theta: float
    p_min: int
    p_max: int

    def __post_init__(self):
        check_open_angle(self.theta)
        if self.p_min > self.p_max:
            raise ValueError("p_min must not exceed p_max")

    def intervals(self) -> list[tuple[float, float]]:
        """Closed intervals [p pi + 2 theta, (p+1) pi - 2 theta] in the window."""
        two = 2.0 * self.theta
        return [
            (p * math.pi + two, (p + 1) * math.pi - two)
            for p in range(self.p_min, self.p_max + 1)
        ]

    def contains(self, t: float, open: bool = False) -> bool:
        """Periodic membership; `open` restricts to the interior."""
        r = float(t) % math.pi
        lo, hi = 2.0 * self.theta, math.pi - 2.0 * self.theta
        if open:
            return lo < r < hi
        return lo <= r <= hi

    def boundary_distance(self, t: float) -> float:
        """Distance from t to the nearest interval endpoint, periodic."""
        r = float(t) % math.pi
        out = math.inf
        for endpoint in (2.0 * self.theta, math.pi - 2.0 * self.theta):
            d = abs(r - endpoint)
            out = min(out, d, math.pi - d)
        return out

    def fundamental(self) -> tuple[float, float]:
        """The period-0 interval [2 theta, pi - 2 theta]."""
        return 2.0 * self.theta, math.pi - 2.0 * self.theta


def trig_roots(n: int, theta: float) -> np.ndarray:
    """Roots of the cosine polynomial in the fundamental interval, ascending.

    Each Chebyshev root zeta_j pulls back to arccos(cos(2 theta) zeta_j),
    which lies strictly inside (2 theta, pi - 2 theta), in one array pass.
    All n roots are simple.
    """
    check_degree(n)
    c = check_open_angle(theta)
    return np.arccos(c * cheb_roots(n))[::-1]


def unit_level_roots(n: int, theta: float) -> list[tuple[float, int, int]]:
    """Roots of (cosine polynomial)^2 = 1 in the fundamental interval.

    Returns (root, level, multiplicity) triples sorted by root: the n + 1
    points t_k = arccos(cos(2 theta) cos(k pi/n)), k = 0..n, at level
    (-1)^k, with multiplicity 2 inside and 1 at the band endpoints t_0 and
    t_n, which are exactly 2 theta and pi - 2 theta. Total multiplicity is n
    per level, 2n per period, at every degree.
    """
    check_degree(n)
    c = check_open_angle(theta)
    x, levels, mult = _extrema(n)
    t = np.arccos(c * x)
    t[0], t[n] = 2.0 * theta, math.pi - 2.0 * theta
    return list(zip(t.tolist(), levels.tolist(), mult.tolist()))


def comb_height(theta: float) -> float:
    """Common height arccosh(1 / cos 2 theta) of the comb teeth."""
    return math.acosh(1.0 / check_open_angle(theta))


def comb_map(t, theta: float) -> complex:
    """The comb coordinate u(t) = i ln(Phi + sqrt(Phi^2 - 1)), Phi = cos t / cos 2 theta.

    Defined on the closed upper half-plane. Branches: principal logarithm,
    square root continuous from above its cut; on real t with |Phi| <= 1 the
    value is computed directly as -arccos(Phi), which is the real branch on
    the interval system. Normalizations realized by this choice:
    u(0) = i * comb_height(theta), and u(t)/t -> 1 up the imaginary axis.
    The defining identity cos(u(t)) = Phi(t) holds for every branch choice,
    since (V + 1/V)/2 is unchanged under V -> 1/V. Where Phi + sqrt(Phi^2 - 1)
    cancels (Phi < -1 and nearby), V is formed as the equal 1/(Phi - sqrt(...)).

    The value depends on t only through Phi, so this realization repeats with
    period 2 pi in Re t; gap segments with Phi < -1 land on the reflected
    side of their slit. A NaN or infinite t raises a DomainError.
    """
    c = check_open_angle(theta)
    tc = complex(t)
    if tc.imag < 0.0:
        raise DomainError("comb map is defined for Im t >= 0")
    if tc.imag == 0.0:
        try:
            ratio = math.cos(tc.real) / c
        except ValueError:  # cos(+-inf): left to the finiteness check below
            ratio = math.nan
        if abs(ratio) <= 1.0:
            return complex(-math.acos(ratio))
        root = math.sqrt(ratio * ratio - 1.0)
        if ratio >= 1.0:
            return 1j * math.log(ratio + root)
        if ratio < -1.0:
            return 1j * cmath.log(complex(1.0 / (ratio - root), 0.0))
    # A finite real t has returned above; a NaN ratio fails every comparison.
    if not cmath.isfinite(tc):
        raise DomainError("point t must be finite")
    w = cmath.cos(tc) / c
    q = w * w - 1.0
    if q.imag == 0.0:
        q = complex(q.real, 0.0)
    root = cmath.sqrt(q)
    up, down = w + root, w - root
    return 1j * cmath.log(up if abs(up) >= abs(down) else 1.0 / down)
