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

from .chebyshev import _extrema, cheb_roots
from .core import DomainError, _frozen, _is_integer, check_degree, check_double_range, check_finite, check_open_angle
from .family import _canonical_coeffs
from .roots import _pullback

__all__ = [
    "IntervalSystem",
    "TrigPoly",
    "comb_height",
    "comb_map",
    "trig_coeffs",
    "trig_roots",
    "unit_level_roots",
]


@dataclass(frozen=True)
class TrigPoly:
    """Real cosine polynomial sum of cos_coeffs[k] * cos(k t), k = 0..n."""

    n: int
    cos_coeffs: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        object.__setattr__(self, "cos_coeffs", _frozen(self.cos_coeffs, float, (self.n + 1,), "cosine coefficients"))

    def eval(self, t):
        """Value at real or complex t: scalar in, scalar out; array in, array out.

        One numpy pass sums cos_coeffs[k] cos(k t) over k. A NaN or infinite t
        raises a DomainError, and so does a value beyond double range.
        """
        check_finite(t, "point t")
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.cos(np.multiply.outer(t, np.arange(self.n + 1))) @ self.cos_coeffs
        check_double_range(values, "cosine polynomial values", self.n)
        return values.item() if np.ndim(values) == 0 else values


def trig_coeffs(n: int, theta: float) -> TrigPoly:
    """Cosine coefficients of the circle restriction: p_k / c^n, c = cos 2 theta, p_0 halved.

    Each carries the table's own small relative error plus up to n eps / 2 from c:
    c is rounded to a double and divided out n times (6.2e-14 measured at n = 1024,
    ~4e-13 at the top of the accepted range). Parity zeros are exact; a table beyond
    double range raises a DomainError.
    """
    check_degree(n)
    c = check_open_angle(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        cos_coeffs = _canonical_coeffs(n, c, math.sin(2.0 * theta))[n:] * np.float64(c) ** -n
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
        if not (_is_integer(self.p_min) and _is_integer(self.p_max) and self.p_min <= self.p_max):
            raise ValueError("p_min and p_max must be integers, p_min not exceeding p_max")

    def intervals(self) -> list[tuple[float, float]]:
        """Closed intervals [p pi + 2 theta, (p+1) pi - 2 theta] in the window."""
        two = 2.0 * self.theta
        return [
            (p * math.pi + two, (p + 1) * math.pi - two)
            for p in range(self.p_min, self.p_max + 1)
        ]

    def contains(self, t: float, open: bool = False) -> bool:
        """Periodic membership; `open` restricts to the interior. A NaN or infinite t raises."""
        check_finite(t, "point t")
        r = float(t) % math.pi
        lo, hi = 2.0 * self.theta, math.pi - 2.0 * self.theta
        if open:
            return lo < r < hi
        return lo <= r <= hi


def trig_roots(n: int, theta: float) -> np.ndarray:
    """Roots of the cosine polynomial in the fundamental interval, ascending.

    Each Chebyshev root pulls back to the argument atan2(y, x) of its upper
    root x + iy in `canonical_roots`, strictly inside (2 theta, pi - 2 theta),
    in one array pass. All n roots are simple.
    """
    check_degree(n)
    check_open_angle(theta)
    x, y = _pullback(n, theta, cheb_roots(n))
    return np.arctan2(y, x)[::-1]


def unit_level_roots(n: int, theta: float) -> list[tuple[float, int, int]]:
    """Roots of (cosine polynomial)^2 = 1 in the fundamental interval.

    Returns (root, level, multiplicity) triples sorted by root: the n + 1
    points t_k = arccos(cos(2 theta) cos(k pi/n)), k = 0..n, pulled back as
    `trig_roots` pulls back its roots, at level (-1)^k, with multiplicity 2
    inside and 1 at the band endpoints t_0 and t_n, which are exactly 2 theta
    and pi - 2 theta. Total multiplicity is n per level, 2n per period, at every degree.
    """
    check_degree(n)
    check_open_angle(theta)
    zeta, levels, mult = _extrema(n)
    x, y = _pullback(n, theta, zeta)
    t = np.arctan2(y, x)
    t[0], t[n] = 2.0 * theta, math.pi - 2.0 * theta
    return list(zip(t.tolist(), levels.tolist(), mult.tolist()))


def comb_height(theta: float) -> float:
    """Common height acosh(1 / cos 2 theta) of the comb teeth."""
    return math.acosh(1.0 / check_open_angle(theta))


def comb_map(t, theta: float) -> complex:
    """The comb coordinate u(t) = i acosh(Phi), Phi = cos t / cos 2 theta, principal acosh.

    Defined on the closed upper half-plane, where Im u >= 0. A real t carries
    Phi as the complex number (Phi, +0.0), on the upper side of acosh's cut,
    so u is even on the real axis and exactly real on the interval system,
    from u(2 theta) = 0 through u(pi/2) = -pi/2 to u(pi - 2 theta) = -pi. Gap
    points with Phi < -1 land on the slit: Re u = -pi and
    0 < Im u <= comb_height(theta). u(0) = i * comb_height(theta), and
    u(t)/t -> 1 up the imaginary axis. cos(u(t)) = Phi(t) by construction.

    u is analytic on the open strip |Re t| < pi and repeats with period 2 pi
    in Re t, with its one seam at Re t = +-pi. A NaN or infinite t raises a
    DomainError, and so does a t whose cos t / cos 2 theta overflows double
    range, near Im t = 710 + ln cos 2 theta.
    """
    c = check_open_angle(theta)
    tc = complex(t)
    y = tc.imag
    if y < 0.0:
        raise DomainError("comb map is defined for Im t >= 0")
    if not cmath.isfinite(tc):
        raise DomainError("point t must be finite")
    if y == 0.0:
        # cmath.cos would sign the zero imaginary part by -sin t and put Phi below the
        # cut for half the axis; (Phi, +0.0) keeps it above. |Phi| <= 1 / QUARTER_TURN_EPS.
        return 1j * cmath.acosh(complex(math.cos(tc.real) / c, 0.0))
    try:
        phi = cmath.cos(tc) / c
    except OverflowError:
        phi = complex(math.inf)
    if not cmath.isfinite(phi):
        raise DomainError("comb map: cos t / cos 2 theta overflows double range (Im t near 710)")
    return 1j * cmath.acosh(phi)
