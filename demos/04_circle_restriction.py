"""
On the circle: cosine polynomials and the comb coordinate
=========================================================

Restricted to z = exp(i t), each canonical family member becomes a real
cosine polynomial. Dividing by cos(2 theta)^n normalizes its leading
coefficient, the roots fall into a periodic system of closed intervals, and
one change of coordinate u(t) turns every member at once into cos(n u).
"""

import cmath
import math

import numpy as np

from tracelaurent import (
    IntervalSystem,
    comb_height,
    comb_map,
    trig_coeffs,
    trig_roots,
    unit_level_roots,
)

theta = math.pi / 6
n = 2

# The normalized restriction of the degree-2 member: 3 + 4 cos(2t).
poly = trig_coeffs(n, theta)
print("cosine coefficients:", np.round(poly.cos_coeffs, 12))

# Roots live inside the fundamental interval [2 theta, pi - 2 theta].
system = IntervalSystem(theta, 0, 0)
print("fundamental interval:", system.intervals()[0])
print("roots:", trig_roots(n, theta))

# Where the polynomial touches the levels +-1; the interior -1 touch is a
# double point.
for t, level, mult in unit_level_roots(n, theta):
    print(f"  level {level:+d} at t = {t:.6f}  multiplicity {mult}")

# The comb coordinate: cos(u(t)) = cos(t) / cos(2 theta) everywhere on the
# closed upper half-plane. On the interval system u is real; over the gaps
# it climbs a vertical tooth of height arccosh(1 / cos 2 theta).
print()
print("tooth height:", comb_height(theta))
print("u at the gap center t = 0:", comb_map(0.0, theta))
for t in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
    u = comb_map(t, theta)
    residual = abs(cmath.cos(u) - math.cos(t) / math.cos(2 * theta))
    print(f"  u({t:.6f}) = {u:.6f}   identity residual {residual:.3g}")

# Far up the imaginary axis the coordinate straightens out: u(iY) differs
# from i(Y - ln cos 2 theta) only by an exponentially small remainder.
for height in (5.0, 15.0, 30.0):
    u = comb_map(1j * height, theta)
    drift = u - 1j * (height - math.log(math.cos(2 * theta)))
    print(f"  Y = {height:>4}: |u(iY) - i(Y - ln c)| = {abs(drift):.3g}")
