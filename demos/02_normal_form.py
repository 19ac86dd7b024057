"""
Reducing a matrix to scale, dilation, and angle
===============================================

Any matrix with two nonzero columns generates the same family as a canonical
matrix, up to a value scaling and an argument scaling. This script reduces a
deliberately messy complex matrix, checks the rescaling identity at sample
points, and then recovers the three parameters from the degree-2 table alone.
"""

import math

import numpy as np

from tracelaurent import (
    closed_form_eval,
    normal_form,
    trace_power_coeffs,
)

mat = np.array([[1.2 + 0.7j, -0.4 + 0.1j],
                [0.3 - 0.5j, 0.8 + 0.9j]])

nf = normal_form(mat)
print("scale    R     =", nf.scale)
print("dilation rho   =", nf.dilation)
print("angle    theta =", nf.angle)
print("overlap phase  =", nf.phase)

# The whole family factors through the normal form:
#   L_n(z, mat) = R^n * L_n(rho z, canonical matrix of theta).
n = 5
poly = trace_power_coeffs(n, mat)
print()
print("rescaling identity at sample points (degree 5):")
points = (1.0, 0.6 + 0.8j, 2.0j, -1.3)
lhs = poly.eval(np.array(points))
rhs = nf.scale ** n * closed_form_eval(n, nf.angle, nf.dilation * np.array(points))
for z, difference in zip(points, abs(lhs - rhs)):
    print(f"  z = {z!s:>10}   |difference| = {difference:.3g}")

# The parameters are visible in the degree-2 coefficients: the extreme ones
# are (r1 r2 rho)^2 and (r1 r2 / rho)^2, and the central one carries the
# angle through 2 R^2 sin^2(2 theta).
table = trace_power_coeffs(2, mat)
c2, c0, cm2 = table[2].real, table[0].real, table[-2].real
print()
print("recovered from the degree-2 table:")
print("  R     =", (c2 * cm2) ** 0.25)
print("  rho   =", (c2 / cm2) ** 0.25)
print("  theta =", 0.5 * math.asin(math.sqrt(c0 / (2.0 * (c2 * cm2) ** 0.5))))
