"""
Three routes to one coefficient table
=====================================

The degree-n family member of a 2x2 matrix is the trace of the n-th power
of the pencil S(z) = P1 z + P2 / z built from its column projections. The
library computes the same Laurent polynomial three independent ways; this
script runs all three on one matrix and prints the tables side by side.
"""

import math

import numpy as np

from tracelaurent import (
    brute_force_coeffs,
    canonical_matrix,
    closed_form_coeffs,
    trace_power_coeffs,
)

# The canonical matrix of angle pi/6: unit columns, overlap sin(pi/3).
theta = math.pi / 6
mat = canonical_matrix(theta)
n = 4

# Route 1: the Cayley-Hamilton recurrence for the power sums tr(S^k).
by_trace = trace_power_coeffs(n, mat)

# Route 2: enumerate all 2^n products of column projections.
by_brute = brute_force_coeffs(n, mat)

# Route 3: one DFT of the scaled Chebyshev closed form at the roots of unity.
by_closed = closed_form_coeffs(n, theta)

print(f"degree {n}, angle pi/6")
print(f"{'k':>3} {'trace':>22} {'enumeration':>22} {'closed form':>22}")
for k in range(-n, n + 1):
    print(f"{k:>3} {by_trace[k].real:>22.15g} {by_brute[k].real:>22.15g} "
          f"{by_closed[k].real:>22.15g}")

spread = max(
    max(abs(by_trace[k] - by_brute[k]), abs(by_trace[k] - by_closed[k]))
    for k in range(-n, n + 1)
)
print(f"largest pairwise deviation: {spread:.3g}")

# The two ends of the angle range are exact in double precision. At angle 0
# the table is z^n + z^-n with nothing in between; at pi/4 the pencil is
# rank one and the table collapses to a binomial row.
print()
print("angle 0:   ", np.real(closed_form_coeffs(n, 0.0).coeffs))
print("angle pi/4:", np.real(closed_form_coeffs(n, math.pi / 4).coeffs))
