"""
Roots pinned to two arcs of the unit circle
===========================================

Below the quarter angle every family member has all its roots simple and on
the unit circle, confined to the two open arcs where the argument modulus
lies between 2 theta and pi - 2 theta. The roots come from pulling Chebyshev
roots back through a scaled Joukowski map, so no iterative solver runs.
"""

import math

import numpy as np

from tracelaurent import arc_membership, canonical_roots, matrix_roots

n = 5
print(f"degree {n}: arcs (2 theta, pi - 2 theta) and root arguments")
for theta in (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16):
    report = canonical_roots(n, theta)
    args = np.sort(np.angle(report.roots))
    lo, hi = 2 * theta, math.pi - 2 * theta
    print(f"\n  theta = {theta:.4f}   arc ({lo:.4f}, {hi:.4f})")
    upper = [a for a in args if a > 0]
    print("  upper-arc arguments:", np.round(upper, 4))
    print("  residual max:", report.residuals.max(),
          " min root gap:", round(report.min_pairwise_gap, 4))
    labels = arc_membership(report.roots, theta)
    print("  classifications:", sorted(set(labels.tolist())))

# As theta grows toward pi/4 the two arcs shrink around +-i and the roots
# crowd together; at pi/4 itself they would all collapse onto +-i, so the
# root finder rejects that angle instead of returning a degenerate report.

# A matrix route: the roots live on a circle whose radius is the reciprocal
# of the dilation, here 1/2.
mat = np.diag([2.0, 1.0])
report = matrix_roots(1, mat)
print("\nmatrix diag(2, 1), degree 1:")
print("  roots:", report.roots)
print("  radii:", np.abs(report.roots))
