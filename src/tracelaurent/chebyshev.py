"""Chebyshev polynomials of the first kind: values, roots, and preimages.

T_n satisfies T_n(cos a) = cos(n a). Everything here is elementary and
self-contained; the rest of the package leans on these three operations for
its closed forms and root pullbacks.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CLUSTER_TOL, DomainError, check_degree

__all__ = ["cheb_eval", "cheb_preimage", "cheb_roots"]


def cheb_eval(n: int, x):
    """Value of T_n at a real or complex point.

    On the real interval [-1, 1] the trigonometric form cos(n arccos x) is
    used; everywhere else the three-term recurrence
    T_{k+1} = 2 x T_k - T_{k-1}. Real input yields a float, complex input a
    complex.
    """
    check_degree(n)
    if isinstance(x, complex):
        if x.imag == 0.0 and abs(x.real) <= 1.0:
            return complex(math.cos(n * math.acos(x.real)))
        t_prev, t_cur = 1.0 + 0j, x
    else:
        x = float(x)
        if abs(x) <= 1.0:
            return math.cos(n * math.acos(x))
        t_prev, t_cur = 1.0, x
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def cheb_roots(n: int) -> np.ndarray:
    """The n simple roots of T_n, ascending in (-1, 1)."""
    check_degree(n)
    return np.array([math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(n, 0, -1)])


def cheb_preimage(n: int, s: float) -> list[tuple[float, int]]:
    """Solutions of T_n(x) = s inside [-1, 1], with multiplicities.

    Since T_n maps [-1, 1] onto [-1, 1] taking every value with total
    multiplicity n, the preimages are cos((arccos s + 2 pi j)/n) for
    j = 0..n-1. Values closer than 1e-9 are merged into a single root whose
    multiplicity is the cluster size; multiplicity 2 occurs only at interior
    critical points when |s| = 1.

    Returns a list of (root, multiplicity) pairs, roots ascending.
    """
    check_degree(n)
    s = float(s)
    if abs(s) > 1.0:
        raise DomainError("level must lie in [-1, 1]")
    alpha = math.acos(s)
    vals = sorted(math.cos((alpha + 2.0 * math.pi * j) / n) for j in range(n))
    out: list[tuple[float, int]] = []
    cluster = [vals[0]]
    for v in vals[1:]:
        if v - cluster[-1] <= CLUSTER_TOL:
            cluster.append(v)
        else:
            out.append((sum(cluster) / len(cluster), len(cluster)))
            cluster = [v]
    out.append((sum(cluster) / len(cluster), len(cluster)))
    return out
