"""Chebyshev polynomials of the first kind: values, roots, and preimages.

T_n satisfies T_n(cos a) = cos(n a). Everything here is elementary and
self-contained; the rest of the package leans on these three operations for
its closed forms and root pullbacks.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, check_degree, check_double_range, check_finite

__all__ = ["cheb_eval", "cheb_preimage", "cheb_roots"]


def cheb_eval(n: int, x):
    """Value of T_n at a real or complex point.

    On the real interval [-1, 1] the trigonometric form cos(n arccos x) is
    used; everywhere else the three-term recurrence
    T_{k+1} = 2 x T_k - T_{k-1}. Real input yields a float, complex input a
    complex. A NaN or infinite x raises a DomainError, and so does a value
    beyond double range, with a message naming the degree.
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
    check_finite(x, "Chebyshev point")
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    check_double_range(t_cur, "Chebyshev values", n)
    return t_cur


def cheb_roots(n: int) -> np.ndarray:
    """The n simple roots of T_n, ascending in (-1, 1)."""
    check_degree(n)
    return np.cos((2 * np.arange(n, 0, -1) - 1) * math.pi / (2 * n))


def _extrema(n: int):
    # (points, levels, multiplicities) of the extrema cos(k pi/n), k = 0..n,
    # descending: T_n = (-1)^k there, doubly inside and simply at the ends.
    k = np.arange(n + 1)
    return np.cos(k * math.pi / n), 1 - 2 * (k % 2), np.where((k == 0) | (k == n), 1, 2)


def cheb_preimage(n: int, s: float) -> list[tuple[float, int]]:
    """Solutions of T_n(x) = s inside [-1, 1], with multiplicities.

    T_n maps [-1, 1] onto [-1, 1] taking every value with total multiplicity
    n, and the preimages are exact at every degree, with no merging. For
    |s| < 1 they are the n simple roots cos((2 pi ceil(m/2) + (-1)^m acos s)/n),
    m = 0..n-1. For s = +-1 they are the extrema cos(k pi/n) with
    (-1)^k = s, of multiplicity 2 inside and 1 at the ends x = +-1.

    Returns a list of (root, multiplicity) pairs, roots ascending.
    """
    check_degree(n)
    s = float(s)
    if abs(s) > 1.0:
        raise DomainError("level must lie in [-1, 1]")
    if abs(s) == 1.0:
        x, levels, mult = _extrema(n)
        x, mult = x[levels == s], mult[levels == s]
    else:
        m = np.arange(n)
        x = np.cos((2.0 * math.pi * ((m + 1) // 2) + (1 - 2 * (m % 2)) * math.acos(s)) / n)
        mult = np.ones(n, dtype=int)
    return list(zip(x[::-1].tolist(), mult[::-1].tolist()))
