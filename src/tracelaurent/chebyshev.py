"""Chebyshev polynomials of the first kind: values, roots, and preimages.

T_n(cos a) = cos(n a) and T_n(cosh a) = cosh(n a). Every array of T_n values
in the package comes from one O(1)-per-point kernel for 2 c^n T_n(x), the form
the family takes; it, the roots and the preimages serve the closed forms and
root pullbacks of the other modules. Only `cheb_eval` at one real point of
[-1, 1] takes libm's cos(n acos x) instead, the more accurate of the two there.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, check_degree, check_double_range, check_finite

__all__ = ["cheb_eval", "cheb_preimage", "cheb_roots"]


def _scaled_cheb(n: int, log_c: float, x: np.ndarray) -> np.ndarray:
    # 2 c^n T_n(x) at a 1-d array of finite x, c^n and T_n unable to over- or underflow
    # apart: exp(n (log c + a)) + exp(n (log c - a)), a = acosh x on any branch, as
    # cosh(n a) is even in a. Exactly real x stay real: 2 c^n cos(n acos x) on [-1, 1],
    # sign(x)^n times the log form at acosh|x| outside. Empty branches are skipped;
    # callers silence numpy's overflow warnings and check the range.
    real = x.imag == 0.0
    count = np.count_nonzero(real)
    values = np.empty_like(x)
    if count:
        r = x.real[real]
        alpha = np.arccosh(np.maximum(np.abs(r), 1.0))
        wave = np.cos(n * np.arccos(np.clip(r, -1.0, 1.0)))
        values[real] = (np.exp(n * (log_c + alpha)) + np.exp(n * (log_c - alpha))) * wave
    if count < real.size:
        alpha = np.arccosh(x[~real])
        values[~real] = np.exp(n * (log_c + alpha)) + np.exp(n * (log_c - alpha))
    return values


def cheb_eval(n: int, x):
    """Value of T_n at real or complex points, O(1) per point.

    A scalar gives a scalar (a float for real input, a complex for complex),
    an array an ndarray of its shape. A real scalar on [-1, 1] takes libm's
    cos(n acos x), which errs less there than the kernel's numpy arccos; every
    other point takes half the kernel 2 c^n T_n(x) at c = 1. A NaN or infinite
    x raises a DomainError, and so does a value beyond double range, with a
    message naming the degree.
    """
    check_degree(n)
    if isinstance(x, (int, float)) and -1.0 <= x <= 1.0:
        return math.cos(n * math.acos(x))
    if isinstance(x, complex) and x.imag == 0.0 and -1.0 <= x.real <= 1.0:
        return complex(math.cos(n * math.acos(x.real)))
    check_finite(x, "Chebyshev point")
    shape = np.shape(x)
    x = np.array(x, dtype=complex if np.iscomplexobj(x) else float, ndmin=1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = 0.5 * _scaled_cheb(n, 0.0, x)
    check_double_range(values, "Chebyshev values", n)
    return values[0].item() if shape == () else values.reshape(shape)


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

    Returns a list of (root, multiplicity) pairs, roots ascending. A NaN or
    infinite level raises a DomainError.
    """
    check_degree(n)
    check_finite(s, "level")
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
