"""Shared helpers for the test suite: seeded samplers, comparison utilities and
reference implementations that the package's routes are checked against."""

import cmath
import math
import os
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st

import tracelaurent
from tracelaurent import DomainError, as_matrix, cheb_eval
from tracelaurent.core import BOUNDARY_TOL, QUARTER_TURN_EPS, check_double_range, check_points

# Angle grids used across the suite. GRID6 stresses both limits; GRID8_OPEN
# stays strictly below pi/4 for the operations that require it.
GRID6 = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4 - 1e-3, math.pi / 4)
GRID8_OPEN = tuple(j * math.pi / 32 for j in range(8))

# Property tests draw from a fixed sequence of examples, so the suite stays deterministic.
DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=300)


def child_env():
    """This process's environment with the imported package's source first on
    PYTHONPATH, so a child interpreter runs the code under test, not whichever
    `tracelaurent` is installed."""
    src = str(Path(tracelaurent.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def column_scale_exponents(bound=1000):
    """Strategy of exponent pairs (p, q), |p|, |q| <= bound, for column scales 2^p and 2^q.

    Multiplying a matrix's columns by independent powers of two is exact, so
    every normal-form and pencil quantity of the scaled matrix is the unscaled
    one shifted by a known power of two, wherever both fit in double range.
    """
    exponents = st.integers(-bound, bound)
    return st.tuples(exponents, exponents)


def circle_restriction(n, theta, t):
    """T_n(cos t / cos 2 theta), the canonical member on z = exp(it) over 2 c^n, by `cheb_eval`.

    Scalar in, scalar out; array in, array out.
    """
    return cheb_eval(n, np.cos(t) / math.cos(2.0 * theta))


def rel_close(a, b, tol):
    """|a - b| <= tol * (1 + max magnitude), the comparator used throughout."""
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def random_generic_matrix(rng):
    """Entries uniform over the square [-1, 1] x [-1, 1]i, resampled until generic."""
    while True:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        norms = np.sqrt(np.sum(np.abs(m) ** 2, axis=0))
        if norms.min() > 1e-3:
            return m


def random_unit_column_matrix(rng):
    """Random generic matrix with both columns normalized."""
    m = random_generic_matrix(rng)
    return m / np.sqrt(np.sum(np.abs(m) ** 2, axis=0))


def unit_overlap(mat) -> complex:
    """Inner product <u1, u2> of the column-normalized matrix, by the plain norms.

    This is the off-diagonal entry of the Gram matrix U* U, of magnitude
    sin(2 angle) of the normal form; rounding can lift it just above 1.
    """
    m = as_matrix(mat)
    unit = m / np.sqrt(np.sum(np.abs(m) ** 2, axis=0))
    return complex(np.vdot(unit[:, 0], unit[:, 1]))


def split_horner_loops(poly, z):
    """LaurentPoly.eval's two Horner passes written out as loops, the bit-for-bit reference
    of its np.polyval form: the powers z^0..z^n stepped in z, then z^-n..z^-1 in 1/z.

    Scalar in, complex out; array in, array of its shape out.
    """
    points, shape = check_points(z)
    c, n = poly.coeffs, poly.n
    with np.errstate(over="ignore", invalid="ignore"):
        pos = np.full_like(points, c[2 * n])
        for i in range(2 * n - 1, n - 1, -1):
            pos = pos * points + c[i]
        w = 1 / points
        neg = np.full_like(points, c[0])
        for i in range(1, n):
            neg = neg * w + c[i]
        out = pos + neg * w
    return complex(out[0]) if shape == () else out.reshape(shape)


def canonical_coeffs_loop(n, c, s):
    """family._canonical_coeffs with its integer factors formed inside the loop, as Python ints:
    the bit-for-bit reference of the hoisted form.

    The hoisted factors m(m+1) and (n-k)(n+k) are products of integers held in float64. They
    equal this loop's Python-int products converted to float while n^2 < 2^53, that is
    n < 9.4e7; a table there already takes over 1.5 GB.
    """
    coeffs = np.zeros(2 * n + 1)
    if c < QUARTER_TURN_EPS:
        if math.comb(n, n // 2) > sys.float_info.max:
            raise DomainError(f"closed-form coefficients of degree {n} overflow double range")
        coeffs[::2] = [math.comb(n, j) for j in range(n + 1)]
        return coeffs
    h = 4.0 * s ** 2 / (n * n)
    half = [0.0, 1.0]  # p_{-n-2}, p_{-n}
    d2 = d1 = g = 0.0
    for k in range(2 - n, 1, 2):
        d2 += h * ((k - 2) * (k - 1)) * half[-1]
        d2 -= h * ((k - 5) * (k - 4)) * half[-2]
        d1 += d2
        g += d1
        half.append(g / ((n - k) * (n + k) / (n * n)))
    coeffs[: n + 1 : 2] = half[1:]
    coeffs[n + 1 :] = coeffs[n - 1 :: -1]
    check_double_range(coeffs, "closed-form coefficients", n)
    return coeffs


def plain_pencil(mat):
    """(a, b, c) = (|c1|^2, |c2|^2, |det M|) by the plain squares and products.

    L_n(z) = 2 c^n T_n((a z + b/z) / 2c). The reference for the package's
    power-of-two-rescaled read; squares beyond double range come out inf.
    """
    m = as_matrix(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.sum(np.abs(m) ** 2, axis=0)
        return a, b, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def match_sets(left, right, tol):
    """Greedy matching of two complex collections within tol; True when bijective."""
    right = list(right)
    if len(left) != len(right):
        return False
    for value in left:
        hits = [i for i, other in enumerate(right) if abs(value - other) <= tol]
        if not hits:
            return False
        right.pop(hits[0])
    return True


def transfer_matrix(z, mat) -> np.ndarray:
    """S(z) = M diag(z, 1/z) M* for nonzero z."""
    z = complex(z)
    if z == 0:
        raise DomainError("transfer matrix requires z != 0")
    m = as_matrix(mat)
    return as_matrix(m @ np.diag([z, 1.0 / z]) @ m.conj().T)


def eigen_split(z, theta: float) -> tuple[complex, complex]:
    """Eigenvalues w +- sqrt(w^2 - cos(2t)^2) of the canonical S(z), w = (z + 1/z)/2.

    The family value is lambda1^n + lambda2^n.
    """
    z = complex(z)
    w = (z + 1.0 / z) / 2.0
    c = math.cos(2.0 * theta)
    s = cmath.sqrt(w * w - c * c)
    return w + s, w - s


def scaled_joukowski_preimage(w, theta: float) -> tuple[complex, complex]:
    """The two solutions of (z + 1/z) / (2 cos 2 theta) = w.

    Solves z^2 - 2 w cos(2 theta) z + 1 = 0; the two preimages multiply to 1.
    For real w with |w cos 2 theta| <= 1 they form an exact conjugate pair on
    the unit circle.
    """
    w = complex(w)
    wc = w * math.cos(2.0 * theta)
    if wc.imag == 0.0 and abs(wc.real) <= 1.0:
        x = wc.real
        y = math.sqrt(max(1.0 - x * x, 0.0))
        return complex(x, y), complex(x, -y)
    s = cmath.sqrt(wc * wc - 1.0)
    return wc + s, wc - s


def circle_pullback(m: int, n: int, theta: float) -> complex:
    """Upper preimage x + iy on the unit circle of the Chebyshev point zeta = cos(m pi / 2n), by scalars.

    x = cos(2 theta) zeta, and y = sqrt(1 - x^2) as the sum of positive terms
    hypot(sin a, sin(2 theta) zeta), a = min(m, 2n - m) pi / 2n folded into
    [0, pi/2] by the integer m. y is libm's hypot, which np.hypot calls on a
    scalar too; CPython's math.hypot rounds differently in the last bit.
    """
    zeta = math.cos(m * math.pi / (2 * n))
    a = min(m, 2 * n - m) * (math.pi / (2 * n))
    return complex(math.cos(2.0 * theta) * zeta, float(np.hypot(math.sin(a), math.sin(2.0 * theta) * zeta)))


def arc_label(z, theta: float) -> str:
    """One finite nonzero point's arc label by scalar cmath: the reference for `arc_membership`.

    The same precedence: off the unit circle beyond BOUNDARY_TOL is outside, then
    within BOUNDARY_TOL of an arc endpoint is boundary, then strictly between the
    endpoints is on the open arc of the argument's sign, and the rest are outside.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > BOUNDARY_TOL:
        return "outside"
    a = cmath.phase(z)
    r, lo, hi = abs(a), 2.0 * theta, math.pi - 2.0 * theta
    if abs(r - lo) <= BOUNDARY_TOL or abs(r - hi) <= BOUNDARY_TOL:
        return "boundary"
    if lo < r < hi:
        return "open_plus" if a > 0.0 else "open_minus"
    return "outside"


PSD_TOL = 1e-10  # anti-Hermitian part and negative eigenvalue slack in psd_sqrt


def psd_sqrt(mat) -> np.ndarray:
    """Positive semidefinite square root of a 2x2 Hermitian PSD matrix.

    Uses the closed form (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)),
    which for 2x2 matrices reproduces the eigendecomposition square root
    exactly. Inputs that are non-Hermitian or indefinite beyond PSD_TOL are
    rejected; the zero matrix maps to itself.
    """
    m = as_matrix(mat)
    if np.max(np.abs(m - m.conj().T)) > PSD_TOL:
        raise DomainError("not PSD: matrix is not Hermitian")
    tr = float((m[0, 0] + m[1, 1]).real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    disc = max(tr * tr / 4.0 - det, 0.0)
    if tr / 2.0 - math.sqrt(disc) < -PSD_TOL:
        raise DomainError("not PSD: negative eigenvalue")
    root_det = math.sqrt(max(det, 0.0))
    denom_sq = tr + 2.0 * root_det
    if denom_sq <= 0.0:
        return as_matrix(np.zeros((2, 2)))
    return as_matrix((m + root_det * np.eye(2)) / math.sqrt(denom_sq))
