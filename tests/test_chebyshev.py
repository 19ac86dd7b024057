"""First-kind Chebyshev layer: evaluation, roots, preimages of a level."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelaurent import DomainError, cheb_eval, cheb_preimage, cheb_roots
from conftest import circle_restriction


def _factor_pair_eval(n: int, x) -> complex:
    """T_n as the average of the two characteristic-factor powers.

    With s = sqrt(x^2 - 1), the factors x + s and x - s multiply to 1 and
    T_n(x) = ((x+s)^n + (x-s)^n) / 2, formed by complex powers rather than
    by `cheb_eval`'s exponentials of n acosh x.
    """
    xc = complex(x)
    s = cmath.sqrt(xc * xc - 1.0)
    return 0.5 * ((xc + s) ** n + (xc - s) ** n)


class TestEval:
    @pytest.mark.parametrize(
        "n, x, expected",
        [
            (1, 0.3, 0.3),
            (2, 0.5, -0.5),
            (3, 0.5, -1.0),  # 4x^3 - 3x at 1/2
            (2, 2.0, 7.0),   # outside [-1, 1]
            (5, 1.0, 1.0),
            (5, -1.0, -1.0),
        ],
    )
    def test_small_cases(self, n, x, expected):
        assert cheb_eval(n, x) == pytest.approx(expected, abs=1e-14)

    def test_endpoint_is_exactly_one(self):
        for n in range(1, 20):
            assert cheb_eval(n, 1.0) == 1.0

    def test_order_must_be_positive(self):
        # shares the family's n >= 1 domain
        for n in (0, -1):
            with pytest.raises(ValueError):
                cheb_eval(n, 0.3)

    def test_cosine_identity_on_interval(self):
        for t in np.linspace(0, math.pi, 17):
            for n in (1, 2, 5, 9):
                assert cheb_eval(n, math.cos(t)) == pytest.approx(math.cos(n * t), abs=1e-12)

    def test_complex_argument(self):
        # T_2(z) = 2z^2 - 1 off the real axis too.
        z = 0.5 + 0.5j
        assert cheb_eval(2, z) == pytest.approx(2 * z * z - 1)

    def test_recurrence_matches_factor_pair(self):
        # Independent oracle: T_n(x) = (mu^n + mu^-n)/2 with mu + 1/mu = 2x.
        rng = np.random.default_rng(23)
        zs = rng.normal(size=200) + 1j * rng.normal(size=200)
        zs = zs[np.abs(zs) <= 2.0]
        for z in zs:
            for n in (1, 3, 7, 12):
                a, b = cheb_eval(n, z), _factor_pair_eval(n, z)
                assert abs(a - b) <= 1e-9 * (1.0 + max(abs(a), abs(b)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_binomial_expansion_termwise(self, n):
        # T_n(x) = sum_j C(n, 2j) x^{n-2j} (x^2 - 1)^j, from expanding the
        # factor-pair form binomially.  Checked at scattered points.
        for x in (0.2, 0.9, 1.5, -0.7, 2.5):
            total = sum(
                math.comb(n, 2 * j) * x ** (n - 2 * j) * (x * x - 1) ** j
                for j in range(0, n // 2 + 1)
            )
            assert cheb_eval(n, x) == pytest.approx(total, rel=1e-12)


def kernel_points(n: int, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Real points inside and outside [-1, 1], and complex points near and off it.

    Outside the segment x = +-cosh(a + ib) with n a <= 500, so T_n(x) stays in
    double range at every degree.
    """
    a = rng.uniform(0.0, 500.0 / n, size)
    b = rng.uniform(0.0, math.pi, size)
    inside = np.cos(b)
    outside = np.cosh(a) * rng.choice([-1.0, 1.0], size)
    off = np.cosh(a + 1j * b) * rng.choice([-1.0, 1.0], size)
    return np.concatenate([inside, outside, [1.0, -1.0]]), off


def assert_matches_scalar_calls(n, got, x, scalar, arg):
    """Array results equal elementwise scalar calls, bit for bit off the real
    segment [-1, 1] of the Chebyshev argument `arg`.

    On it the scalar calls take libm's cos(n acos x) and the array numpy's. The
    two arccos may differ by one ulp of the angle (numpy's SIMD arccos does on
    a few percent of points), which n scales: 2 (n + 1) ulp(pi) bounds the gap.
    """
    want = np.array([scalar(v) for v in x.ravel()]).reshape(x.shape)
    assert got.shape == x.shape and got.dtype == want.dtype
    on = (np.imag(arg) == 0.0) & (np.abs(np.real(arg)) <= 1.0)
    assert got[~on].tobytes() == want[~on].tobytes()
    assert np.all(np.abs(got[on] - want[on]) <= 2 * (n + 1) * np.spacing(math.pi))


class TestArrays:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
    def test_real_array_matches_scalar_calls(self, n):
        real, _ = kernel_points(n, np.random.default_rng(n), 30)
        x = real.reshape(2, -1)
        got = cheb_eval(n, x)
        assert_matches_scalar_calls(n, got, x, lambda v: cheb_eval(n, float(v)), x)
        assert all(type(cheb_eval(n, float(v))) is float for v in real)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
    def test_complex_array_matches_scalar_calls(self, n):
        real, off = kernel_points(n, np.random.default_rng(n + 1), 30)
        # Complex-typed points that are exactly real take the real form.
        x = np.concatenate([off, real + 0j]).reshape(2, -1, 2)
        got = cheb_eval(n, x)
        assert_matches_scalar_calls(n, got, x, lambda v: cheb_eval(n, complex(v)), x)
        assert all(type(cheb_eval(n, complex(v))) is complex for v in x.ravel())
        assert np.all(got.imag[x.imag == 0.0] == 0.0)

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_circle_points_array_matches_scalar_calls(self, n):
        rng = np.random.default_rng(n + 2)
        t = rng.uniform(-math.pi, math.pi, 24).reshape(4, 6)
        for points, kind in ((t, float), (t + 1j * rng.uniform(0.0, 0.5 / n, t.shape), complex)):
            got = circle_restriction(n, 0.3, points)
            arg = np.cos(points) / math.cos(0.6)
            assert_matches_scalar_calls(n, got, points, lambda v: circle_restriction(n, 0.3, kind(v)), arg)

    def test_lists_and_zero_d_arrays(self):
        assert cheb_eval(3, [-2.0, 2.0]).tolist() == [cheb_eval(3, -2.0), cheb_eval(3, 2.0)]
        assert cheb_eval(3, np.array(2.0)) == cheb_eval(3, 2.0)
        assert cheb_eval(3, np.array([], dtype=complex)).shape == (0,)

    def test_any_non_finite_point_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            cheb_eval(3, np.array([0.5, np.nan]))


class TestRoots:
    def test_frozen_small_tables(self):
        assert cheb_roots(1) == pytest.approx([0.0])
        assert cheb_roots(2) == pytest.approx([-math.sqrt(2) / 2, math.sqrt(2) / 2])
        assert cheb_roots(3) == pytest.approx([-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
    def test_roots_annihilate(self, n):
        roots = cheb_roots(n)
        assert len(roots) == n
        assert np.all(np.diff(roots) > 0)
        for r in roots:
            assert abs(cheb_eval(n, r)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
    def test_matches_scalar_loop_bit_for_bit(self, n):
        # Same arithmetic as one math.cos per root, so the root pullbacks
        # built on it stay bit-identical.
        loop = [math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(n, 0, -1)]
        assert cheb_roots(n).tobytes() == np.array(loop).tobytes()

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            cheb_roots(0)


class TestPreimage:
    def test_level_one(self):
        # T_2 - 1 = 2(x - 1)(x + 1): two simple preimages.
        hits = cheb_preimage(2, 1.0)
        xs = [x for x, _ in hits]
        ms = [m for _, m in hits]
        assert xs == pytest.approx([-1.0, 1.0])
        assert ms == [1, 1]

    def test_level_zero_recovers_roots(self):
        hits = cheb_preimage(2, 0.0)
        assert [x for x, _ in hits] == pytest.approx(list(cheb_roots(2)))
        assert all(m == 1 for _, m in hits)

    def test_interior_double_points(self):
        # T_3 + 1 = 4x^3 - 3x + 1 = (x + 1)(2x - 1)^2: the interior
        # preimage at x = 1/2 is a double point.
        hits = cheb_preimage(3, -1.0)
        assert [x for x, _ in hits] == pytest.approx([-1.0, 0.5])
        assert [m for _, m in hits] == [1, 2]

    def test_against_numpy_roots(self):
        # Oracle: roots of the monomial-basis polynomial 4x^3 - 3x - s.
        for s in (-0.8, -0.25, 0.4, 0.99):
            want = sorted(np.roots([4.0, 0.0, -3.0, -s]).real)
            got = []
            for x, m in cheb_preimage(3, s):
                got.extend([x] * m)
            assert got == pytest.approx(want, abs=1e-9)

    def test_total_multiplicity_is_n(self):
        for n in (1, 2, 3, 6, 9):
            for s in np.linspace(-1, 1, 11):
                assert sum(m for _, m in cheb_preimage(n, s)) == n

    def test_out_of_range_level(self):
        with pytest.raises(DomainError):
            cheb_preimage(3, 1.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_level(self, s):
        # A NaN level would otherwise give n NaN roots.
        with pytest.raises(DomainError, match="level must be finite"):
            cheb_preimage(4, s)

    @given(st.integers(1, 10), st.floats(-1, 1))
    def test_preimages_map_back(self, n, s):
        for x, _ in cheb_preimage(n, s):
            assert abs(cheb_eval(n, x) - s) <= 1e-9
