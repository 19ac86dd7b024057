"""Circle restriction: cosine polynomials, interval system, comb coordinate."""

import cmath
import math
import warnings

import numpy as np
import pytest

from tracelaurent import (
    DomainError,
    IntervalSystem,
    TrigPoly,
    brute_force_coeffs,
    canonical_matrix,
    canonical_roots,
    closed_form_eval,
    comb_height,
    comb_map,
    trig_coeffs,
    trig_roots,
    unit_level_roots,
)
from conftest import GRID8_OPEN, circle_pullback, circle_restriction

# Angles of the comb checks: near both ends of (0, pi/4) and three between.
COMB_ANGLES = (0.005, 0.3, math.pi / 6, 0.6, math.pi / 4 - 1e-3, math.pi / 4 - 1e-5)


def strip_grid(count, seed=41):
    """count real points on [-pi, pi], both ends included, and count seeded
    points of the strip |Re t| <= pi, 0 <= Im t <= 3."""
    rng = np.random.default_rng(seed)
    upper = rng.uniform(-math.pi, math.pi, count) + 1j * rng.uniform(0.0, 3.0, count)
    return np.concatenate([np.linspace(-math.pi, math.pi, count) + 0j, upper])


class TestEval:
    def test_midpoint_value(self):
        # cos(pi/2) = 0, T_2(0) = -1.
        assert circle_restriction(2, math.pi / 6, math.pi / 2) == pytest.approx(-1.0)

    def test_matches_circle_restriction(self):
        for theta in (0.1, math.pi / 8, math.pi / 6):
            c = math.cos(2 * theta)
            for n in (1, 3, 6, 10):
                ts = np.linspace(0.0, math.pi, 9)
                want = closed_form_eval(n, theta, np.exp(1j * ts)).real / (2.0 * c ** n)
                got = np.array([circle_restriction(n, theta, float(t)) for t in ts])
                assert np.all(abs(got - want) <= 1e-10 * (1.0 + abs(want)))

    def test_complex_argument(self):
        t = 0.5 + 0.25j
        c = math.cos(math.pi / 4)
        got = circle_restriction(2, math.pi / 8, t)
        x = cmath.cos(t) / c
        assert got == pytest.approx(2 * x * x - 1)


class TestTrigPoly:
    def test_worked_coefficients(self):
        poly = trig_coeffs(2, math.pi / 6)
        assert poly.cos_coeffs == pytest.approx([3.0, 0.0, 4.0], rel=1e-12)

    def test_leading_coefficient_is_cos_power(self):
        cases = [(n, theta) for theta in (0.1, math.pi / 8, math.pi / 6) for n in (1, 2, 5, 9)]
        # High degree: the largest entries exceed the leading one by ~1e15 and ~1e20.
        cases += [(64, math.pi / 4 - 1e-3), (256, math.pi / 8)]
        for n, theta in cases:
            poly = trig_coeffs(n, theta)
            assert poly.cos_coeffs[n] == pytest.approx(
                1.0 / math.cos(2 * theta) ** n, rel=1e-15
            )

    def test_eval_agrees_with_cheb_eval(self):
        for theta in (0.05, math.pi / 8, math.pi / 6):
            poly = trig_coeffs(4, theta)
            for t in np.linspace(-1.0, 4.0, 11):
                a, b = poly.eval(float(t)), circle_restriction(4, theta, float(t))
                assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(29)
        for n, theta in ((8, 0.01), (64, 0.3), (256, math.pi / 8)):
            poly = trig_coeffs(n, theta)
            k = np.arange(n + 1)
            real = rng.uniform(-4.0, 4.0, 40)
            for ts in (real, real + 1j * rng.uniform(0.0, 0.1, 40), real.reshape(5, 8)):
                got = poly.eval(ts)
                assert got.shape == ts.shape
                for t, value in zip(ts.ravel(), got.ravel()):
                    scale = np.sum(np.abs(poly.cos_coeffs * np.cos(k * t)))
                    assert abs(value - poly.eval(t)) <= 1e-15 * scale

    def test_scalar_in_scalar_out(self):
        poly = trig_coeffs(3, 0.3)
        assert type(poly.eval(0.5)) is float
        assert type(poly.eval(0.5 + 0.1j)) is complex

    @pytest.mark.parametrize("theta", [0.01, 0.3])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_eval_against_mpmath_sum(self, n, theta):
        # Error relative to sum |c_k cos kt|, the size of the terms that cancel.
        mpmath = pytest.importorskip("mpmath")
        poly = trig_coeffs(n, theta)
        ts = (0.3, 1.2, 2.5, 0.7 + 0.01j, 2.0 + 0.02j)
        with mpmath.workdps(30):
            for t in ts:
                value, mt = poly.eval(t), mpmath.mpc(t)
                terms = [mpmath.mpf(ck) * mpmath.cos(k * mt) for k, ck in enumerate(poly.cos_coeffs)]
                miss = abs(mpmath.mpc(value) - mpmath.fsum(terms)) / mpmath.fsum(abs(x) for x in terms)
                assert float(miss) <= 1e-13

    def test_eval_overflow_is_named(self):
        # Neither a bare OverflowError nor a RuntimeWarning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (0.01, 0.3):
                with pytest.raises(DomainError, match="cosine polynomial values of degree 1024 overflow"):
                    trig_coeffs(1024, theta).eval(1 + 0.8j)

    def test_coefficients_from_brute_force(self):
        # Independent route: Laurent table of the canonical matrix, folded.
        theta, n = math.pi / 8, 5
        c = math.cos(2 * theta)
        table = brute_force_coeffs(n, canonical_matrix(theta))
        want = np.empty(n + 1)
        want[0] = table[0].real / (2 * c ** n)
        for k in range(1, n + 1):
            want[k] = table[k].real / c ** n
        assert trig_coeffs(n, theta).cos_coeffs == pytest.approx(want, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrigPoly(2, [1.0, 2.0])
        with pytest.raises(DomainError):
            TrigPoly(1, [1.0, float("nan")])

    def test_coeffs_read_only(self):
        poly = trig_coeffs(2, math.pi / 6)
        with pytest.raises(ValueError):
            poly.cos_coeffs[0] = 9.0


class TestIntervals:
    def test_fundamental(self):
        system = IntervalSystem(math.pi / 6, 0, 0)
        lo, hi = system.intervals()[0]
        assert (lo, hi) == pytest.approx((math.pi / 3, 2 * math.pi / 3))

    def test_window_listing(self):
        system = IntervalSystem(math.pi / 8, -1, 1)
        bands = system.intervals()
        assert len(bands) == 3
        assert bands[1] == pytest.approx((math.pi / 4, 3 * math.pi / 4))
        assert bands[2][0] - bands[1][0] == pytest.approx(math.pi)

    def test_membership_is_periodic(self):
        system = IntervalSystem(math.pi / 6, 0, 0)
        assert system.contains(math.pi / 2)
        assert system.contains(math.pi / 2 + 7 * math.pi)
        assert system.contains(math.pi / 2 - 3 * math.pi)
        assert not system.contains(0.1)

    def test_open_versus_closed_at_endpoints(self):
        system = IntervalSystem(math.pi / 6, 0, 0)
        lo, _ = system.intervals()[0]
        assert system.contains(lo)
        assert not system.contains(lo, open=True)

    def test_window_validation(self):
        # A float bound used to fail only in intervals(), with a bare TypeError,
        # and True was taken as 1.
        for p_min, p_max in ((2, 1), (0.5, 2), (True, 2), (0, 2.0)):
            with pytest.raises(ValueError, match="p_min and p_max must be integers"):
                IntervalSystem(math.pi / 6, p_min, p_max)


class TestRoots:
    def test_worked_example(self):
        roots = trig_roots(2, math.pi / 6)
        want = [math.acos(math.sqrt(2) / 4), math.acos(-math.sqrt(2) / 4)]
        assert roots == pytest.approx(want)

    @pytest.mark.parametrize("theta", GRID8_OPEN)
    def test_roots_annihilate_inside_open_interval(self, theta):
        system = IntervalSystem(theta, 0, 0)
        for n in (1, 2, 4, 7):
            roots = trig_roots(n, theta)
            assert len(roots) == n
            assert np.all(np.diff(roots) > 0)
            for t in roots:
                assert system.contains(t, open=True)
                assert abs(circle_restriction(n, theta, float(t))) <= 1e-12

    @pytest.mark.parametrize("theta", [1e-3, 0.3, math.pi / 4 - 1e-3])
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_within_an_ulp_of_scalar_loop(self, n, theta):
        # np.arctan2 and math.atan2 may round differently, by one ulp at most.
        upper = [circle_pullback(m, n, theta) for m in range(1, 2 * n, 2)]
        loop = np.array([math.atan2(z.imag, z.real) for z in upper])
        assert np.all(np.abs(trig_roots(n, theta) - loop) <= np.spacing(loop))

    def test_arguments_match_circle_roots(self):
        # Positive-argument roots of the Laurent member sit at the cosine
        # polynomial roots.
        n, theta = 4, math.pi / 8
        report = canonical_roots(n, theta)
        args = sorted(a for a in np.angle(report.roots) if a > 0)
        assert args == pytest.approx(list(trig_roots(n, theta)))


class TestUnitLevels:
    def test_worked_example(self):
        hits = unit_level_roots(2, math.pi / 6)
        assert [(pytest.approx(t), level, mult) for t, level, mult in hits] == [
            (pytest.approx(math.pi / 3), 1, 1),
            (pytest.approx(math.pi / 2), -1, 2),
            (pytest.approx(2 * math.pi / 3), 1, 1),
        ]

    @pytest.mark.parametrize("theta", [t for t in GRID8_OPEN if t > 0])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_multiplicity_budget(self, n, theta):
        hits = unit_level_roots(n, theta)
        assert sum(m for _, _, m in hits) == 2 * n
        for level in (1, -1):
            assert sum(m for _, lv, m in hits if lv == level) == n
        system = IntervalSystem(theta, 0, 0)
        lo, hi = system.intervals()[0]
        for t, level, mult in hits:
            assert lo - 1e-12 <= t <= hi + 1e-12
            assert abs(circle_restriction(n, theta, float(t)) - level) <= 1e-9
            if mult == 2:
                # Double points only strictly inside the band.
                assert min(t - lo, hi - t) > 1e-9


class TestComb:
    def test_height_values(self):
        assert comb_height(0.0) == 0.0
        assert comb_height(math.pi / 6) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
        assert comb_height(math.pi / 8) == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)

    def test_map_at_origin_reaches_tooth_tip(self):
        u = comb_map(0.0, math.pi / 6)
        assert u == pytest.approx(1j * comb_height(math.pi / 6))

    def test_map_on_fundamental_interval(self):
        theta = math.pi / 6
        assert comb_map(2 * theta, theta) == pytest.approx(0.0, abs=1e-15)
        assert comb_map(math.pi / 2, theta) == pytest.approx(-math.pi / 2)
        assert comb_map(math.pi - 2 * theta, theta) == pytest.approx(-math.pi)

    def test_defining_identity_everywhere(self):
        rng = np.random.default_rng(87)
        for theta in (0.0, math.pi / 8, math.pi / 6, 0.6):
            c = math.cos(2 * theta)
            for _ in range(20):
                t = complex(rng.uniform(-7, 7), rng.uniform(0, 4))
                u = comb_map(t, theta)
                assert cmath.cos(u) == pytest.approx(cmath.cos(t) / c, rel=1e-9)

    def test_family_factorization(self):
        # cos(n u(t)) equals the degree-n circle restriction; the composed
        # value does not depend on the branch of u.
        rng = np.random.default_rng(93)
        for theta in (math.pi / 8, math.pi / 6):
            for n in (1, 2, 5, 8):
                for _ in range(10):
                    t = complex(rng.uniform(-4, 4), rng.uniform(0, 2))
                    got = cmath.cos(n * comb_map(t, theta))
                    want = circle_restriction(n, theta, t)
                    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_real_values_exactly_on_interval_system(self):
        theta = math.pi / 8
        system = IntervalSystem(theta, -2, 2)
        ends = system.intervals()[0]
        for t in np.linspace(-6.0, 6.0, 241):
            if min(abs(math.remainder(t - e, math.pi)) for e in ends) < 1e-9:
                continue
            u = comb_map(float(t), theta)
            assert (u.imag == 0.0) == system.contains(float(t))

    def test_vertical_normalization(self):
        # At zero angle u(iY) = iY on the nose.
        u = comb_map(30j, 0.0)
        assert abs(u / 30j - 1.0) <= 1e-6
        # Positive angles approach the diagonal with a log offset c = cos 2t:
        # u(iY) = i (Y - ln c) + O(exp(-2Y)).
        for theta in (math.pi / 16, math.pi / 8, math.pi / 6):
            c = math.cos(2 * theta)
            for height in (30.0, 60.0):
                u = comb_map(1j * height, theta)
                drift = u / (1j * height) - 1.0 + math.log(c) / height
                assert abs(drift) <= 1e-9

    def test_evenness_and_period(self):
        theta = math.pi / 6
        for t in (0.3, 1.1, 2.9):
            assert comb_map(-t, theta) == pytest.approx(comb_map(t, theta))
            assert comb_map(t + 2 * math.pi, theta) == pytest.approx(comb_map(t, theta))

    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    @pytest.mark.parametrize("lift", [0.0, 0.01])
    def test_identity_near_quarter_turn_against_mpmath(self, delta, lift):
        # Near pi/4, Phi = cos t / cos 2 theta reaches ~-1e5 in the gaps,
        # where Phi + sqrt(Phi^2 - 1) would cancel.
        mpmath = pytest.importorskip("mpmath")
        theta = math.pi / 4 - delta
        worst = 0.0
        with mpmath.workdps(40):
            c = mpmath.cos(2 * mpmath.mpf(theta))
            for t in np.linspace(-math.pi, math.pi, 200, endpoint=False) + 1j * lift:
                u = comb_map(complex(t), theta)
                phi = mpmath.cos(mpmath.mpc(t.real, t.imag)) / c
                miss = abs(mpmath.cos(mpmath.mpc(u.real, u.imag)) - phi) / max(1, abs(phi))
                worst = max(worst, float(miss))
        assert worst <= 1e-13

    @pytest.mark.parametrize("theta", COMB_ANGLES)
    def test_upper_half_plane_maps_into_upper_half_plane(self, theta):
        for t in strip_grid(500):
            assert comb_map(t, theta).imag >= 0.0, t

    @pytest.mark.parametrize("theta", COMB_ANGLES)
    def test_continuous_across_quarter_periods(self, theta):
        # The principal acosh has its seam at Re t = +-pi only.
        delta = 1e-9
        for x in (math.pi / 2, -math.pi / 2):
            step = comb_map(complex(x + delta, 1.0), theta) - comb_map(complex(x - delta, 1.0), theta)
            assert abs(step) <= 1e-8

    @pytest.mark.parametrize("theta", COMB_ANGLES)
    def test_real_gap_points_land_on_the_slit(self, theta):
        c, height = math.cos(2 * theta), comb_height(theta)
        ts = np.linspace(math.pi - 2 * theta, math.pi, 50)
        gap = [t for t in (*ts, *-ts) if math.cos(t) / c < -1.0]
        assert gap
        for t in gap:
            u = comb_map(float(t), theta)
            assert u.real == -math.pi
            assert 0.0 < u.imag <= height + 1e-12
        u = comb_map(math.pi, theta)
        assert u.real == -math.pi
        assert u.imag == pytest.approx(height, rel=1e-14)

    @pytest.mark.parametrize("theta", COMB_ANGLES)
    def test_identity_on_strip_against_mpmath(self, theta):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            c = mpmath.cos(2 * mpmath.mpf(theta))
            for t in strip_grid(200):
                u = comb_map(t, theta)
                phi = mpmath.cos(mpmath.mpc(t.real, t.imag)) / c
                miss = abs(mpmath.cos(mpmath.mpc(u.real, u.imag)) - phi) / max(1, abs(phi))
                worst = max(worst, float(miss))
        assert worst <= 1e-13

    def test_overflow_is_named(self):
        # cmath.cos overflows at the first point; at the second, cos t fits
        # but cos t / cos 2 theta does not.
        for t, theta in ((1 + 800j, 0.3), (1 + 709.5j, math.pi / 4 - 1e-3)):
            with pytest.raises(DomainError, match="double range"):
                comb_map(t, theta)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            comb_map(1.0 - 0.5j, math.pi / 6)

    def test_quarter_angle_rejected(self):
        with pytest.raises(DomainError):
            comb_map(0.5, math.pi / 4)
