"""Closed forms vs the generic series engine, plus the limit laws."""

import math

import mpmath
import numpy as np
import pytest

from unclab import (
    DivergentMoment,
    InvalidParameter,
    NonConvergent,
    build_spectrum,
    exp_closed,
    exp_state_bound,
    exp_xi_resummed,
    exponential_family,
    lz_moments,
    phi_moments,
    poly_closed,
    polynomial_family,
    xi_sum,
)

PI = math.pi
PI2_3 = PI**2 / 3.0


class TestExpClosed:
    def test_structure_invariant(self):
        for a in (0.1, 1.0, 7.0):
            ev = exp_closed(a)
            assert ev.var_phi == pytest.approx(
                PI2_3 + 4.0 * ev.dilog_value + ev.g_value, abs=1e-15
            )

    def test_alpha_one_frozen_values(self):
        ev = exp_closed(1.0)
        assert ev.var_phi == pytest.approx(0.98096306608776620, abs=1e-14)
        assert ev.var_lz == pytest.approx(0.36203083048315523, abs=1e-15)
        assert ev.mean_cos == pytest.approx(0.64805427366388540, abs=1e-15)
        assert ev.var_sin == pytest.approx(0.32926179757407123, abs=1e-15)
        assert ev.var_cos == pytest.approx(0.25076386081190270, abs=1e-15)

    def test_hr_crossing_point(self):
        ev = exp_closed(1.29639)
        assert ev.var_phi * ev.var_lz == pytest.approx(0.25, abs=5e-4)

    def test_small_alpha_product_law(self):
        ev = exp_closed(1e-3)
        assert abs(ev.var_phi / 1e-6 - 1.0) < 0.15
        assert abs(ev.var_phi * ev.var_lz / 0.5 - 1.0) < 0.01

    def test_large_alpha_laws(self):
        ev = exp_closed(10.0)
        assert abs(ev.var_phi - PI2_3) < 1e-3
        assert abs(math.exp(20.0) * ev.var_lz / 2.0 - 1.0) < 1e-4

    def test_no_overflow_far_out(self):
        ev = exp_closed(500.0)
        assert ev.var_lz == pytest.approx(0.0, abs=1e-300)
        assert ev.var_phi == pytest.approx(PI2_3, abs=1e-12)
        assert exp_state_bound(500.0) >= 0.0

    @pytest.mark.parametrize("alpha", [800.0, 1e308])
    def test_finite_beyond_cosh_overflow(self, alpha):
        ev = exp_closed(alpha)
        assert all(
            math.isfinite(getattr(ev, f))
            for f in ("var_phi", "var_lz", "g_value", "dilog_value",
                      "mean_cos", "var_sin", "var_cos")
        )
        assert ev.mean_cos == 0.0
        assert ev.var_phi == pytest.approx(PI2_3, abs=1e-12)

    def test_mean_cos_is_sech(self):
        for a in np.geomspace(1e-3, 700.0, 400):
            sech = 1.0 / math.cosh(a)
            assert abs(exp_closed(a).mean_cos - sech) <= 4 * np.finfo(float).eps * sech

    def test_var_cos_keeps_full_precision_at_small_alpha(self):
        # reference: <cos^2> - <cos phi>^2 = (1 - u^2)/2 + u sech - sech^2,
        # cancelled in 60-digit arithmetic
        with mpmath.workdps(60):
            for a in np.geomspace(1e-8, 700.0, 400):
                x = mpmath.mpf(float(a))
                u, sech = mpmath.exp(-x), mpmath.sech(x)
                ref = (1 - u * u) / 2 + u * sech - sech * sech
                got = exp_closed(float(a)).var_cos
                assert abs(got - ref) <= 4 * np.finfo(float).eps * ref, a

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_agrees_with_series_engine(self, alpha):
        ev = exp_closed(alpha)
        s = build_spectrum(exponential_family(), alpha)
        _, _, var_phi = phi_moments(s)
        _, _, var_lz = lz_moments(s)
        assert abs(var_phi - ev.var_phi) <= 1e-9 * abs(ev.var_phi)
        assert abs(var_lz - ev.var_lz) <= 1e-9 * abs(ev.var_lz)

    def test_trig_completeness(self):
        # <sin^2> + <cos^2> = 1
        for a in (0.05, 0.7, 3.0, 20.0):
            ev = exp_closed(a)
            total = ev.var_sin + ev.var_cos + ev.mean_cos**2  # mean_sin = 0
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameter):
            exp_closed(0.0)
        with pytest.raises(InvalidParameter):
            exp_closed(-2.0)


class TestExpBoundary:
    def test_weight_matches_naive_expression(self):
        for a in (0.3, 1.0, 5.0):
            naive = 0.5 * (1.0 - math.tanh(a) * math.tanh(a / 2.0) ** 2)
            assert exp_state_bound(a) == pytest.approx(naive, rel=1e-14)

    def test_state_bound_is_cancellation_free_at_large_alpha(self):
        # 1 - 2 pi |f(pi)|^2 ~ 4 e^-alpha: the direct form loses digits,
        # the factored one does not
        a = 30.0
        want = math.exp(-a) * (2.0 - math.exp(-a) + math.exp(-2 * a)) / (
            (1.0 + math.exp(-2 * a)) * (1.0 + math.exp(-a))
        )
        assert exp_state_bound(a) == pytest.approx(want, rel=1e-15)
        assert exp_state_bound(a) == pytest.approx(2.0 * math.exp(-a), rel=1e-12)


class TestPolyClosed:
    def test_alpha_two_zeta_ratio(self):
        ev = poly_closed(2.0)
        assert ev.var_lz == pytest.approx(15.0 / PI**2, abs=1e-12)
        assert ev.norm_sq == pytest.approx(1.0 / (4.0 * PI * (PI**4 / 90.0)), rel=1e-12)

    def test_large_alpha_product_limit(self):
        ev = poly_closed(50.0)
        assert ev.var_phi * ev.var_lz == pytest.approx(PI2_3 + 0.5, abs=1e-3)

    @pytest.mark.parametrize("alpha", [1.5, 1.2, 0.7])
    def test_divergent_below_three_halves(self, alpha):
        with pytest.raises(DivergentMoment):
            poly_closed(alpha)

    def test_var_phi_against_series_on_tight_window(self):
        # independent window: direct build at a different tolerance
        ev = poly_closed(2.5)
        s = build_spectrum(polynomial_family(), 2.5, rel_tol=1e-10)
        _, _, var_phi = phi_moments(s)
        assert ev.var_phi == pytest.approx(var_phi, abs=5e-8)


class TestXiResummed:
    def test_matches_generic_engine(self):
        s = build_spectrum(exponential_family(), 1.0)
        assert abs(exp_xi_resummed(1.0) - xi_sum(s)) < 1e-10

    def test_limit_alpha_large(self):
        assert abs(exp_xi_resummed(20.0)) < 1e-8

    def test_small_alpha_limit_recovers_uniform_variance_cancellation(self):
        # 2 tanh(a) xi(a) -> -pi^2/3; at a = 0.01 the gap is var_phi ~ a^2
        a = 0.01
        val = 2.0 * math.tanh(a) * exp_xi_resummed(a)
        assert val + PI2_3 == pytest.approx(a * a, rel=0.15)

    def test_monotone_increasing_combination(self):
        # tanh(a) xi(a) is monotone increasing in alpha
        grid = np.geomspace(0.05, 10.0, 24)
        vals = [math.tanh(a) * exp_xi_resummed(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergent):
            exp_xi_resummed(1e-4, k_max=100)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameter):
            exp_xi_resummed(0.0)


class TestAppendixExpansions:
    def test_g_small_alpha_coefficients(self):
        # g(alpha) = -4 ln2 alpha + 2 alpha^2 + O(alpha^3)
        alphas = np.linspace(1e-3, 5e-2, 30)
        g = np.array([exp_closed(a).g_value for a in alphas])
        c = np.polynomial.polynomial.polyfit(alphas, g, [1, 2, 3])
        assert abs(c[1] / (-4.0 * math.log(2.0)) - 1.0) < 0.01
        assert abs(c[2] / 2.0 - 1.0) < 0.01

    def test_g_cubic_remainder_is_bounded(self):
        for a in np.linspace(1e-3, 5e-2, 20):
            model = -4.0 * math.log(2.0) * a + 2.0 * a * a
            assert abs(exp_closed(a).g_value - model) <= 0.5 * a**3

    def test_dilog_small_alpha_coefficients(self):
        # Li2(-e^-a) = -pi^2/12 + ln2 a - a^2/4 + O(a^3)
        alphas = np.linspace(1e-3, 5e-2, 30)
        li = np.array([exp_closed(a).dilog_value for a in alphas])
        c = np.polynomial.polynomial.polyfit(alphas, li, [0, 1, 2, 3])
        assert abs(c[0] / (-(PI**2) / 12.0) - 1.0) < 0.01
        assert abs(c[1] / math.log(2.0) - 1.0) < 0.01
        assert abs(c[2] / (-0.25) - 1.0) < 0.01
