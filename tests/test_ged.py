import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from gedpower.ged import (
    cdf,
    log_survival,
    make_params,
    pdf,
    quantile,
    survival,
    tail_expansion_coefficients,
    tail_survival_expansion,
)
from oracles import mp_lambda

V_GRID = (0.5, 1.0, 2.0, 4.0)


class TestParams:
    def test_normal_scale(self):
        assert make_params(2.0).lam == pytest.approx(1.0, rel=1e-12)

    def test_laplace_scale(self):
        assert make_params(1.0).lam == pytest.approx(2.0**-1.5, rel=1e-12)

    def test_shape_four_vs_libm(self):
        # sqrt(2^(-1/2) Gamma(1/4) / Gamma(3/4)) via an independent log-gamma
        oracle = math.exp(
            0.5 * (-0.5 * math.log(2.0) + math.lgamma(0.25) - math.lgamma(0.75))
        )
        assert make_params(4.0).lam == pytest.approx(oracle, rel=1e-12)
        assert make_params(4.0).lam == pytest.approx(1.4464090846320772, rel=1e-12)

    @pytest.mark.parametrize("v", V_GRID + (0.3, 3.0, 10.0))
    def test_scale_recomputable(self, v):
        lam = make_params(v).lam
        direct = math.sqrt(
            2.0 ** (-2.0 / v)
            * math.exp(math.lgamma(1.0 / v) - math.lgamma(3.0 / v))
        )
        assert lam == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("v", (0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    def test_scale_within_four_ulp(self, v):
        lam = make_params(v).lam
        with mp.workdps(50):
            assert abs(lam - mp_lambda(v)) <= 4.0 * math.ulp(lam)

    def test_domain(self):
        with pytest.raises(ValueError):
            make_params(0.0)
        with pytest.raises(ValueError):
            make_params(-2.0)

    def test_shape_bound(self):
        assert make_params(20.0).v == 20.0
        for v in (20.5, 1000.0, math.inf):
            with pytest.raises(ValueError, match=r"v must be in \(0, 20\]"):
                make_params(v)

    def test_scale_underflow_rejected(self):
        # lambda is 0.0 at v = 1e-3 and a subnormal below v = 0.00860301288385596
        for v in (1e-3, 0.0085, 0.0086, 0.008603012):
            with pytest.raises(ValueError, match="normal double range"):
                make_params(v)
        assert make_params(0.008603013).lam >= sys.float_info.min
        assert make_params(0.01).lam == pytest.approx(7.545036871186963e-259, rel=1e-10)


class TestDensity:
    def test_normal_at_zero(self):
        assert pdf(make_params(2.0), 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-13
        )

    def test_laplace_at_zero(self):
        assert pdf(make_params(1.0), 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    @pytest.mark.parametrize("v", V_GRID)
    def test_even(self, v):
        params = make_params(v)
        for x in (0.3, 1.7, 4.2):
            assert pdf(params, x) == pytest.approx(pdf(params, -x), rel=1e-14)

    @pytest.mark.parametrize("v", V_GRID)
    def test_normalization_by_quadrature(self, v):
        params = make_params(v)
        half, _ = integrate.quad(
            lambda t: pdf(params, t), 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300
        )
        assert 2.0 * half == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("v", V_GRID)
    def test_derivative_of_cdf(self, v):
        # central difference of the cdf reproduces the density to O(h^2)
        params = make_params(v)
        h = 1e-5
        for x in (0.5, 1.0, 2.5):
            fd = (cdf(params, x + h) - cdf(params, x - h)) / (2.0 * h)
            assert fd == pytest.approx(pdf(params, x), rel=1e-8)


class TestCdfSurvival:
    @pytest.mark.parametrize("v", V_GRID)
    def test_median_at_zero(self, v):
        assert cdf(make_params(v), 0.0) == 0.5
        assert survival(make_params(v), 0.0) == 0.5

    def test_laplace_closed_form(self):
        # 1 - G_1(x) = e^(-sqrt(2) x) / 2 for x >= 0, to machine precision
        params = make_params(1.0)
        for x in np.linspace(0.0, 30.0, 61):
            assert survival(params, x) == pytest.approx(
                0.5 * math.exp(-math.sqrt(2.0) * x), rel=5e-14
            )

    def test_laplace_cdf_value(self):
        assert cdf(make_params(1.0), 1.0) == pytest.approx(
            1.0 - 0.5 * math.exp(-math.sqrt(2.0)), rel=1e-13
        )

    def test_normal_cdf_value(self):
        assert cdf(make_params(2.0), 1.0) == pytest.approx(
            0.5 * special.erfc(-1.0 / math.sqrt(2.0)), rel=1e-12
        )

    def test_normal_deep_tail(self):
        assert survival(make_params(2.0), 10.0) == pytest.approx(
            0.5 * special.erfc(10.0 / math.sqrt(2.0)), rel=1e-10
        )

    @given(
        v=st.sampled_from(V_GRID),
        x=st.floats(min_value=-12.0, max_value=12.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, v, x):
        params = make_params(v)
        assert cdf(params, x) + cdf(params, -x) == pytest.approx(1.0, abs=1e-14)

    def test_survival_below_zero(self):
        params = make_params(1.0)
        assert survival(params, -1.0) == 1.0 - survival(params, 1.0)
        assert survival(params, -1.0) == pytest.approx(1.0 - 0.5 * math.exp(-math.sqrt(2.0)),
                                                       rel=1e-15)

    def test_log_survival_matches(self):
        for v in V_GRID:
            params = make_params(v)
            for x in (0.5, 2.0, 8.0):
                assert math.exp(log_survival(params, x)) == pytest.approx(
                    survival(params, x), rel=1e-12
                )

    def test_log_survival_past_underflow(self):
        # Laplace tail: log survival = -log 2 - sqrt(2) x, x far beyond underflow
        params = make_params(1.0)
        x = 1e6
        assert log_survival(params, x) == pytest.approx(
            -math.log(2.0) - math.sqrt(2.0) * x, rel=1e-14
        )


    @pytest.mark.parametrize("v", [2.0, 4.0, 20.0])
    def test_huge_arguments_match_infinity(self, v):
        # (x / lambda)^v overflows a double: the law's values at +-inf
        params = make_params(v)
        for x in (1e200, 1e308):
            assert (survival(params, x), log_survival(params, x)) == (0.0, -math.inf)
            assert (pdf(params, x), pdf(params, -x)) == (0.0, 0.0)
            assert (cdf(params, x), cdf(params, -x)) == (1.0, 0.0)
            assert survival(params, x) == survival(params, math.inf)
            assert cdf(params, -x) == cdf(params, -math.inf)


class TestQuantile:
    def test_median(self):
        assert quantile(make_params(2.0), 0.5) == 0.0

    def test_laplace_point(self):
        assert quantile(make_params(1.0), 0.9) == pytest.approx(
            -math.log(0.2) / math.sqrt(2.0), rel=1e-12
        )

    def test_normal_point(self):
        assert quantile(make_params(2.0), 0.975) == pytest.approx(
            1.959963984540054, rel=1e-11
        )

    @pytest.mark.parametrize("v", V_GRID)
    def test_round_trip_and_antisymmetry(self, v):
        params = make_params(v)
        for u in (1e-6, 0.01, 0.3, 0.77, 0.999):
            x = quantile(params, u)
            assert cdf(params, x) == pytest.approx(u, rel=1e-11, abs=1e-13)
            assert quantile(params, 1.0 - u) == pytest.approx(-x, rel=1e-11, abs=1e-13)

    @staticmethod
    def assert_inverts_smaller_tail(params, u):
        # survival(|x|) matches t = min(u, 1 - u) to about ln(t) * eps
        x = quantile(params, u)
        t = min(u, 1.0 - u)
        assert math.isfinite(x) and (x < 0.0) == (u < 0.5)
        assert abs(survival(params, abs(x)) / t - 1.0) <= 1e-14 * (1.0 + abs(math.log(t)))

    @given(
        log_v=st.floats(min_value=math.log(0.05), max_value=math.log(20.0)),
        log10_t=st.floats(min_value=-300.0, max_value=math.log10(0.5)),
        upper=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_smaller_tail_relative_accuracy(self, log_v, log10_t, upper):
        t = 10.0**log10_t
        u = 1.0 - t if upper else t
        if 0.0 < u < 1.0 and u != 0.5:
            self.assert_inverts_smaller_tail(make_params(math.exp(log_v)), u)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("u", (1e-10, 1e-15, 1e-300))
    def test_deep_lower_tail(self, v, u):
        self.assert_inverts_smaller_tail(make_params(v), u)

    @pytest.mark.parametrize("v", V_GRID)
    def test_smallest_subnormal(self, v):
        x = quantile(make_params(v), 5e-324)
        assert math.isfinite(x) and x < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            quantile(make_params(1.0), 0.0)
        with pytest.raises(ValueError):
            quantile(make_params(1.0), 1.2)


class TestTailExpansion:
    def test_first_coefficient_normal(self):
        # c_1 = 2 (1/v - 1) lambda^v = -1 at v = 2
        coeffs = tail_expansion_coefficients(make_params(2.0), 1)
        assert coeffs[0] == pytest.approx(-1.0, rel=1e-12)

    def test_coefficients_vanish_at_laplace(self):
        coeffs = tail_expansion_coefficients(make_params(1.0), 3)
        assert all(abs(c) < 1e-14 for c in coeffs)

    def test_rejects_laplace_and_small_x(self):
        with pytest.raises(ValueError):
            tail_survival_expansion(make_params(1.0), 10.0, 1)
        with pytest.raises(ValueError):
            tail_survival_expansion(make_params(2.0), 0.5, 1)
        with pytest.raises(ValueError):
            tail_expansion_coefficients(make_params(2.0), 4)

    def test_leading_normal_tail_bound(self):
        # order 0 at v = 2 is the classical phi(x)/x bound: rel err <= 2/x^2
        params = make_params(2.0)
        for x in (8.0, 12.0):
            rel = abs(tail_survival_expansion(params, x, 0) / survival(params, x) - 1.0)
            assert rel <= 2.0 / x**2

    def test_higher_order_improves(self):
        params = make_params(0.5)
        x = 50.0
        s = survival(params, x)
        err0 = abs(tail_survival_expansion(params, x, 0) / s - 1.0)
        err3 = abs(tail_survival_expansion(params, x, 3) / s - 1.0)
        assert err3 < err0

    @pytest.mark.parametrize("v,x0", [(0.75, 100.0), (2.0, 8.0), (4.0, 4.0)])
    def test_order3_error_scales_as_next_power(self, v, x0):
        # |expansion/survival - 1| ~ C x^(-4v) with stable C over [x0, 2x0]
        params = make_params(v)
        cs = []
        for x in (x0, 2.0 * x0):
            rel = abs(tail_survival_expansion(params, x, 3) / survival(params, x) - 1.0)
            cs.append(rel * x ** (4.0 * v))
        assert cs[0] > 0
        assert 0.2 <= cs[1] / cs[0] <= 5.0

    def test_half_shape_truncates_exactly(self):
        # at v = 1/2 every coefficient past c_1 carries a (1/v - 2) = 0
        # factor, so the order-1 expansion reproduces the tail exactly
        params = make_params(0.5)
        coeffs = tail_expansion_coefficients(params, 3)
        assert coeffs[1] == 0.0 and coeffs[2] == 0.0
        for x in (40.0, 400.0):
            assert tail_survival_expansion(params, x, 1) == pytest.approx(
                survival(params, x), rel=5e-14
            )
