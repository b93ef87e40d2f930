import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gedpower import norming, specfun
from gedpower.ged import make_params, survival
from gedpower.norming import (
    gumbel_constants,
    hall_constants,
    optimal_constants,
    power_constants,
    solve_bn,
)
from gedpower.specfun import ConvergenceError
from oracles import mp_lambda


class TestGumbelConstants:
    def test_laplace_closed_form(self):
        params = make_params(1.0)
        for n in (10, 10**4, 10**9):
            nm = gumbel_constants(params, n)
            assert nm.scale == pytest.approx(2.0**-0.5, rel=1e-14)
            assert nm.shift == pytest.approx(math.log(n / 2.0) / math.sqrt(2.0), rel=1e-13)

    def test_formula_transcription_normal(self):
        # v = 2, lam = 1: scale = 2^(1/2) / (2 sqrt(log n)),
        # shift = sqrt(2 log n) - scale (log log n / 2 + log(2 Gamma(1/2)))
        params = make_params(2.0)
        n = 10**6
        ln = math.log(n)
        nm = gumbel_constants(params, n)
        lam = params.lam
        scale = 2.0**0.5 * lam / (2.0 * ln**0.5)
        shift = 2.0**0.5 * lam * ln**0.5 - scale * (
            0.5 * math.log(ln) + math.log(2.0 * math.gamma(0.5))
        )
        assert nm.scale == pytest.approx(scale, rel=1e-13)
        assert nm.shift == pytest.approx(shift, rel=1e-13)

    def test_tail_calibration_trend(self):
        # n * survival(scale x + shift) approaches e^-x
        params = make_params(2.0)
        n = 10**6
        nm = gumbel_constants(params, n)
        val = n * survival(params, nm.shift)
        assert val == pytest.approx(1.0, rel=0.10)

    def test_min_n(self):
        with pytest.raises(ValueError):
            gumbel_constants(make_params(2.0), 2)

    def test_log_n_mode_agrees(self):
        params = make_params(0.5)
        a = gumbel_constants(params, 10**6)
        b = gumbel_constants(params, log_n=math.log(10**6))
        assert a.scale == pytest.approx(b.scale, rel=1e-14)
        assert a.shift == pytest.approx(b.shift, rel=1e-14)


class TestPowerConstants:
    def test_reduces_to_gumbel_at_unit_power(self):
        params = make_params(2.0)
        a = power_constants(params, 1.0, 10**5)
        g = gumbel_constants(params, 10**5)
        assert a.scale == pytest.approx(g.scale, rel=1e-14)
        assert a.shift == pytest.approx(g.shift, rel=1e-14)

    def test_laplace_cubed(self):
        # v=1, p=3, n=100: scale = 3 2^(-3/2) (ln 50)^2, shift = (2^(-1/2) ln 50)^3
        nm = power_constants(make_params(1.0), 3.0, 100)
        l50 = math.log(50.0)
        assert nm.scale == pytest.approx(3.0 * 2.0**-1.5 * l50**2, rel=1e-13)
        assert nm.shift == pytest.approx((l50 / math.sqrt(2.0)) ** 3, rel=1e-13)

    def test_laplace_general_power_formula(self):
        # alpha* = p 2^(-p/2) (log n/2)^(p-1)
        p = 2.5
        n = 10**4
        nm = power_constants(make_params(1.0), p, n)
        l = math.log(n / 2.0)
        assert nm.scale == pytest.approx(p * 2.0 ** (-p / 2.0) * l ** (p - 1.0), rel=1e-13)
        assert nm.shift == pytest.approx((l / math.sqrt(2.0)) ** p, rel=1e-13)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            power_constants(make_params(1.0), 0.0, 100)


class TestSolveBn:
    def test_normal_small_n_vs_bisection(self):
        # sqrt(2 pi) b e^(b^2/2) = 10, bracketing bisection as oracle
        params = make_params(2.0)
        target = 10.0

        def lhs(b):
            return math.sqrt(2.0 * math.pi) * b * math.exp(b * b / 2.0)

        lo, hi = 0.1, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if lhs(mid) < target:
                lo = mid
            else:
                hi = mid
        sol = solve_bn(params, 10)
        assert sol.b_n == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    @pytest.mark.parametrize("v", (0.5, 2.0, 4.0))
    @pytest.mark.parametrize("n", (10**2, 10**4, 10**8, 10**12))
    def test_residual_by_independent_substitution(self, v, n):
        # plug b_n back into the raw calibration equation with libm lgamma
        params = make_params(v)
        sol = solve_bn(params, n)
        lam = params.lam
        log_lhs = (
            math.log(2.0) / v
            + (1.0 - v) * math.log(lam)
            + math.lgamma(1.0 / v)
            + (v - 1.0) * math.log(sol.b_n)
            + sol.b_n**v / (2.0 * lam**v)
        )
        assert abs(math.expm1(log_lhs - math.log(n))) <= 1e-12
        assert abs(sol.residual) <= 1e-12

    def test_leading_asymptotics(self):
        # b_n^v / (2 lam^v log n) -> 1 monotonically from below-ish
        params = make_params(2.0)
        ratios = []
        for e in (2, 4, 8, 16, 32):
            ln = e * math.log(10.0)
            sol = solve_bn(params, log_n=ln)
            ratios.append(sol.b_n**2 / (2.0 * ln))
        assert all(abs(r - 1.0) < 0.5 for r in ratios)
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_laplace_closed_form(self):
        # at v = 1 the equation collapses to 2 e^(sqrt(2) b) = n
        params = make_params(1.0)
        for n in (10, 10**6):
            sol = solve_bn(params, n)
            assert sol.b_n == pytest.approx(math.log(n / 2.0) / math.sqrt(2.0), rel=1e-13)

    def test_log_n_mode_agrees_at_1e15(self):
        params = make_params(0.5)
        a = solve_bn(params, 10**15)
        b = solve_bn(params, log_n=15.0 * math.log(10.0))
        assert a.b_n == pytest.approx(b.b_n, rel=1e-12)

    @pytest.mark.parametrize("v,log_n", [
        (0.05, 5.0), (0.05, 7.0), (0.1, 3.0), (0.01, 5.0), (0.02, 5.0),
        (0.01, 10.0), (0.01, 20.0), (0.01, 700.0), (0.02, 7.0), (0.02, 20.0),
    ])
    def test_small_shape_root_below_b0(self, v, log_n):
        # b_0 lies below the minimum b_stat of the log LHS here, and the
        # small-v iterates alternate at the rounding noise of the log LHS;
        # both used to exhaust the iteration cap
        params = make_params(v)
        lam = params.lam
        sol = solve_bn(params, log_n=log_n)
        b_stat = (2.0 * lam**v * (1.0 - v) / v) ** (1.0 / v)
        assert sol.b_n > b_stat
        log_lhs = (math.log(2.0) / v + (1.0 - v) * math.log(lam)
                   + math.lgamma(1.0 / v) + (v - 1.0) * math.log(sol.b_n)
                   + sol.b_n**v / (2.0 * lam**v))
        assert abs(math.expm1(log_lhs - log_n)) <= 1e-12
        assert abs(sol.residual) <= 1e-12

    @pytest.mark.parametrize("v,log_n", [
        (0.05, 7.0), (0.5, 30.0), (2.0, 10.0), (4.0, 700.0),
    ])
    def test_log_gamma_once_per_solve(self, monkeypatch, v, log_n):
        # Gamma(1/v) is taken once per solve, not once per iterate; below
        # 0.5 the recurrence adds one call at 1/v + 1
        params = make_params(v)
        calls = []

        def counting(x, real=specfun.log_gamma):
            calls.append(x)
            return real(x)

        for module in (specfun, norming):
            monkeypatch.setattr(module, "log_gamma", counting)
        solve_bn(params, log_n=log_n)
        assert len(calls) == 1 + (1.0 / v < 0.5)

    @pytest.mark.parametrize("v,n", [(1.5, 2), (1.0, 3)])
    def test_root_below_the_lower_bracket(self, v, n):
        # log LHS(b_0/2) > log n here, so the lower end of the bracket is
        # halved before Newton starts; the root is checked against a
        # 40-digit root of the log equation
        with mp.workdps(40):
            lam, vv, ln = mp_lambda(v), mp.mpf(v), mp.log(n)
            head = mp.log(2) / vv + (1 - vv) * mp.log(lam) + mp.loggamma(1 / vv)

            def f(b):
                return head + (vv - 1) * mp.log(b) + b**vv / (2 * lam**vv) - ln

            b0 = (2 * lam**vv * ln) ** (1 / vv)
            assert f(b0 / 2) > 0
            root = mp.findroot(f, (b0 / 10**6, b0 / 2), solver="anderson")
        sol = solve_bn(make_params(v), n)
        assert abs(sol.b_n / float(root) - 1.0) <= 1e-14
        assert abs(sol.residual) <= max(1e-13, math.log(n) * 5e-15)

    def test_no_root_reported(self):
        # for v < 1 and tiny n the increasing branch never reaches n
        with pytest.raises(ConvergenceError):
            solve_bn(make_params(0.5), 2)

    # make_params rejects v below 0.00860301..., where lambda is subnormal
    @given(v=st.floats(min_value=0.0086031, max_value=20.0),
           log_n=st.floats(min_value=math.log(2.0), max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_residual_within_target_or_a_named_failure(self, v, log_n):
        # a root within the stated target; no root, where the log LHS at its
        # minimum b_stat = (2 lam^v (1 - v)/v)^(1/v) is above log n; or a
        # root past the double range, which no bracket reaches
        params = make_params(v)
        lam = params.lam
        head = math.log(2.0) / v + (1.0 - v) * math.log(lam) + math.lgamma(1.0 / v)

        def f(log_b):  # log LHS(b) - log n
            return head + (v - 1.0) * log_b + math.exp(v * log_b) / (2.0 * lam**v) - log_n

        f_stat = f(math.log(2.0 * lam**v * (1.0 - v) / v) / v) if v < 1.0 else -math.inf
        assume(abs(f_stat) >= 1e-9)
        no_root = f_stat > 0.0
        # f increases past b_stat, so f(log max) < 0 puts the root past the
        # double range; a root in [max/2, max] may or may not be bracketed.
        # At v >= 1 the root is below 1e7 on this log n range.
        big = math.log(sys.float_info.max)
        overflows = v < 1.0 and f(big) < 0.0
        assume(overflows or v >= 1.0 or f(big - math.log(2.0)) > 0.0)
        try:
            sol = solve_bn(params, log_n=log_n)
        except ConvergenceError:
            assert no_root and not overflows
        except ValueError:
            assert overflows
        else:
            assert not no_root and not overflows
            assert abs(math.log1p(sol.residual)) <= max(1e-13, 5e-15 * log_n)

    def test_huge_log_n(self):
        # at log n = 1e6 the log-form itself carries ~log n * eps noise,
        # so the residual floor is ~1e-10 rather than 1e-12
        sol = solve_bn(make_params(4.0), log_n=1e6)
        assert abs(sol.residual) <= 1e-9


class TestHallConstants:
    def test_normal_specialization(self):
        # v = 2, lam = 1: scale = p b^(p-2), shift = b^p
        params = make_params(2.0)
        p = 1.7
        n = 10**5
        b = solve_bn(params, n).b_n
        nm = hall_constants(params, p, n)
        assert nm.scale == pytest.approx(p * b ** (p - 2.0), rel=1e-13)
        assert nm.shift == pytest.approx(b**p, rel=1e-13)

    def test_coincides_with_power_at_laplace(self):
        params = make_params(1.0)
        for p in (1.0, 2.0, 3.5):
            h = hall_constants(params, p, 10**4)
            w = power_constants(params, p, 10**4)
            assert h.scale == pytest.approx(w.scale, rel=1e-12)
            assert h.shift == pytest.approx(w.shift, rel=1e-12)

    def test_power_equals_shape_scale(self):
        # p = v: scale = 2 lam^v exactly, shift = b^v
        params = make_params(4.0)
        nm = hall_constants(params, 4.0, 10**6)
        assert nm.scale == pytest.approx(2.0 * params.lam**4, rel=1e-13)


class TestOptimalConstants:
    def test_hall_normal_forms(self):
        # v = 2: scale = 2 - 2 b^-2, shift = b^2 - 2 b^-2
        params = make_params(2.0)
        for n in (10**4, 10**8, 10**12):
            b = solve_bn(params, n).b_n
            nm = optimal_constants(params, n)
            assert nm.scale == pytest.approx(2.0 - 2.0 / b**2, rel=1e-12)
            assert nm.shift == pytest.approx(b**2 - 2.0 / b**2, rel=1e-12)

    def test_scale_limit(self):
        params = make_params(4.0)
        far = optimal_constants(params, log_n=1e5)
        assert far.scale == pytest.approx(2.0 * params.lam**4, rel=1e-4)

    def test_heavy_shape_positive_correction(self):
        params = make_params(0.5)
        nm = optimal_constants(params, 10**6)
        assert nm.scale > 2.0 * params.lam**0.5

    def test_rejects_laplace(self):
        with pytest.raises(ValueError):
            optimal_constants(make_params(1.0), 10**6)


def test_mode_exclusivity():
    params = make_params(2.0)
    with pytest.raises(ValueError):
        solve_bn(params, 100, log_n=5.0)
    with pytest.raises(ValueError):
        solve_bn(params)
