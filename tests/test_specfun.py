import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gedpower import specfun
from gedpower.specfun import (
    ConvergenceError,
    exp_or_inf,
    inv_reg_gamma_upper,
    log_gamma,
    log_reg_gamma_upper,
    pow_or_inf,
    reg_gamma_lower,
    reg_gamma_upper,
)
from oracles import quad_reg_lower


class TestOverflowHelpers:
    """The one overflow rule: a value past the double range is inf."""

    def test_exp_or_inf_at_the_edge_of_the_double_range(self):
        assert exp_or_inf(709.78) == math.exp(709.78) < math.inf
        assert exp_or_inf(709.79) == math.inf
        assert exp_or_inf(math.inf) == math.inf
        assert exp_or_inf(-math.inf) == 0.0
        assert exp_or_inf(-800.0) == 0.0

    def test_pow_or_inf_at_the_edge_of_the_double_range(self):
        assert pow_or_inf(1e200, 2.0) == math.inf
        assert pow_or_inf(1e150, 2.0) == 1e150**2 < math.inf
        assert pow_or_inf(1e-200, 2.0) == 0.0
        assert pow_or_inf(0.0, 0.5) == 0.0


class TestLogGamma:
    def test_gamma_one_is_exact(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_integer(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_quarter_vs_quadrature(self):
        # Gamma(1/4) = 3.6256099082...; oracle integrates the definition
        from oracles import quad_gamma_integral

        oracle = math.log(quad_gamma_integral(0.25))
        assert log_gamma(0.25) == pytest.approx(oracle, rel=1e-10)
        assert log_gamma(0.25) == pytest.approx(1.2880225246980774, rel=1e-13)

    def test_recurrence_consistency(self):
        for x in (0.05, 0.3, 0.49):
            assert log_gamma(x + 1.0) - math.log(x) == pytest.approx(
                log_gamma(x), rel=1e-13
            )

    def test_against_libm(self):
        for x in np.linspace(0.1, 50.0, 37):
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)

    def test_against_mpmath(self):
        # lambda's arguments 1/v and 3/v over the supported shapes, and
        # random x.  Near x = 63, |log Gamma| is about 190 and 5e-14 is one
        # or two ulp, so the absolute bound holds at lambda's arguments only
        eps = 2.0**-52
        vs = [0.05 + (20.0 - 0.05) * k / 999 for k in range(1000)]
        shape_args = [a for v in vs for a in (1.0 / v, 3.0 / v)]
        rng = random.Random(7)
        random_args = [rng.uniform(1e-3, 63.0) for _ in range(2000)]
        with mp.workdps(50):
            for i, x in enumerate(shape_args + random_args):
                ref = mp.loggamma(x)
                err = abs(mp.mpf(log_gamma(x)) - ref)
                assert err <= 8.0 * eps * max(1.0, abs(ref)), x
                assert i >= len(shape_args) or err <= 5e-14, x

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestRegGamma:
    def test_lower_at_zero(self):
        assert reg_gamma_lower(1.0, 0.0) == 0.0

    def test_exponential_law(self):
        assert reg_gamma_lower(1.0, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-13)

    def test_half_shape_is_normal_coverage(self):
        # P(1/2, 1/2) = 2 Phi(1) - 1
        assert reg_gamma_lower(0.5, 0.5) == pytest.approx(0.6826894921370859, rel=1e-12)

    def test_upper_trivial(self):
        assert reg_gamma_upper(0.5, 0.0) == 1.0

    def test_upper_far_tail_relative_accuracy(self):
        assert reg_gamma_upper(1.0, 40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)

    def test_upper_closed_form_shape_two(self):
        # Q(2, x) = (1 + x) e^(-x)
        assert reg_gamma_upper(2.0, 5.0) == pytest.approx(6.0 * math.exp(-5.0), rel=1e-13)

    def test_quadrature_oracle_100_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            a = rng.uniform(0.1, 10.0)
            x = rng.uniform(0.0, 3.0 * a + 5.0)
            if x == 0.0:
                continue
            p_oracle = quad_reg_lower(a, x)
            assert reg_gamma_lower(a, x) == pytest.approx(p_oracle, rel=1e-10, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_gamma_lower(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper(1.0, -0.5)

    @pytest.mark.parametrize(
        "fn", [reg_gamma_lower, reg_gamma_upper, log_reg_gamma_upper])
    def test_nan_argument_rejected(self, fn):
        with pytest.raises(ValueError, match="nan"):
            fn(0.5, math.nan)

    def test_infinite_argument_limits(self):
        assert reg_gamma_upper(0.5, math.inf) == 0.0
        assert log_reg_gamma_upper(0.5, math.inf) == -math.inf
        assert reg_gamma_lower(0.5, math.inf) == 1.0

    def test_iteration_cap_reported_distinctly(self):
        # the series at a = x = 1e6 needs far more than 500 terms
        with pytest.raises(ConvergenceError):
            reg_gamma_lower(1e6, 1e6)

    @given(
        a=st.floats(min_value=0.05, max_value=20.0),
        x=st.floats(min_value=0.0, max_value=60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_complementarity(self, a, x):
        total = reg_gamma_lower(a, x) + reg_gamma_upper(a, x)
        assert abs(total - 1.0) <= 2e-14

    @given(a=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_x(self, a):
        grid = np.linspace(0.0, 4.0 * a + 8.0, 25)
        values = [reg_gamma_lower(a, x) for x in grid]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_log_upper_matches_linear_scale(self):
        for a in (0.25, 1.0, 3.5):
            for x in (0.3, 2.0, 15.0, 60.0):
                assert math.exp(log_reg_gamma_upper(a, x)) == pytest.approx(
                    reg_gamma_upper(a, x), rel=1e-12
                )

    def test_log_upper_beyond_underflow(self):
        # Q(1, 800) = e^-800 underflows; the log stays exact
        assert log_reg_gamma_upper(1.0, 800.0) == pytest.approx(-800.0, rel=1e-12)


class TestInverse:
    def test_exponential_points(self):
        assert inv_reg_gamma_upper(1.0, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert inv_reg_gamma_upper(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bisection_oracle(self):
        # independent bracketing bisection on reg_gamma_upper
        a, q = 0.5, 0.05
        lo, hi = 1e-8, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if reg_gamma_upper(a, mid) > q:
                lo = mid
            else:
                hi = mid
        assert inv_reg_gamma_upper(a, q) == pytest.approx(0.5 * (lo + hi), rel=1e-10)
        assert inv_reg_gamma_upper(a, q) == pytest.approx(1.9207294103, rel=1e-9)

    @pytest.mark.parametrize("q", [1e-10, 1e-4, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 7.5])
    def test_round_trip(self, a, q):
        x = inv_reg_gamma_upper(a, q)
        assert reg_gamma_upper(a, x) == pytest.approx(q, rel=1e-13)

    def test_edge_grid(self):
        # every call returns a root within the log Q noise floor or raises
        # an error with a message; on the supported shapes a = 1/v,
        # v in [0.5, 4], every call returns a root
        qs = [float(q) for q in np.geomspace(1e-300, 0.5, 25)]
        qs += [1.0 - float(w) for w in np.geomspace(1e-16, 0.5, 20)]
        for a in np.geomspace(0.01, 20.0, 25):
            a = float(a)
            supported = 0.25 <= a <= 2.0
            for q in qs:
                try:
                    x = inv_reg_gamma_upper(a, q)
                except (ConvergenceError, ValueError) as exc:
                    assert not supported, (a, q, exc)
                    assert str(exc) and "math domain" not in str(exc)
                    continue
                resid = abs(log_reg_gamma_upper(a, x) - math.log(q))
                assert resid <= max(1e-13, 5e-15 * abs(math.log(q))), (a, q, x)

    def test_root_below_double_range(self):
        with pytest.raises(ValueError, match="underflows"):
            inv_reg_gamma_upper(0.01, 1.0 - 1e-16)

    def test_evaluations_per_call(self, monkeypatch):
        # solver work guard: log Q evaluations per inverse call
        counts = []
        log_q = specfun._log_q

        def counting(*args):
            counts[-1] += 1
            return log_q(*args)

        monkeypatch.setattr(specfun, "_log_q", counting)
        qs = [float(q) for q in np.geomspace(1e-300, 0.5, 30)]
        qs += [1.0 - float(w) for w in np.geomspace(1e-15, 0.5, 20)]
        for a in (0.25, 1.0 / 3.0, 0.5, 0.75, 1.0, 1.5, 2.0):
            for q in qs:
                counts.append(0)
                inv_reg_gamma_upper(a, q)
        assert max(counts) <= 5  # measured maximum: 4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inv_reg_gamma_upper(1.0, 0.0)
        with pytest.raises(ValueError):
            inv_reg_gamma_upper(1.0, 1.0)
        with pytest.raises(ValueError):
            inv_reg_gamma_upper(-1.0, 0.5)
