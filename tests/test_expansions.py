import hashlib
import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gedpower.expansions import (
    ExpansionEval,
    NormedCase,
    case_norming,
    classify_case,
    correction_b,
    correction_h,
    correction_q,
    correction_s,
    exact_deficit,
    expand_ranks,
    gumbel_r,
    theorem_expansion,
)
from gedpower.ged import make_params
from gedpower.norming import hall_constants, optimal_constants, solve_bn
from oracles import (
    brute_upper_orderstat_cdf,
    gumbel_r_identities,
    lemma3_transfer,
    mp_expansion_terms,
    mp_gumbel_r,
    mp_tail_deficit,
    theta_deficit,
)

mp.mp.dps = 50


class TestGumbelLaw:
    def test_values(self):
        assert gumbel_r(1, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_r(1, 40.0) == pytest.approx(1.0, rel=1e-15)

    def test_round_trip_with_inverse(self):
        for q in (0.01, 0.3, 0.9):
            x = -math.log(-math.log(q))
            assert gumbel_r(1, x) == pytest.approx(q, rel=1e-14)

    def test_gumbel_r_basics(self):
        assert gumbel_r(0, 1.3) == 0.0
        assert gumbel_r(-2, 0.0) == 0.0
        assert gumbel_r(1, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert gumbel_r(2, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_gumbel_r_at_infinity_is_one(self):
        assert gumbel_r(1, math.inf) == 1.0
        assert gumbel_r(3, math.inf) == 1.0

    def test_far_left_tail_is_zero(self):
        # e^(-x) overflows below x = -709.78; Lambda_r is 0.0 there and at -inf
        for x in (-709.79, -710.0, -1000.0, -sys.float_info.max, -math.inf):
            for r in (1, 3, 171):
                assert gumbel_r(r, x) == 0.0
        assert gumbel_r(1, -709.0) == 0.0 and gumbel_r(3, -709.0) == 0.0
        assert math.isnan(gumbel_r(1, math.nan)) and math.isnan(gumbel_r(2, math.nan))

    def test_gumbel_r_is_at_most_one(self):
        # each of the r weights carries an exponent error of about
        # |exponent| eps; summed, they passed 1 (1 + 1.09e-14 at r = 171,
        # x = -4.3)
        for r in (1, 2, 3, 20, 50, 107, 171):
            for k in range(-26, 20):  # x = k/4 + 1/3 over [-6.2, 5.3]
                assert gumbel_r(r, k / 4 + 1 / 3) <= 1.0, (r, k)

    @given(r=st.integers(min_value=1, max_value=171),
           x=st.one_of(st.floats(min_value=-8.0, max_value=40.0),
                       st.floats(allow_nan=False, allow_infinity=False)),
           dx=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=300, deadline=None)
    def test_gumbel_r_is_a_distribution_function(self, r, x, dx):
        # a value in [0, 1] that never falls as x grows, but for rounding:
        # the weights' exponent errors make it dip by up to ~3.4e-14 relative
        lo, hi = gumbel_r(r, x), gumbel_r(r, x + dx)
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        assert hi >= lo * (1.0 - 1e-13)

    def test_gumbel_r_vs_mpmath(self):
        for r in (1, 3, 6):
            for x in (-2.0, 0.4, 3.0):
                assert gumbel_r(r, x) == pytest.approx(
                    float(mp_gumbel_r(r, x)), rel=1e-14
                )


class TestMomentIdentities:
    def test_rank_one_degenerate(self):
        lhs1, rhs1, _, _ = gumbel_r_identities(1, 0.9)
        assert lhs1 == 0.0
        assert rhs1 == 0.0

    @pytest.mark.parametrize("r", range(1, 9))
    def test_identities_hold(self, r):
        for x in np.linspace(-2.0, 4.0, 13):
            lhs1, rhs1, lhs2, rhs2 = gumbel_r_identities(r, x)
            assert lhs1 == pytest.approx(rhs1, rel=1e-13, abs=1e-15)
            assert lhs2 == pytest.approx(rhs2, rel=1e-13, abs=1e-15)

    def test_far_left_is_zero(self):
        # e^(-2x) overflows below x = -354.89, where Lambda(x) is 0.0
        for x in (-354.9, -400.0, -1000.0, -math.inf):
            assert gumbel_r_identities(3, x) == (0.0, 0.0, 0.0, 0.0)

    def test_spec_points(self):
        lhs1, rhs1, _, _ = gumbel_r_identities(3, 0.7)
        assert lhs1 == pytest.approx(rhs1, rel=1e-14)
        _, _, lhs2, rhs2 = gumbel_r_identities(5, -0.3)
        expected = math.exp(0.6) * gumbel_r(3, -0.3) + math.exp(0.3) * gumbel_r(4, -0.3)
        assert lhs2 == pytest.approx(expected, rel=1e-14)
        assert rhs2 == pytest.approx(expected, rel=1e-14)


class TestCaseRouting:
    def test_all_tags(self):
        assert classify_case(1.0, 1.0, theorem=1).tag == "t1_i"
        assert classify_case(1.0, 2.5, theorem=1).tag == "t1_ii"
        assert classify_case(0.5, 2.5, theorem=1).tag == "t1_iii"
        assert classify_case(0.5, 2.5, theorem=2).tag == "t2_i"
        assert classify_case(4.0, 4.0, theorem=2).tag == "t2_ii"

    def test_tie_tolerance(self):
        assert classify_case(1.0 + 1e-13, 1.0 - 1e-13, theorem=1).tag == "t1_i"
        assert classify_case(2.0, 2.0 + 1e-13, theorem=2).tag == "t2_ii"

    def test_theorem2_rejects_laplace(self):
        with pytest.raises(ValueError):
            classify_case(1.0, 2.0, theorem=2)

    def test_case_mismatch_error(self):
        params = make_params(2.0)
        bad = classify_case(2.0, 3.0, theorem=2)  # t2_i
        forged = type(bad)(tag="t2_i", v=2.0, p=2.0)  # belongs to t2_ii
        with pytest.raises(ValueError):
            theorem_expansion(params, forged, 1, 10**6, 0.0)

    def test_bad_theorem(self):
        with pytest.raises(ValueError):
            classify_case(2.0, 1.0, theorem=3)


class TestCorrections:
    def test_h_at_zero(self):
        for v, p in ((0.5, 1.0), (2.0, 3.0), (4.0, 1.0)):
            params = make_params(v)
            lam_v = params.lam ** v
            assert correction_h(params, p, 0.0) == pytest.approx(
                -2.0 * (1.0 / v - 1.0) * lam_v, rel=1e-13
            )

    def test_h_normal_power_two(self):
        # v = 2, p = 2: h(x) = (x + 1) e^(-x)
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert correction_h(make_params(2.0), 2.0, x) == pytest.approx(
                (x + 1.0) * math.exp(-x), rel=1e-12, abs=1e-14
            )

    def test_s_normal(self):
        # v = 2: s(x) = -(x^2 + 3x + 3.5) e^(-x)
        for x in (-0.5, 0.0, 1.0, 3.0):
            assert correction_s(make_params(2.0), x) == pytest.approx(
                -(x * x + 3.0 * x + 3.5) * math.exp(-x), rel=1e-12
            )

    def test_q_transcription_cross_check(self):
        # x^4..x^1 coefficients must negate the deficit-bracket transcription
        v, p = 2.0, 1.0
        # bracket: 1/2 (v-p)^2/v^2 x^4 - (v-p)/v^2 (2-4v/3-4p/3) x^3
        #          + 2 (1-v)/v^2 x^2 + 4(1/v-1)(1/v-2) x  (lam = 1 at v = 2)
        bracket = np.array([0.125, 0.5, -0.5, 3.0])  # x^4, x^3, x^2, x^1
        xs = np.array([0.5, 1.0, 2.0, 3.0])
        vandermonde = np.vander(xs, N=5, increasing=True)[:, 1:]  # x^1..x^4
        consts = np.array([
            correction_q(make_params(v), p, x) * math.exp(x) for x in xs
        ]) - vandermonde @ (-bracket[::-1])
        assert np.allclose(consts, consts[0], atol=1e-10)

    def test_degenerate_at_laplace(self):
        with pytest.raises(ValueError):
            correction_q(make_params(1.0), 2.0, 0.0)
        with pytest.raises(ValueError):
            correction_s(make_params(1.0), 0.0)
        with pytest.raises(ValueError):
            correction_b(make_params(1.0), 0.0)


class TestQVariantAdjudication:
    """Fit the second-order coefficient of the exact deficit and check that
    it lands on the eq34 constant, far away from the eq22 one."""

    @pytest.mark.parametrize("v,p", [(2.0, 1.0), (0.5, 1.0), (4.0, 3.0)])
    def test_constant_term_fit(self, v, p):
        params = make_params(v)
        x = 0.0
        case = classify_case(v, p, theorem=2)
        h = correction_h(params, p, x)
        fits = []
        for bv_target in (400.0, 800.0, 1600.0):
            # choose b directly, derive log n from the calibration identity
            b = bv_target ** (1.0 / v)
            log_n = (math.log(2.0) / v + (1.0 - v) * math.log(params.lam)
                     + math.lgamma(1.0 / v) + (v - 1.0) * math.log(b)
                     + b**v / (2.0 * params.lam**v))
            d = exact_deficit(NormedCase(params, case, log_n=log_n), x)
            fits.append((d - h * math.exp(x) / bv_target) * bv_target**2 * math.exp(-x))
        # Richardson in t = b^-v over the halving ladder
        r1 = 2.0 * fits[1] - fits[0]
        r2 = 2.0 * fits[2] - fits[1]
        fitted = (4.0 * r2 - r1) / 3.0
        q34 = correction_q(params, p, x)
        scale = params.lam ** (2.0 * v)
        # eq22 swaps the constant -4(1/v-1)(1/v-2) lam^2v for -4(1/v-1)^2 lam^2v
        vi = 1.0 / v
        q22 = q34 + (4.0 * (vi - 1.0) * (vi - 2.0)
                     - 4.0 * (vi - 1.0) ** 2) * scale * math.exp(-x)
        assert abs(fitted - q34) <= 1e-3 * max(abs(q34), scale)
        assert abs(fitted - q22) > 100.0 * abs(fitted - q34) + 0.1 * scale


class TestThetaDeficit:
    def test_laplace_unit_power_exact_zero(self):
        params = make_params(1.0)
        case = classify_case(1.0, 1.0, theorem=1)
        for n in (10**3, 10**9):
            for x in (-1.0, 0.0, 3.0):
                exact, predicted = theta_deficit(NormedCase(params, case, n), x)
                assert exact == 0.0
                assert predicted == 0.0

    def test_laplace_unit_power_numeric_channel(self):
        # the un-shortcut survival channel agrees at machine precision
        params = make_params(1.0)
        case = classify_case(1.0, 1.0, theorem=1)
        nm = case_norming(params, case, 10**6)
        from gedpower.ged import survival

        z = nm.scale * 1.0 + nm.shift  # the threshold at p = 1
        assert 10**6 * math.exp(1.0) * survival(params, z) == pytest.approx(
            1.0, rel=1e-13
        )

    def test_powered_laplace_prediction(self):
        params = make_params(1.0)
        case = classify_case(1.0, 3.0, theorem=1)
        exact, predicted = theta_deficit(NormedCase(params, case, 10**6), 1.0)
        lead = (1.0 - 3.0) / (2.0 * math.log(5e5))
        assert predicted == pytest.approx(exact, rel=0.02)
        assert exact == pytest.approx(lead, rel=0.1)

    def test_shape_two_prediction(self):
        params = make_params(2.0)
        case = classify_case(2.0, 1.0, theorem=2)
        exact, predicted = theta_deficit(NormedCase(params, case, 10**8), 0.0)
        b = solve_bn(params, 10**8).b_n
        assert exact == pytest.approx(correction_h(params, 1.0, 0.0) / b**2, rel=0.1)
        # the order-2 prediction is off by the b^-3v term only (~1.4%)
        assert predicted == pytest.approx(exact, rel=0.03)

    def test_threshold_positivity_enforced(self):
        params = make_params(1.0)
        case = classify_case(1.0, 1.0, theorem=1)
        with pytest.raises(ValueError, match="not positive"):
            exact_deficit(NormedCase(params, case, 8), -10.0)

    @pytest.mark.parametrize("v", (0.5, 2.0, 3.0))
    @pytest.mark.parametrize("tag", ("t2_i", "t2_ii"))
    @pytest.mark.parametrize("log_n", (100.0, 691.0))
    def test_exact_deficit_against_mpmath(self, tag, v, log_n):
        # the library's lambda, norming and double point z held fixed, the
        # tail in 50 digits. log n + x + log S(z) cancels: the error grows
        # like eps (log n)^2 for t2_i and eps (log n)^3 for t2_ii, relative
        # to the largest deficit on the grid (t2_ii's crosses 0 at x = -1)
        p = v / 2.0 if tag == "t2_i" else v
        params = make_params(v)
        cell = NormedCase(params, classify_case(v, p, theorem=2), log_n=log_n)
        assert cell.case.tag == tag
        nm = cell.norming
        errors, scale = [], 0.0
        for k in range(21):
            x = -1.0 + 0.2 * k
            z = (nm.scale * x + nm.shift) ** (1.0 / p)
            ref = mp_tail_deficit(v, params.lam, log_n, x, z)
            errors.append(float(abs(exact_deficit(cell, x) - ref)))
            scale = max(scale, float(abs(ref)))
        eps = 2.0**-52
        bound = eps * log_n**2 if tag == "t2_i" else 0.5 * eps * log_n**3
        assert max(errors) <= bound * scale

    @pytest.mark.parametrize(
        "tag,v,p,expo",
        [
            ("t1_ii", 1.0, 2.0, -3.0),   # residual ~ (log n/2)^-3
            ("t2_i", 2.0, 1.0, -6.0),    # residual ~ b^-3v at x=0
            ("t2_i", 4.0, 3.0, -12.0),   # residual ~ b^-3v at x=0
            ("t2_ii", 2.0, 2.0, -8.0),   # residual ~ b^-4v at x=0
        ],
    )
    def test_residual_slopes(self, tag, v, p, expo):
        # (exact - predicted at order 2) decays with the next-order exponent;
        # the fit variable is log(n/2) for t1_ii and b for the t2 cases
        params = make_params(v)
        case = classify_case(v, p, theorem=1 if tag.startswith("t1") else 2)
        assert case.tag == tag
        x = 0.5 if tag == "t1_ii" else 0.0
        logs, values = [], []
        for scale in (4.0, 8.0, 16.0, 32.0):
            if tag == "t1_ii":
                log_n = 10.0 * scale + math.log(2.0)
                var = math.log(10.0 * scale)
            else:
                b = (40.0 * scale) ** (1.0 / v)
                log_n = (math.log(2.0) / v + (1.0 - v) * math.log(params.lam)
                         + math.lgamma(1.0 / v) + (v - 1.0) * math.log(b)
                         + b**v / (2.0 * params.lam**v))
                var = math.log(b)
            exact, predicted = theta_deficit(NormedCase(params, case, log_n=log_n), x)
            resid = abs(exact - predicted)
            assert resid > 0
            logs.append(var)
            values.append(math.log(resid))
        slope = np.polyfit(logs, values, 1)[0]
        assert slope == pytest.approx(expo, rel=0.15)

    def test_t1_iii_residual_slope(self):
        # after removing both displayed orders the residual decays like
        # 1/log n; stay below log n ~ 1e6 where the exact channel carries
        # log n * eps noise that would swamp the residual
        params = make_params(2.0)
        case = classify_case(2.0, 2.0, theorem=1)
        logs, values = [], []
        for log_n in (1e4, 10**4.5, 1e5, 10**5.5, 1e6):
            exact, predicted = theta_deficit(NormedCase(params, case, log_n=log_n), 1.0)
            logs.append(math.log(log_n))
            values.append(math.log(abs(exact - predicted)))
        slope = np.polyfit(logs, values, 1)[0]
        assert slope == pytest.approx(-1.0, rel=0.15)


class TestPrintedQuadraticMismatch:
    """The printed quadratic correction's x^2 coefficient disagrees with the
    exact deficit by a factor (1 - 2v): fitting the residual after the
    order-2 prediction recovers exactly 4 (1-v)/v lam^(2v) x^2 e^(-x).
    Regression anchor for the documented coefficient finding."""

    @pytest.mark.parametrize("v,p,x", [(0.5, 1.0, 1.0), (2.0, 1.0, 1.0)])
    def test_residual_is_missing_x2_term(self, v, p, x):
        params = make_params(v)
        case = classify_case(v, p, theorem=2)
        fits = []
        for bv in (400.0, 800.0, 1600.0):
            b = bv ** (1.0 / v)
            log_n = (math.log(2.0) / v + (1.0 - v) * math.log(params.lam)
                     + math.lgamma(1.0 / v) + (v - 1.0) * math.log(b)
                     + bv / (2.0 * params.lam**v))
            exact, predicted = theta_deficit(NormedCase(params, case, log_n=log_n), x)
            fits.append((exact - predicted) * bv**2 * math.exp(-x))
        r1, r2 = 2.0 * fits[1] - fits[0], 2.0 * fits[2] - fits[1]
        fitted = (4.0 * r2 - r1) / 3.0
        lam2 = params.lam ** (2.0 * v)
        expected = 4.0 * (1.0 - v) / v * lam2 * x * x * math.exp(-x)
        assert fitted == pytest.approx(expected, rel=1e-3)


class TestLemma3Transfer:
    def test_zero_deficit(self):
        assert lemma3_transfer(0.0, 3, 1.1) == 0.0

    def test_arithmetic_point(self):
        # r=1, x=0, deficit 0.1: e^-1 (1 + 0.05) 0.1
        expected = math.exp(-1.0) * 1.05 * 0.1
        assert lemma3_transfer(0.1, 1, 0.0) == pytest.approx(expected, rel=1e-14)
        assert lemma3_transfer(0.1, 1, 0.0) == pytest.approx(0.03862734, rel=1e-6)

    def test_against_brute_binomial(self):
        # synthetic deficits: brute binomial difference vs the transfer,
        # off by at most C (|deficit|^3 + 1/n)
        n = 10**6
        for r in (1, 2, 3):
            for x in (-0.5, 0.0, 1.0):
                for deficit in (0.3, 0.05, -0.2):
                    s = mp.e ** (-mp.mpf(x)) * (1 - mp.mpf(deficit)) / n
                    brute = float(
                        brute_upper_orderstat_cdf(n, r, s) - mp_gumbel_r(r, mp.mpf(x))
                    )
                    transfer = lemma3_transfer(deficit, r, x)
                    bound = 5.0 * (abs(deficit) ** 3 + 1.0 / n)
                    assert abs(brute - transfer) <= bound

    def test_rejects_large_deficit(self):
        with pytest.raises(ValueError):
            lemma3_transfer(1.0, 1, 0.0)


class TestTheoremExpansion:
    @pytest.mark.parametrize("v,p", [(2.0, 1.0), (0.5, 0.5)])  # t2_i, t2_ii
    def test_t2_builds_no_params(self, monkeypatch, v, p):
        # the correction terms read lambda from the params they are given
        params = make_params(v)
        case = classify_case(v, p, theorem=2)
        calls = []

        def counting(shape, real=make_params):
            calls.append(shape)
            return real(shape)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gedpower" and hasattr(module, "make_params"):
                monkeypatch.setattr(module, "make_params", counting)
        theorem_expansion(params, case, 2, None, 0.5, log_n=30.0)
        theta_deficit(NormedCase(params, case, log_n=30.0), 0.5)
        assert calls == []

    @pytest.mark.parametrize("v,p", [(2.0, 1.0), (0.5, 0.5)])  # t2_i, t2_ii
    def test_t2_theta_deficit_solves_once_per_cell(self, monkeypatch, v, p):
        # one solve for the cell's root, which its norming and its scales
        # share; the predicted deficit reads the scales instead of solving
        # at each x
        cell = NormedCase(make_params(v), classify_case(v, p, theorem=2), log_n=30.0)
        calls = []

        def counting(*args, real=solve_bn, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gedpower" and hasattr(module, "solve_bn"):
                monkeypatch.setattr(module, "solve_bn", counting)
        for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
            theta_deficit(cell, x)
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", [{"n": 10**6}, {"log_n": 30.0}, {"log_n": 1e4}])
    @pytest.mark.parametrize("v,p", [(2.0, 1.0), (0.5, 1.0),  # t2_i
                                     (0.5, 0.5), (2.0, 2.0)])  # t2_ii
    def test_t2_cell_equals_the_public_functions(self, v, p, mode):
        # the cell builds its norming and its scales on its one root; both
        # keep the bits of the public norming and of b^v from solve_bn
        params, case = make_params(v), classify_case(v, p, theorem=2)
        cell = NormedCase(params, case, **mode)
        if case.tag == "t2_i":
            public = hall_constants(params, p, **mode)
        else:
            public = optimal_constants(params, **mode)
        got = (cell.norming.scale, cell.norming.shift, cell.norming.log_n)
        assert [x.hex() for x in got] == [
            x.hex() for x in (public.scale, public.shift, public.log_n)]
        b = solve_bn(params, **mode).b_n
        assert cell.root.b_n.hex() == b.hex()
        bv = b**v
        expected = (bv, bv * bv) if case.tag == "t2_i" else (bv * bv, bv**3)
        assert [x.hex() for x in cell.scales] == [x.hex() for x in expected]

    def test_params_and_case_of_different_shapes_rejected(self):
        # b_n from v = 2 with b^v at v = 3 would mix two laws
        params, case = make_params(2.0), classify_case(3.0, 1.0, 2)
        calls = (
            lambda: theorem_expansion(params, case, 1, None, 0.5, log_n=30.0),
            lambda: case_norming(params, case, log_n=30.0),
            lambda: NormedCase(params, case, log_n=30.0),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"v=2\.0 .*v=3\.0"):
                call()

    def test_small_v_expansion_needs_no_norming(self):
        params, case = make_params(0.05), classify_case(0.05, 1.0, 1)
        ee = theorem_expansion(params, case, 1, 1000, 0.0)
        for val in (ee.leading, ee.first_order, ee.second_order,
                    ee.scale_first, ee.scale_second):
            assert math.isfinite(val)
        with pytest.raises(ValueError, match="gumbel shift"):
            case_norming(params, case, 1000)

    def test_t1_i_first_order_point(self):
        # r=1, x=0: first-order term = -e^-1 / (2n)
        params = make_params(1.0)
        case = classify_case(1.0, 1.0, theorem=1)
        n = 10**6
        ee = theorem_expansion(params, case, 1, n, 0.0)
        assert ee.scale_first == n
        assert ee.scale_second == float(n) ** 2
        assert ee.first_order == pytest.approx(-math.exp(-1.0) / (2.0 * n), rel=1e-13)
        assert ee.leading == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_t1_ii_targets(self):
        params = make_params(1.0)
        case = classify_case(1.0, 3.0, theorem=1)
        n, r, x = 10**6, 1, 1.0
        ee = theorem_expansion(params, case, r, n, x)
        ln = math.log(float(n))
        assert ee.scale_first == pytest.approx(ln - math.log(2.0), rel=1e-15)
        assert ee.scale_second == pytest.approx(ln * (ln - math.log(2.0)), rel=1e-15)
        target1 = (1.0 - 3.0) * x * x * math.exp(-x) * gumbel_r(1, x) / 2.0
        assert ee.first_order * ee.scale_first == pytest.approx(target1, rel=1e-13)

    def test_t1_iii_scales_literal(self):
        params = make_params(4.0)
        case = classify_case(4.0, 2.0, theorem=1)
        ee = theorem_expansion(params, case, 2, 10**8, 0.5)
        ln = math.log(1e8)
        ll = math.log(ln)
        assert ee.scale_first == pytest.approx(ln / ll**2, rel=1e-15)
        assert ee.scale_second == pytest.approx(ln / ll, rel=1e-15)
        t1 = (1.0 - 0.25) ** 3 * math.exp(-2.0 * 0.5) * gumbel_r(1, 0.5) / 2.0
        assert ee.first_order * ee.scale_first == pytest.approx(t1, rel=1e-13)
        t2 = (-(1.0 - 0.25) ** 2
              * (1.0 - math.log(2.0 * math.gamma(0.25)) + 0.5)
              * math.exp(-2.0 * 0.5) * gumbel_r(1, 0.5))
        assert ee.second_order * ee.scale_second == pytest.approx(t2, rel=1e-13)

    def test_t2_scales_are_bn_powers(self):
        params = make_params(2.0)
        b = solve_bn(params, 10**8).b_n
        case_i = classify_case(2.0, 1.0, theorem=2)
        ee = theorem_expansion(params, case_i, 1, 10**8, 0.0)
        assert ee.scale_first == pytest.approx(b**2, rel=1e-12)
        assert ee.scale_second == pytest.approx(b**4, rel=1e-12)
        case_ii = classify_case(2.0, 2.0, theorem=2)
        ee = theorem_expansion(params, case_ii, 1, 10**8, 0.0)
        assert ee.scale_first == pytest.approx(b**4, rel=1e-12)
        assert ee.scale_second == pytest.approx(b**6, rel=1e-12)

    @pytest.mark.parametrize("v,p,theorem,log_n", [
        (2.0, 1.0, 2, 1e160), (1.0, 2.0, 1, 1e300), (1.0, 1.0, 1, 400.0),
        (2.0, 2.0, 2, 1e200),
    ])
    def test_scale_overflow_names_case_v_and_log_n(self, v, p, theorem, log_n):
        # b^2v, log n log(n/2) or n^2 overflows; b^3v raised a bare errno
        case = classify_case(v, p, theorem)
        cell = NormedCase(make_params(v), case, log_n=log_n)
        message = f"{case.tag} scales overflow a double for v={v}, log_n={log_n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cell.scales

    def test_t2_i_targets_assembled(self):
        params = make_params(4.0)
        case = classify_case(4.0, 1.0, theorem=2)
        r, x = 2, 0.5
        ee = theorem_expansion(params, case, r, 10**10, x)
        lam = gumbel_r(1, x)
        pref = math.exp(-(r - 1.0) * x) / math.factorial(r - 1) * lam
        h = correction_h(params, 1.0, x)
        t1 = h * pref
        q = correction_q(params, 1.0, x)
        t2 = (q + (1.0 - (r - 1.0) * math.exp(x)) * h * h / 2.0) * pref
        assert ee.first_order * ee.scale_first == pytest.approx(t1, rel=1e-12)
        assert ee.second_order * ee.scale_second == pytest.approx(t2, rel=1e-12)

    def test_t2_ii_targets_assembled(self):
        params = make_params(0.5)
        case = classify_case(0.5, 0.5, theorem=2)
        r, x = 1, 0.25
        ee = theorem_expansion(params, case, r, 10**10, x)
        lam = gumbel_r(1, x)
        assert ee.first_order * ee.scale_first == pytest.approx(
            correction_s(params, x) * lam, rel=1e-12
        )
        assert ee.second_order * ee.scale_second == pytest.approx(
            correction_b(params, x) * lam, rel=1e-12
        )

    def test_rank_bound_and_finite_x(self):
        cell = NormedCase(make_params(2.0), classify_case(2.0, 1.0, 2), log_n=10.0)
        [ee] = expand_ranks(cell, (171,), 0.0)
        assert all(map(math.isfinite, (ee.leading, ee.first_order, ee.second_order)))
        with pytest.raises(ValueError, match="r <= 171"):
            expand_ranks(cell, (172,), 0.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                expand_ranks(cell, (1,), x)

    @pytest.mark.parametrize("theorem,v,p", [(1, 1.0, 1.0), (1, 1.0, 2.0),
                                             (1, 2.0, 1.0), (2, 2.0, 1.0),
                                             (2, 2.0, 2.0)])
    def test_terms_are_zero_where_gumbel_is_zero(self, theorem, v, p):
        # e^(-(r+1)x) overflows at r = 8, x = -100, though Lambda(x) = 0.0;
        # Lambda_171(-7) is still a normal double, and so are the terms there:
        # the weight Lambda(-7) e^(-1197)/170! is
        cell = NormedCase(make_params(v), classify_case(v, p, theorem), log_n=10.0)
        for r, x in ((1, -800.0), (8, -100.0), (171, -7.0)):
            [ee] = expand_ranks(cell, (r,), x)
            if r < 171:
                assert (ee.first_order, ee.second_order) == (0.0, 0.0)
            else:
                assert abs(ee.first_order) >= sys.float_info.min
                assert abs(ee.second_order) >= sys.float_info.min
            assert ee.leading == gumbel_r(r, x)
            assert (ee.scale_first, ee.scale_second) == cell.scales
        assert gumbel_r(1, -7.0) == 0.0 and gumbel_r(171, -7.0) > 1e-300

    def test_eval_is_finite_dataclass(self):
        params = make_params(2.0)
        case = classify_case(2.0, 3.0, theorem=2)
        ee = theorem_expansion(params, case, 3, 10**6, -0.5)
        assert isinstance(ee, ExpansionEval)
        assert 0.0 <= ee.leading <= 1.0
        for val in (ee.first_order, ee.second_order, ee.scale_first, ee.scale_second):
            assert math.isfinite(val)


class TestBitsPinned:
    """expand_ranks with every term on the one rank weight, and
    cdf_gaps_from_deficit, one rank per call, as they were before the rank
    weights and (r-1)! were built once: the sha256 of their hex floats over
    five cases, both modes, r in RANKS and x from -2 to 4."""

    RANKS = (1, 2, 3, 5, 20, 171)
    XS = [k / 2 for k in range(-4, 9)]
    MODES = {"n": 1000, "log_n": 30.0}
    CASES = {"t1_i": (1.0, 1.0, 1), "t1_ii": (1.0, 2.0, 1), "t1_iii": (2.0, 1.5, 1),
             "t2_i": (2.0, 1.0, 2), "t2_ii": (2.0, 2.0, 2)}

    # ids are the case (or gap) and mode, so a re-pin renames no test
    DIGESTS = {
        ("t1_i", "n"): "52b1a67c66d1d27104dc42185c5dd3b834159485b7107aca7b348f847ae87474",
        ("t1_i", "log_n"): "cd670befe608efdbc9b61521b93980a47e06c81e5a587c3dc295003658d6de7c",
        ("t1_ii", "n"): "fdffb49b52602a2c98c5af9380d0d7a62a92a0516ac8213b2c1d7e1046b6fcc4",
        ("t1_ii", "log_n"): "2191b22008f6a038648a2da891137b833f5dd0cd3bc6f77dd52998697e0ccc81",
        ("t1_iii", "n"): "ea0e481a77b5e8006563baf54377a18680a34af66c991a24876dfd2574344122",
        ("t1_iii", "log_n"): "58e5edabe2a1bf72d190e5a43cff0d94a008800913684ca9929eb611b52cd008",
        ("t2_i", "n"): "418e0b2e66f8b6fbbde14dc6f3275bcc41f3c429a532b0429b68d6f856afde9d",
        ("t2_i", "log_n"): "22547c18855cb747da900082b9671f8e57689d5a392bdacdf62f94417daae6b7",
        ("t2_ii", "n"): "8d84c92e39859b5134da675b4c12133fc8832b0b684fd22b9fc7fa2eae5011ff",
        ("t2_ii", "log_n"): "947bc95462b7d97acff4d9a34a987ef9cbcea542134262e22c75d2d9cba9a554",
        ("gap", "n"): "4ce15e54531004c021993abb8212f1ed00ebff47014eee260766a4d061ba3654",
        ("gap", "log_n"): "f7fa5b3d0014071924efece2418b4348dcdc93fb03ab35d373bd0e925127e309",
    }

    @pytest.mark.parametrize("tag,mode", DIGESTS)
    def test_hex_digest(self, tag, mode):
        from gedpower.orderstats import cdf_gaps_from_deficit

        size = self.MODES[mode]
        values = []
        if tag == "gap":
            kw = {mode: float(size)}
            values = [cdf_gaps_from_deficit((r,), x, d, **kw)[0]
                      for r in self.RANKS for x in self.XS for d in (-0.02, 0.003)]
        else:
            v, p, theorem = self.CASES[tag]
            cell = NormedCase(make_params(v), classify_case(v, p, theorem), **{mode: size})
            for r in self.RANKS:
                for x in self.XS:
                    [ee] = expand_ranks(cell, (r,), x)
                    values += [ee.leading, ee.first_order, ee.second_order,
                               ee.scale_first, ee.scale_second]
        assert all(map(math.isfinite, values))
        text = " ".join(map(float.hex, values))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[tag, mode]


class TestAllRanks:
    """The all-ranks forms equal their one-rank calls bit for bit, on the
    cases and modes of TestBitsPinned."""

    RANKS = (1, 2, 3, 5, 20, 31, 32, 40, 171)
    # w = 0 at every rank (x = -1e100, -800, 1000, 1e100) or at some (-8 to
    # -6.6); at x = 1e100 the terms' x**4 would overflow if it were formed
    XS = (-1e100, -800.0, -8.0, -7.0, -6.6, -2.0, -0.5, 0.0, 0.25, 3.0, 40.0,
          1000.0, 1e100)

    @staticmethod
    def _bits(values) -> list[str]:
        return [float.hex(v) for v in values]

    @pytest.mark.parametrize("mode", TestBitsPinned.MODES)
    @pytest.mark.parametrize("tag", TestBitsPinned.CASES)
    def test_expand_ranks_equals_expand(self, tag, mode):
        v, p, theorem = TestBitsPinned.CASES[tag]
        cell = NormedCase(make_params(v), classify_case(v, p, theorem),
                          **{mode: TestBitsPinned.MODES[mode]})
        for x in self.XS:
            for ranks in (self.RANKS, (3,), (2, 171)):
                alone = [self._bits(tuple(expand_ranks(cell, (r,), x)[0])) for r in ranks]
                both = [self._bits(tuple(ee)) for ee in expand_ranks(cell, ranks, x)]
                assert both == alone, (x, ranks)
        with pytest.raises(ValueError, match="got r=172"):
            expand_ranks(cell, (1, 172), 0.0)

    @pytest.mark.parametrize("kw", [{"n": 1e6}, {"n": 200.0}, {"log_n": math.log(1e6)}],
                             ids=["n", "n200", "log_n"])
    def test_gaps_equal_one_rank_gaps(self, kw):
        from gedpower.orderstats import cdf_gaps_from_deficit

        # around the mode, where n = 200 has a lower-tail mass at x = -2;
        # then e^(-x) deficit past 709.78, where every addend's expm1
        # overflows (s >= 1 at n = 200 and x = -10, deficit 0.1); then
        # deficit -1e10 at x = 30, where the addends overflow from j = 31 on,
        # so the ranks above 31 fall back alone
        points = [(x, d) for x in (-2.0, -1.0, 0.0, 0.5, 3.0) for d in (-0.02, 0.0, 0.003)]
        points += [(-10.0, 1.0 - math.exp(-10.0)), (-6.6, 0.999), (-10.0, 0.1),
                   (30.0, -1e10)]
        for x, d in points:
            try:
                alone = [cdf_gaps_from_deficit((r,), x, d, **kw)[0] for r in self.RANKS]
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    cdf_gaps_from_deficit(self.RANKS, x, d, **kw)
                continue
            gaps = cdf_gaps_from_deficit(self.RANKS, x, d, **kw)
            assert self._bits(gaps) == self._bits(alone), (x, d)
            assert self._bits(cdf_gaps_from_deficit((2, 32), x, d, **kw)) == self._bits(
                [alone[1], alone[6]])

    def test_gaps_reject_a_rank_above_n(self, monkeypatch):
        # ranks that mix r <= n with r > n fail as the largest fails alone,
        # before any rank weight is formed; ranks past 171 are fine up to n
        import gedpower.expansions as expansions
        from gedpower.orderstats import cdf_gaps_from_deficit

        assert math.isfinite(cdf_gaps_from_deficit((500,), 0.0, 0.0, n=1000.0)[0])
        assert cdf_gaps_from_deficit((2, 500), 0.0, 0.0, n=1000.0) == [
            cdf_gaps_from_deficit((r,), 0.0, 0.0, n=1000.0)[0] for r in (2, 500)]

        with pytest.raises(ValueError, match=r"^need r <= n, got r=5, n=3$"):
            cdf_gaps_from_deficit((5,), 0.0, 0.0, n=3.0)
        with pytest.raises(ValueError, match=r"^need r <= n, got r=5, n=3$"):
            cdf_gaps_from_deficit((1, 2, 5), 0.0, 0.0, n=3.0)
        assert cdf_gaps_from_deficit((1, 2), 0.0, 0.0, n=3.0) == [
            cdf_gaps_from_deficit((r,), 0.0, 0.0, n=3.0)[0] for r in (1, 2)]
        monkeypatch.setattr(expansions, "_rank_weights", None)
        with pytest.raises(ValueError, match=r"^need r <= n, got r=1000000000, n=3$"):
            cdf_gaps_from_deficit((10**9,), 0.0, 0.0, n=3.0)

    @pytest.mark.parametrize("ranks", [(3, 1), (1, 1), (3, 0), (1, 3, 2), (0,), ()])
    @pytest.mark.parametrize("form", ["gaps", "expand"])
    def test_ranks_that_are_not_increasing_from_one_are_rejected(self, form, ranks):
        # each rank is read once, in order, so any other list would lose or
        # merge ranks
        from gedpower.orderstats import cdf_gaps_from_deficit

        cell = NormedCase(make_params(2.0), classify_case(2.0, 1.0, 2), log_n=10.0)
        message = f"ranks must be >= 1 and strictly increasing, got {ranks}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if form == "gaps":
                cdf_gaps_from_deficit(ranks, 0.5, 0.0, n=100.0)
            else:
                expand_ranks(cell, ranks, 0.5)


class TestTransferConsistency:
    """exact CDF gap vs lemma transfer of the exact deficit, across cases."""

    @pytest.mark.parametrize("v,p,theorem", [
        (1.0, 2.0, 1), (2.0, 1.0, 2), (0.5, 0.5, 2), (4.0, 2.0, 1),
    ])
    def test_gap_matches_transfer(self, v, p, theorem):
        from gedpower.orderstats import cdf_gaps_from_deficit

        params = make_params(v)
        case = classify_case(v, p, theorem=theorem)
        n = 10**6
        cell = NormedCase(params, case, n)
        for r in (1, 2):
            for x in (-0.5, 0.0, 1.0):
                d = exact_deficit(cell, x)
                [gap] = cdf_gaps_from_deficit((r,), x, d, n=float(n))
                transfer = lemma3_transfer(d, r, x)
                bound = 5.0 * (abs(d) ** 3 + 1.0 / n)
                assert abs(gap - transfer) <= bound


def _mp_t1_i_terms(r: int, x: float) -> tuple[mp.mpf, mp.mpf]:
    return mp_expansion_terms(make_params(1.0), "t1_i", 1.0, r, x)


def _mp_t2_i_terms(params, p: float, r: int, x: float) -> tuple[mp.mpf, mp.mpf]:
    return mp_expansion_terms(params, "t2_i", p, r, x)


class TestFarRightOfTheMode:
    """expand_ranks where e^x, e^(2x) or a power of x leaves the double range."""

    RANKS = (1, 2, 3, 20, 171)
    XS = (340.0, 346.7, 354.9, 360.0, 700.0, 704.7, 709.7, 709.8, 720.0, 745.0,
          745.2, 1e3)

    @pytest.mark.parametrize("tag", sorted(TestBitsPinned.CASES))
    def test_every_finite_x_gives_finite_terms(self, tag):
        v, p, theorem = TestBitsPinned.CASES[tag]
        cell = NormedCase(make_params(v), classify_case(v, p, theorem), n=10**6)
        for r in self.RANKS:
            for x in (*self.XS, 1e78, 1e103, 1e160, sys.float_info.max):
                [ee] = expand_ranks(cell, (r,), x)
                assert math.isfinite(ee.first_order), (r, x)
                assert math.isfinite(ee.second_order), (r, x)

    @pytest.mark.parametrize("tag", ["t1_i", "t2_i"])
    def test_a_zero_term_is_below_the_normal_range(self, tag):
        # t1_i from x = 354.89, where e^(2x) overflows
        v, p, theorem = TestBitsPinned.CASES[tag]
        params = make_params(v)
        cell = NormedCase(params, classify_case(v, p, theorem), n=10**6)
        for r in self.RANKS:
            for x in self.XS[2 if tag == "t1_i" else 0:]:
                [ee] = expand_ranks(cell, (r,), x)
                want = _mp_t1_i_terms(r, x) if tag == "t1_i" else _mp_t2_i_terms(params, p, r, x)
                for got, term, scale in ((ee.first_order, want[0], ee.scale_first),
                                         (ee.second_order, want[1], ee.scale_second)):
                    if got == 0.0:
                        assert abs(term / scale) < sys.float_info.min, (r, x)

    @pytest.mark.parametrize("v,p", [(2.0, 1.0), (0.5, 2.0), (4.0, 1.0), (1.5, 0.5)])
    def test_t2_i_window_matches_mpmath(self, v, p):
        # at r = 1, e^x overflows from x = 709.78 and e^(-x) underflows past
        # 745.13; in between a term rounds once into the subnormal range
        params = make_params(v)
        cell = NormedCase(params, classify_case(v, p, theorem=2), log_n=30.0)
        normal = 0
        for x in (709.79, 712.0, 716.0, 720.0, 725.0, 730.0, 735.0, 740.0, 745.0):
            [ee] = expand_ranks(cell, (1,), x)
            t1, t2 = _mp_t2_i_terms(params, p, 1, x)
            for got, term, scale in ((ee.first_order, t1, ee.scale_first),
                                     (ee.second_order, t2, ee.scale_second)):
                want = term / scale
                if abs(want) >= sys.float_info.min:
                    normal += 1
                    assert abs(got - want) <= 2e-15 * abs(want), (x, got, want)
                else:
                    assert abs(got - want) <= 5e-324 * (1.0 + 1.0 / scale), (x, got, want)
        assert normal >= 4


class TestTermsAgainstMpmath:
    """expand_ranks' terms against the 50-digit oracle on both sides of the mode,
    up to r = 171, where e^(-rx) alone leaves the double range."""

    RANKS = (1, 2, 3, 20, 107, 171)
    XS = [float(x) for x in np.linspace(-6.5, 5.0, 31)]  # step 23/60
    SHAPES = [*TestBitsPinned.CASES.values(), (0.5, 2.0, 1), (3.0, 1.0, 1),
              (0.5, 2.0, 2), (3.0, 1.5, 2), (0.5, 0.5, 2), (3.0, 3.0, 2)]

    @staticmethod
    def _check(cell: NormedCase, r: int, x: float) -> None:
        """Finite terms; a term whose true value is a normal double within
        2e-12 relative."""
        [ee] = expand_ranks(cell, (r,), x)
        want = mp_expansion_terms(cell.params, cell.case.tag, cell.case.p, r, x)
        for got, term, scale in ((ee.first_order, want[0], ee.scale_first),
                                 (ee.second_order, want[1], ee.scale_second)):
            assert math.isfinite(got), (r, x)
            if abs(term / scale) >= sys.float_info.min:
                assert abs(got - term / scale) <= 2e-12 * abs(term / scale), (r, x, got)

    @pytest.mark.parametrize("v,p,theorem", SHAPES)
    def test_grid(self, v, p, theorem):
        cell = NormedCase(make_params(v), classify_case(v, p, theorem), log_n=30.0)
        for r in self.RANKS:
            for x in self.XS:
                self._check(cell, r, x)

    @pytest.mark.parametrize("v,p,theorem", SHAPES)
    def test_left_of_lambda_underflow(self, v, p, theorem):
        # Lambda(x) underflows left of x = -6.61, yet the rank weight
        # Lambda(x) e^(-rx)/(r-1)! is still normal at large r
        cell = NormedCase(make_params(v), classify_case(v, p, theorem), log_n=30.0)
        for r in (100, 171):
            for x in np.linspace(-7.5, -6.5, 11):
                self._check(cell, r, float(x))

    @pytest.mark.parametrize("v,p,theorem,mode,r,x", [
        # e^(-rx) = e^855 overflowed before it met Lambda(-5) = e^(-148.4)
        (2.0, 1.0, 2, {"log_n": 10.0}, 171, -5.0),
        # (1 - p) x^3 e^(-rx) overflowed to -inf
        (1.0, 1e10, 1, {"log_n": 10.0}, 171, -4.0),
        # e^(-(r+1)x) underflowed before it met (r-1) e^x: t1 read 0.0
        (1.0, 1.0, 1, {"n": 10**6}, 2, 340.0),
    ])
    def test_point(self, v, p, theorem, mode, r, x):
        cell = NormedCase(make_params(v), classify_case(v, p, theorem), **mode)
        self._check(cell, r, x)
        assert abs(expand_ranks(cell, (r,), x)[0].first_order) >= sys.float_info.min
