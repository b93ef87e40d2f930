import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest

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
    expand,
    gumbel,
    gumbel_r,
    gumbel_r_identities,
    theorem_expansion,
    theta_deficit,
)
from gedpower.ged import make_params
from gedpower.norming import solve_bn
from oracles import brute_upper_orderstat_cdf, lemma3_transfer, mp_gumbel_r

mp.mp.dps = 50


class TestGumbelLaw:
    def test_values(self):
        assert gumbel(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel(40.0) == pytest.approx(1.0, rel=1e-15)

    def test_round_trip_with_inverse(self):
        for q in (0.01, 0.3, 0.9):
            x = -math.log(-math.log(q))
            assert gumbel(x) == pytest.approx(q, rel=1e-14)

    def test_gumbel_r_basics(self):
        assert gumbel_r(0, 1.3) == 0.0
        assert gumbel_r(-2, 0.0) == 0.0
        assert gumbel_r(1, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert gumbel_r(2, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_gumbel_r_at_infinity_is_one(self):
        assert gumbel_r(1, math.inf) == 1.0
        assert gumbel_r(3, math.inf) == 1.0

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
        # one solve for the norming, one for the scales; the predicted
        # deficit reads the scales instead of solving at each x
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
        assert len(calls) == 2

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
        target1 = (1.0 - 3.0) * x * x * math.exp(-x) * gumbel(x) / 2.0
        assert ee.first_order * ee.scale_first == pytest.approx(target1, rel=1e-13)

    def test_t1_iii_scales_literal(self):
        params = make_params(4.0)
        case = classify_case(4.0, 2.0, theorem=1)
        ee = theorem_expansion(params, case, 2, 10**8, 0.5)
        ln = math.log(1e8)
        ll = math.log(ln)
        assert ee.scale_first == pytest.approx(ln / ll**2, rel=1e-15)
        assert ee.scale_second == pytest.approx(ln / ll, rel=1e-15)
        t1 = (1.0 - 0.25) ** 3 * math.exp(-2.0 * 0.5) * gumbel(0.5) / 2.0
        assert ee.first_order * ee.scale_first == pytest.approx(t1, rel=1e-13)
        t2 = (-(1.0 - 0.25) ** 2
              * (1.0 - math.log(2.0 * math.gamma(0.25)) + 0.5)
              * math.exp(-2.0 * 0.5) * gumbel(0.5))
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

    def test_t2_i_targets_assembled(self):
        params = make_params(4.0)
        case = classify_case(4.0, 1.0, theorem=2)
        r, x = 2, 0.5
        ee = theorem_expansion(params, case, r, 10**10, x)
        lam = gumbel(x)
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
        lam = gumbel(x)
        assert ee.first_order * ee.scale_first == pytest.approx(
            correction_s(params, x) * lam, rel=1e-12
        )
        assert ee.second_order * ee.scale_second == pytest.approx(
            correction_b(params, x) * lam, rel=1e-12
        )

    def test_rank_bound_and_finite_x(self):
        cell = NormedCase(make_params(2.0), classify_case(2.0, 1.0, 2), log_n=10.0)
        ee = expand(cell, 171, 0.0)
        assert all(map(math.isfinite, (ee.leading, ee.first_order, ee.second_order)))
        with pytest.raises(ValueError, match="r <= 171"):
            expand(cell, 172, 0.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                expand(cell, 1, x)

    def test_eval_is_finite_dataclass(self):
        params = make_params(2.0)
        case = classify_case(2.0, 3.0, theorem=2)
        ee = theorem_expansion(params, case, 3, 10**6, -0.5)
        assert isinstance(ee, ExpansionEval)
        assert 0.0 <= ee.leading <= 1.0
        for val in (ee.first_order, ee.second_order, ee.scale_first, ee.scale_second):
            assert math.isfinite(val)


class TestBitsPinned:
    """expand and cdf_gap_from_deficit as they were before the rank weights
    and (r-1)! were built once: the sha256 of their hex floats over five
    cases, both modes, r in RANKS and x from -2 to 4."""

    RANKS = (1, 2, 3, 5, 20, 171)
    XS = [k / 2 for k in range(-4, 9)]
    MODES = {"n": 1000, "log_n": 30.0}
    CASES = {"t1_i": (1.0, 1.0, 1), "t1_ii": (1.0, 2.0, 1), "t1_iii": (2.0, 1.5, 1),
             "t2_i": (2.0, 1.0, 2), "t2_ii": (2.0, 2.0, 2)}

    @pytest.mark.parametrize("tag,mode,digest", [
        ("t1_i", "n", "fb924be12344207963519b36f58e2a57b1fef627c5cc64c274ada68f2ac1ebad"),
        ("t1_i", "log_n", "94d6b5a0597c06c5bf6df06dd9988b3978ea3be6d8fc3c2b382170f0fd9f5b0a"),
        ("t1_ii", "n", "335a2ecd111af5c89d2caedf9a22141dfca37025205ed093e706838bb1bab69d"),
        ("t1_ii", "log_n", "5e11360577ee110febf2727179f9789e3b53bc35cbff74126fc73212f1e9c967"),
        ("t1_iii", "n", "b6a10f8b26ac79b78090658b4bc54f5649286f162e09242da27f6f25e035e3f3"),
        ("t1_iii", "log_n", "e1d3d268c56c0c3d0de07638207ad8f1a13ac01094b2a6bd7bfd213b1b70ec83"),
        ("t2_i", "n", "1ffe71979a3b0c06c33133810bda73e8c178e8abe2b052414eda737009093d04"),
        ("t2_i", "log_n", "ea0be30603664babb2392f30de41de0fbadf322529979001d2b8b4719914f75c"),
        ("t2_ii", "n", "a553c789049af5def3830fca2df17790d3ffb8945cce35303460cbc0cb09d99e"),
        ("t2_ii", "log_n", "7f70520379a72b647161232221b5695533a3703d8a6b70d64ecf475ffa00bd54"),
        ("gap", "n", "4ce15e54531004c021993abb8212f1ed00ebff47014eee260766a4d061ba3654"),
        ("gap", "log_n", "f7fa5b3d0014071924efece2418b4348dcdc93fb03ab35d373bd0e925127e309"),
    ])
    def test_hex_digest(self, tag, mode, digest):
        from gedpower.orderstats import cdf_gap_from_deficit

        size = self.MODES[mode]
        values = []
        if tag == "gap":
            kw = {mode: float(size)}
            values = [cdf_gap_from_deficit(r, x, d, **kw)
                      for r in self.RANKS for x in self.XS for d in (-0.02, 0.003)]
        else:
            v, p, theorem = self.CASES[tag]
            cell = NormedCase(make_params(v), classify_case(v, p, theorem), **{mode: size})
            for r in self.RANKS:
                for x in self.XS:
                    ee = expand(cell, r, x)
                    values += [ee.leading, ee.first_order, ee.second_order,
                               ee.scale_first, ee.scale_second]
        assert all(map(math.isfinite, values))
        text = " ".join(map(float.hex, values))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTransferConsistency:
    """exact CDF gap vs lemma transfer of the exact deficit, across cases."""

    @pytest.mark.parametrize("v,p,theorem", [
        (1.0, 2.0, 1), (2.0, 1.0, 2), (0.5, 0.5, 2), (4.0, 2.0, 1),
    ])
    def test_gap_matches_transfer(self, v, p, theorem):
        from gedpower.orderstats import cdf_gap_from_deficit

        params = make_params(v)
        case = classify_case(v, p, theorem=theorem)
        n = 10**6
        cell = NormedCase(params, case, n)
        for r in (1, 2):
            for x in (-0.5, 0.0, 1.0):
                d = exact_deficit(cell, x)
                gap = cdf_gap_from_deficit(r, x, d, n=float(n))
                transfer = lemma3_transfer(d, r, x)
                bound = 5.0 * (abs(d) ** 3 + 1.0 / n)
                assert abs(gap - transfer) <= bound
