import hashlib
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import bdtr, bdtrc, gammainccinv
from scipy.stats import beta, kstwo

from gedpower import orderstats
from gedpower.expansions import gumbel_r
from gedpower.ged import cdf, make_params, quantile, survival
from gedpower.norming import gumbel_constants, hall_constants, power_constants
from gedpower.orderstats import (
    BudgetError,
    OrderStatSpec,
    _binom_head,
    cdf_gaps_from_deficit,
    exact_powered_cdf,
    lower_tail_mass,
    mc_powered_cdf,
    mc_score,
    mc_table,
    poisson_powered_cdf,
    poisson_remainder_bound,
)
from oracles import brute_lower_orderstat_mass, brute_upper_orderstat_cdf, mp_gumbel_r

mp.mp.dps = 50


class TestUpperOrderstatCdf:
    """The upper binomial sum, through exact_powered_cdf at p = 1."""

    def test_maximum_of_one_is_cdf(self):
        params = make_params(1.0)
        spec = OrderStatSpec(n=1, r=1, p=1.0)
        for z in (-1.0, 0.0, 2.0):
            assert exact_powered_cdf(params, spec, z) == pytest.approx(
                max(0.0, cdf(params, z) - cdf(params, -z)), rel=1e-13
            )

    def test_two_sample_square_identity(self):
        params = make_params(2.0)
        spec = OrderStatSpec(n=2, r=1, p=1.0)
        for z in (0.0, 0.7, 2.0):
            assert exact_powered_cdf(params, spec, z) == pytest.approx(
                cdf(params, z) ** 2 - cdf(params, -z) ** 2, rel=1e-13
            )

    def test_brute_force_binomial(self):
        # v=2, n=1e4, r=3 at the gumbel shift; exact integer binomials
        params = make_params(2.0)
        n = 10**4
        z = gumbel_constants(params, n).shift
        s = survival(params, z)
        spec = OrderStatSpec(n=n, r=3, p=1.0)
        oracle = float(brute_upper_orderstat_cdf(n, 3, s)
                       - brute_lower_orderstat_mass(n, 3, s))
        assert exact_powered_cdf(params, spec, z) == pytest.approx(oracle, rel=1e-13)

    def test_brute_force_various_ranks(self):
        params = make_params(0.5)
        n = 500
        spec_zs = [(r, quantile(params, 1.0 - r / n)) for r in (1, 2, 5)]
        for r, z in spec_zs:
            s = survival(params, z)
            got = exact_powered_cdf(params, OrderStatSpec(n=n, r=r, p=1.0), z)
            oracle = brute_upper_orderstat_cdf(n, r, s) - brute_lower_orderstat_mass(n, r, s)
            assert got == pytest.approx(float(oracle), rel=1e-13)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OrderStatSpec(n=0, r=1, p=1.0)
        with pytest.raises(ValueError):
            OrderStatSpec(n=5, r=6, p=1.0)
        with pytest.raises(ValueError):
            OrderStatSpec(n=5, r=0, p=1.0)
        with pytest.raises(ValueError):
            OrderStatSpec(n=5, r=1, p=0.0)


def _binom_head_per_term(n, r, log_a, log_b):
    """Reference: rebuild log C(n, j) from scratch for every addend."""
    total = 0.0
    for j in range(r):
        log_binom = math.fsum(math.log((n - i) / (i + 1.0)) for i in range(j))
        total += math.exp(log_binom + j * log_a + (n - j) * log_b)
    return total


@pytest.mark.parametrize("n", [8.0, 1e3, 1e15])
@pytest.mark.parametrize("r", [1, 5, 20])
def test_binom_head_matches_per_term_rebuild(n, r):
    for s in (0.5 / n, 2.0 / n, 0.3):
        args = (n, r, math.log(s), math.log1p(-s))
        if r > n + 1:  # C(n, j) = 0 for j > n: both reach log(0)
            for fn in (_binom_head, _binom_head_per_term):
                with pytest.raises(ValueError):
                    fn(*args)
        else:
            assert _binom_head(*args) == _binom_head_per_term(*args)


@pytest.mark.parametrize("n,r", [(n, r) for n in (3.0, 10.0, 1e3, 1e6, 1e15)
                                 for r in (1, 2, 5, 20) if r <= n])
def test_lower_tail_early_return_matches_loop(n, r):
    # s puts the bound log r + (r-1) log n + (n-r+1) log s at each offset
    # from the -746 cut, on both sides of it
    cut = []
    for offset in (-20.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 20.0, 200.0):
        log_s = (-746.0 + offset - math.log(r) - (r - 1) * math.log(n)) / (n - r + 1)
        s = math.exp(log_s)
        loop = _binom_head(n, r, math.log1p(-s), math.log(s))
        assert lower_tail_mass(n, r, s).hex() == loop.hex()
        cut.append(orderstats._log_lower_tail_bound(r, n, math.log(n), math.log(s)) < -746.0)
    assert cut[0] and not cut[-1]


class TestExactPoweredCdf:
    def test_zero_and_negative_thresholds(self):
        params = make_params(1.0)
        spec = OrderStatSpec(n=10, r=2, p=2.0)
        assert exact_powered_cdf(params, spec, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert exact_powered_cdf(params, spec, -3.0) == 0.0

    def test_poisson_mode_early_returns(self):
        params = make_params(2.0)
        assert poisson_powered_cdf(params, 2, 1.0, -1.0, 10.0) == 0.0
        # y = 0 puts log mu = log n - log 2 above 700
        assert poisson_powered_cdf(params, 2, 1.0, 0.0, 800.0) == 0.0

    @pytest.mark.parametrize("p,y", [(1.0, 1e308), (0.5, 1e200), (0.1, 1e40)])
    def test_huge_threshold_is_one(self, p, y):
        # y^(1/p) or (y^(1/p) / lambda)^v overflows a double: the CDF at y = inf
        params = make_params(2.0)
        spec = OrderStatSpec(n=10, r=1, p=p)
        assert exact_powered_cdf(params, spec, y) == 1.0
        assert poisson_powered_cdf(params, 1, p, y, 10.0) == 1.0
        assert mc_powered_cdf(params, spec, y, reps=10, seed=0) == (1.0, 0.0)

    def test_lower_tail_mass_at_the_ends(self):
        assert lower_tail_mass(10.0, 2, 0.0) == 0.0
        assert lower_tail_mass(10.0, 2, -0.5) == 0.0
        assert lower_tail_mass(10.0, 2, 1.0) == 1.0

    def test_single_draw_laplace(self):
        # P(|X| <= 1) = 1 - e^(-sqrt 2)
        params = make_params(1.0)
        spec = OrderStatSpec(n=1, r=1, p=1.0)
        assert exact_powered_cdf(params, spec, 1.0) == pytest.approx(
            -math.expm1(-math.sqrt(2.0)), rel=1e-13
        )

    def test_calibrated_laplace_point(self):
        # at the powered-family shift the value is e^-1 + first-order/n
        params = make_params(1.0)
        n = 10**6
        nm = power_constants(params, 1.0, n)
        spec = OrderStatSpec(n=n, r=1, p=1.0)
        val = exact_powered_cdf(params, spec, nm.shift)
        first_order = -math.exp(-1.0) / (2.0 * n)
        assert val == pytest.approx(math.exp(-1.0) + first_order, abs=3e-13)

    def test_monotone_with_limits(self):
        params = make_params(0.5)
        spec = OrderStatSpec(n=50, r=2, p=1.5)
        ys = np.linspace(0.0, 40.0, 40)
        vals = [exact_powered_cdf(params, spec, y) for y in ys]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] > 0.999

    def test_rank_monotonicity(self):
        # upper-tail-driven events: looser ranks accumulate probability
        params = make_params(2.0)
        n = 100
        y = quantile(params, 0.98) ** 2
        vals = [
            exact_powered_cdf(params, OrderStatSpec(n=n, r=r, p=2.0), y)
            for r in (1, 2, 3, 4)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_two_sided_against_brute_force(self):
        params = make_params(1.0)
        n, r, p = 200, 2, 1.5
        spec = OrderStatSpec(n=n, r=r, p=p)
        for y in (0.5, 2.0, 8.0):
            t = y ** (1.0 / p)
            s = survival(params, t)
            oracle = float(
                brute_upper_orderstat_cdf(n, r, s) - brute_lower_orderstat_mass(n, r, s)
            )
            assert exact_powered_cdf(params, spec, y) == pytest.approx(oracle, rel=1e-13)

    def test_two_sided_mass_negligible_at_scale(self):
        # beyond n = 1e6 the lower tail is < 1e-300 at calibrated points
        params = make_params(1.0)
        n = 10**6
        nm = power_constants(params, 1.0, n)
        s = survival(params, nm.shift)
        assert lower_tail_mass(float(n), 3, s) < 1e-300

    def test_poisson_mode_agrees_at_1e15(self):
        params = make_params(2.0)
        n = 10**15
        r, p = 2, 2.0
        nm = hall_constants(params, p, n)
        spec = OrderStatSpec(n=n, r=r, p=p)
        for x in (-0.5, 0.0, 1.0):
            y = nm.scale * x + nm.shift
            a = exact_powered_cdf(params, spec, y)
            b = poisson_powered_cdf(params, r, p, y, math.log(n))
            assert a == pytest.approx(b, abs=1e-10)


class TestGapEngine:
    def test_matches_naive_subtraction_at_moderate_n(self):
        params = make_params(2.0)
        n, p = 10**4, 1.0
        nm = hall_constants(params, p, n)
        for r in (1, 2, 3):
            for x in (-0.5, 0.0, 1.5):
                z = nm.scale * x + nm.shift
                s = survival(params, z)
                deficit = 1.0 - n * math.exp(x) * s
                [gap] = cdf_gaps_from_deficit((r,), x, deficit, n=float(n))
                naive = (
                    exact_powered_cdf(params, OrderStatSpec(n=n, r=r, p=p), z**p)
                    - gumbel_r(r, x)
                )
                assert gap == pytest.approx(naive, abs=4e-16, rel=1e-9)

    def test_poisson_form_matches_mpmath(self):
        # independent high-precision Poisson difference
        for r in (1, 2, 4):
            for x in (-1.0, 0.3):
                for deficit in (0.0, 1e-4, 0.2, -0.3):
                    xm = mp.mpf(x)
                    mu = mp.e ** (-xm) * (1 - mp.mpf(deficit))
                    exact = mp.fsum(
                        mp.e ** (-mu) * mu**j / mp.factorial(j) for j in range(r)
                    )
                    lam_r = mp.fsum(
                        mp.e ** (-mp.e ** (-xm)) * mp.e ** (-j * xm) / mp.factorial(j)
                        for j in range(r)
                    )
                    [got] = cdf_gaps_from_deficit((r,), x, deficit, log_n=50.0)
                    assert got == pytest.approx(float(exact - lam_r), rel=1e-12, abs=1e-18)

    def test_zero_deficit_binomial_gap_is_poisson_binomial_difference(self):
        # with deficit 0 the gap is exactly the binomial-vs-Gumbel O(1/n) term
        n = 10**8
        x = 0.0
        [gap] = cdf_gaps_from_deficit((1,), x, 0.0, n=float(n))
        # analytic: Lambda(0) (e^{n phi(s)} - 1), phi = log(1-s)+s, s = 1/n
        expected = -math.exp(-1.0) * 0.5 / n
        assert gap == pytest.approx(expected, rel=3e-8)

    def test_poisson_remainder_bound_holds(self):
        # the log-n-mode gap may differ from the binomial one by at most
        # the bound; s = e^(-x)(1 - d)/n must be a probability
        for n in (3, 5, 20, 100, 1000, 10**6):
            for r in (1, 2, 3):
                for x in (-1.0, 0.0, 1.0, 2.0):
                    for d in (-0.3, -1e-3, 0.0, 1e-3, 0.3):
                        if r > n or math.exp(-x) * (1.0 - d) / n >= 1.0:
                            continue
                        diff = (cdf_gaps_from_deficit((r,), x, d, log_n=math.log(n))[0]
                                - cdf_gaps_from_deficit((r,), x, d, n=float(n))[0])
                        bound = poisson_remainder_bound(r, x, d, math.log(n))
                        assert abs(diff) <= bound, (n, r, x, d)

    def test_overflowing_addend_gives_the_plain_difference(self):
        # e^(-x) deficit past 709.78 overflows expm1; Lambda_r(x) is tiny there
        xm, dm = mp.mpf(-6.6), mp.mpf(0.999)
        expected = mp.exp(-mp.exp(-xm) * (1 - dm)) - mp.exp(-mp.exp(-xm))
        [got] = cdf_gaps_from_deficit((1,), -6.6, 0.999, log_n=10.0)
        assert got == pytest.approx(float(expected), rel=1e-14)
        for x in (-10.0, -1000.0, -math.inf):
            assert cdf_gaps_from_deficit((2,), x, 0.1, log_n=10.0) == [0.0]
        # exact n: s = e^(-x)(1 - d)/n = 1e-6, so P is about Poisson(1)'s
        n, x, r = 10**6, -10.0, 3
        d = 1.0 - n * 1e-6 * math.exp(x)
        sm = mp.e ** (-mp.mpf(x)) * (1 - mp.mpf(d)) / n
        expected = mp.fsum(mp.binomial(n, j) * sm**j * (1 - sm) ** (n - j)
                           for j in range(r)) - mp_gumbel_r(r, x)
        [got] = cdf_gaps_from_deficit((r,), x, d, n=float(n))
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert poisson_remainder_bound(2, -1000.0, 0.1, 10.0) == math.inf
        for x in (-10.0, -1000.0, -math.inf):  # s >= 1 is not a survival
            with pytest.raises(ValueError, match="got s="):
                cdf_gaps_from_deficit((2,), x, 0.1, n=1000.0)

    def test_nan_x_and_infinite_deficit_are_named(self):
        # both used to return nan gaps in log-n mode; at exact n a nan x blamed s
        for kw in ({"log_n": 10.0}, {"n": 1000.0}):
            with pytest.raises(ValueError, match="^x must not be nan$"):
                cdf_gaps_from_deficit((1, 2), math.nan, 0.0, **kw)
            with pytest.raises(ValueError, match="^deficit must be > -inf, got -inf$"):
                cdf_gaps_from_deficit((1,), 0.0, -math.inf, **kw)
        # an infinite x keeps its answer; x = -inf at exact n is s = inf
        for x in (math.inf, -math.inf):
            assert cdf_gaps_from_deficit((1, 2), x, 0.0, log_n=10.0) == [0.0, 0.0]
        assert cdf_gaps_from_deficit((1, 2), math.inf, 0.0, n=1000.0) == [0.0, 0.0]
        with pytest.raises(ValueError, match="got s=inf"):
            cdf_gaps_from_deficit((1, 2), -math.inf, 0.0, n=1000.0)

    def test_remainder_bound_keeps_the_two_sided_term_at_s_one(self):
        # both terms are 2 e^700 here, and n = e^700 is a finite double
        assert poisson_remainder_bound(2, -700.0, 0.0, 700.0) == pytest.approx(
            4.0 * math.exp(700.0), rel=1e-13)
        # n = inf: r n^(r-1) s^(n-r+1) is inf, not inf * log 1 = nan
        assert poisson_remainder_bound(3, -1000.0, 0.0, 1000.0) == math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cdf_gaps_from_deficit((0,), 0.0, 0.0, n=100.0)
        with pytest.raises(ValueError):
            cdf_gaps_from_deficit((1,), 0.0, 1.5, n=100.0)
        with pytest.raises(ValueError):
            cdf_gaps_from_deficit((1,), 0.0, 0.0)


def _exact_quantile(params, spec, u):
    """The y with exact P(|M_{n,r}|^p <= y) = u, by bisection."""
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if exact_powered_cdf(params, spec, mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_median(params, spec):
    """The y with exact P(|M_{n,r}|^p <= y) = 1/2."""
    return _exact_quantile(params, spec, 0.5)


def _table(n, r_max, reps, seed):
    """The tail probabilities U = -expm1(-Y) of a table, which the law tests
    read."""
    return -np.expm1(-mc_table(n, r_max, reps, seed))


def _ks_pvalue(sample, law_cdf) -> float:
    """Exact two-sided Kolmogorov-Smirnov p-value of a sample against a
    continuous law given by its CDF."""
    cdf_at = law_cdf(np.sort(sample))
    m = cdf_at.size
    steps = np.arange(1, m + 1) / m
    stat = max(np.max(steps - cdf_at), np.max(cdf_at - steps + 1.0 / m))
    return kstwo.sf(stat, m)


class TestMonteCarlo:
    def test_single_rep_is_indicator(self):
        params = make_params(2.0)
        spec = OrderStatSpec(n=20, r=1, p=2.0)
        est, se = mc_powered_cdf(params, spec, 4.0, reps=1, seed=5)
        assert est in (0.0, 1.0)
        assert se == 0.0

    def test_deterministic_per_seed(self):
        params = make_params(1.0)
        spec = OrderStatSpec(n=50, r=2, p=1.0)
        a = mc_powered_cdf(params, spec, 2.0, reps=2000, seed=9)
        b = mc_powered_cdf(params, spec, 2.0, reps=2000, seed=9)
        assert a == b
        assert not np.array_equal(_table(50, 2, 2000, 9), _table(50, 2, 2000, 10))

    def test_full_sample_deterministic(self):
        [a] = _table(1000, 1000, 1, seed=42)
        [b] = _table(1000, 1000, 1, seed=42)
        assert np.array_equal(a, b)
        [c] = _table(1000, 1000, 1, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", (1000, 10**6))
    def test_full_width_row_is_a_sorted_uniform_sample(self, n):
        # one replication of a width-n table is a whole sample of Y, so of
        # U = S(X) = -expm1(-Y)
        [us] = _table(n, n, 1, seed=n % 97)
        assert 0.0 < us[0] and us[-1] < 1.0
        assert np.all(np.diff(us) > 0.0)
        assert _ks_pvalue(us, lambda u: u) > 1e-4

    # one replication of a width-n table is a whole sorted sample, mapped to
    # X through |X| = lambda (2 Q^-1(1/v, 2 min(U, 1 - U)))^(1/v), with X > 0
    # where U < 1/2
    @pytest.mark.parametrize("v,var_rel", [(0.5, 2e-2), (1.0, 2e-2), (2.0, 1e-2),
                                           (4.0, 2e-2)])
    def test_full_sample_moments(self, v, var_rel):
        params = make_params(v)
        [us] = _table(10**6, 10**6, 1, seed=11)
        magnitude = (2.0 * gammainccinv(1.0 / v, 2.0 * np.minimum(us, 1.0 - us))) ** (1.0 / v)
        xs = np.where(us < 0.5, 1.0, -1.0) * params.lam * magnitude
        for i in (0, 1, 999, 500000, 999999):
            assert xs[i] == pytest.approx(-quantile(params, us[i]), rel=1e-12, abs=1e-12)
        assert abs(xs.mean()) < 4e-3
        assert xs.var() == pytest.approx(1.0, rel=var_rel)

    def test_full_sample_laplace_tail_frequency(self):
        # X > 1 exactly when U = S(X) < S(1)
        n = 10**6
        [us] = _table(n, n, 1, seed=3)
        p_true = 0.5 * math.exp(-math.sqrt(2.0))
        se = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs((us < survival(make_params(1.0), 1.0)).mean() - p_true) < 3.0 * se

    @pytest.mark.parametrize("n,widths,reps", [
        (1, (1,), 5000), (3, (1, 2, 3), 5000), (1000, (1, 3, 1000), 2000),
        (10**6, (1, 3), 2000)], ids=["n1", "n3", "n1000", "n1000000"])
    def test_columns_follow_the_beta_laws(self, n, widths, reps):
        # column k of a table is Y_(k), so U_(k) = -expm1(-Y_(k)) is the k-th
        # smallest of n uniforms, whose law is Beta(k, n + 1 - k), at every width
        for r_max in widths:
            top = _table(n, r_max, reps, seed=n + r_max)
            for k in {1, 2, 3, r_max // 2, r_max - 1, r_max} & set(range(1, r_max + 1)):
                assert _ks_pvalue(top[:, k - 1], beta(k, n + 1 - k).cdf) > 1e-4

    def test_median_point_three_sigma(self):
        # pick y with exact probability 1/2 by bisection, then simulate
        params = make_params(2.0)
        spec = OrderStatSpec(n=100, r=2, p=2.0)
        y_half = _exact_median(params, spec)
        est, se = mc_powered_cdf(params, spec, y_half, reps=10**4, seed=2024)
        assert abs(est - 0.5) <= 3.0 * se

    def test_laplace_grid_three_sigma(self):
        params = make_params(1.0)
        spec = OrderStatSpec(n=50, r=1, p=1.0)
        for i, y in enumerate((1.0, 2.0, 3.0, 4.0, 5.0)):
            exact = exact_powered_cdf(params, spec, y)
            est, se = mc_powered_cdf(params, spec, y, reps=8000, seed=100 + i)
            se = max(se, math.sqrt(0.25 / 8000) * 0.05)
            assert abs(est - exact) <= 3.0 * se

    def test_reps_below_one_rejected(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            _table(10, 1, reps=0, seed=0)

    def test_budget(self):
        # a job draws reps * r_max values, and the budget is 2e8 of them
        params = make_params(2.0)
        spec = OrderStatSpec(n=10**6, r=1000, p=1.0)
        with pytest.raises(BudgetError, match=r"reps \* r = 200001000 exceeds 200000000"):
            mc_powered_cdf(params, spec, 1.0, reps=200001, seed=0)
        assert mc_table(10**5, 10**5, 2001, 0) is None
        top = mc_table(10**6, 3, 5000, 0)
        assert top.shape == (5000, 3)

    # (v, n, r, p, y, reps, seed) -> (est, se), re-pinned when tables came
    # to hold exponential order statistics drawn with no gamma draw, which
    # changed every replication of a seed (exact values 0.504, 0.846 and
    # 0.537; the estimates lie 0.44, 1.20 and 1.26 of their stderr away)
    @pytest.mark.parametrize("case,expected", [
        ((0.5, 100, 1, 1.0, 3.6, 2000, 3), (0.4995, 0.011180334297327607)),
        ((2.0, 1000, 3, 2.0, 9.0, 1500, 17), (0.834, 0.009607080722050795)),
        ((4.0, 100000, 2, 1.5, 4.8, 60, 5), (0.6166666666666667, 0.06276794416591015)),
    ])
    def test_pinned_estimates(self, case, expected):
        v, n, r, p, y, reps, seed = case
        spec = OrderStatSpec(n=n, r=r, p=p)
        assert mc_powered_cdf(make_params(v), spec, y, reps, seed) == expected

    @pytest.mark.parametrize("v,n,r,p,y,reps,seed", [
        (0.5, 100, 1, 1.0, 3.6, 2000, 3), (4.0, 100000, 2, 1.5, 4.8, 60, 5)])
    def test_mc_powered_cdf_scores_a_one_job_table(self, v, n, r, p, y, reps, seed):
        params = make_params(v)
        spec = OrderStatSpec(n=n, r=r, p=p)
        assert mc_powered_cdf(params, spec, y, reps, seed) == mc_score(
            mc_table(n, r, reps, seed), r, survival(params, y ** (1.0 / p)))

    def test_negative_threshold_scores_zero(self):
        spec = OrderStatSpec(n=10, r=2, p=1.5)
        assert mc_powered_cdf(make_params(1.0), spec, -1.0, reps=50, seed=0) == (0.0, 0.0)

    def test_table_columns_score_like_mc_powered_cdf(self):
        # column r - 1 of a wide table scores as mc_powered_cdf scores its
        # own width-r table: the rows with |X| = |quantile(U)| <= t
        params = make_params(1.5)
        n, r_max, reps, seed, p, t = 40, 6, 3000, 21, 1.5, 1.6
        # U = -expm1(-Y) is formed with math, value by value, since these
        # counts must equal the scores exactly
        ys = mc_table(n, r_max, reps, seed)
        assert ys.shape == (reps, r_max)
        assert np.all(ys[:, :-1] < ys[:, 1:])  # smallest U, largest X, first
        for r in range(1, r_max + 1):
            est = sum(abs(quantile(params, -math.expm1(-y))) <= t for y in ys[:, r - 1]) / reps
            assert mc_score(ys, r, survival(params, t)) == (
                est, math.sqrt(est * (1.0 - est) / reps))
            own = sum(abs(quantile(params, -math.expm1(-y))) <= t
                      for y in mc_table(n, r, reps, seed)[:, -1])
            spec = OrderStatSpec(n=n, r=r, p=p)
            assert mc_powered_cdf(params, spec, t ** p, reps, seed)[0] == own / reps

    @staticmethod
    def _white_box_replications(n, r_max, reps, seed) -> list[list[float]]:
        """Rebuild a table's replications from its one generator call, an
        (r_max, reps) block of Exp(1) draws whose row i - 1 holds each
        replication's E_i.  A replication is Y_(k) = sum_{i<=k} E_i/(n - i + 1),
        each quotient and running sum formed in Python floats."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        exps = rng.standard_exponential((r_max, reps)).T.tolist()
        return [list(itertools.accumulate(e / (n - i) for i, e in enumerate(row)))
                for row in exps]

    @classmethod
    def _white_box_table(cls, n, r_max, reps, seed):
        """The replications of a table with each column sorted."""
        rows = cls._white_box_replications(n, r_max, reps, seed)
        return np.array([sorted(column) for column in zip(*rows)]).T

    def test_sorted_columns_count_as_the_replications(self):
        # sorting each column changes no count of s <= U_(r) <= 1 - s, with
        # U = -expm1(-Y), and every row of the sorted table stays ascending
        n, r_max, reps, seed = 50, 4, 3000, 13
        rows = self._white_box_replications(n, r_max, reps, seed)
        top = mc_table(n, r_max, reps, seed)
        assert top.flags["F_CONTIGUOUS"] and np.all(np.diff(top, axis=0) >= 0.0)
        assert np.all(top[:, :-1] < top[:, 1:])
        assert not np.array_equal(top, np.array(rows))
        for r in range(1, r_max + 1):
            for s in (0.0, 0.001, 0.01, 0.03, 0.08, 0.2, 0.5, 0.7, 1.0):
                count = sum(s <= -math.expm1(-row[r - 1]) <= 1.0 - s for row in rows)
                assert mc_score(top, r, s)[0] == count / reps, (r, s)

    def test_score_takes_a_sequence_of_thresholds(self):
        # a sequence gets the pairs that its values get one at a time
        top = mc_table(1000, 3, 2000, seed=4)
        ss = [0.0, 1e-4, 0.0009, 0.001, 0.003, 0.5, 0.6, 1.0]
        for r in (1, 2, 3):
            alone = [mc_score(top, r, s) for s in ss]
            assert mc_score(top, r, ss) == alone
            assert mc_score(top, r, tuple(ss)) == alone
            assert mc_score(top, r, np.array(ss)) == alone
            assert mc_score(top, r, ss[2:3]) == alone[2:3]
            assert mc_score(top, r, []) == []
            assert all(type(est) is float and type(se) is float for est, se in alone)
        with pytest.raises(ValueError, match=r"s must lie in \[0, 1\], got \[0.1, 1.5, 0.2\]"):
            mc_score(top, 1, [0.1, 1.5, 0.2])

    def test_score_edges_in_a_sequence(self):
        # s = 0 counts every row and s = 1 none, alone or in a sequence, and
        # a nan anywhere in a sequence is refused with the sequence named
        top = mc_table(1000, 3, 500, seed=6)
        for r in (1, 3):
            assert mc_score(top, r, [0.0, 1.0, 0.0]) == [(1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
            assert mc_score(top, r, [1.0]) == [mc_score(top, r, 1.0)]
        for ss in ([math.nan, 0.5], [0.5, math.nan], [0.2, math.nan, 0.3], [1.0, math.nan]):
            with pytest.raises(ValueError, match=r"s must lie in \[0, 1\], got \[.*nan"):
                mc_score(top, 1, ss)
        with pytest.raises(ValueError, match=r"s must lie in \[0, 1\]"):
            mc_score(top, 1, np.array([0.2, math.nan]))

    @pytest.mark.parametrize("v", (0.5, 1.0, 2.0, 4.0))
    def test_table_matches_the_white_box_rebuild(self, v):
        # bit for bit at narrow shapes (r_max < reps), at r_max = reps and
        # at wide shapes; and
        # mc_powered_cdf counts the rows whose |X| = |quantile(U)| is at most
        # t = y^(1/p), U = -expm1(-Y), at widths 1 to n
        params, p = make_params(v), 1.5
        for n, r_max, reps in ((100000, 3, 90), (1000, 3, 300), (40, 40, 500),
                               (300, 300, 300), (1000, 1000, 2), (1, 1, 50)):
            top = mc_table(n, r_max, reps, seed=11)
            assert np.array_equal(top, self._white_box_table(n, r_max, reps, 11))
            t = quantile(params, 1.0 - min(0.45, r_max / n))
            est = sum(abs(quantile(params, -math.expm1(-y))) <= t for y in top[:, -1]) / reps
            spec = OrderStatSpec(n=n, r=r_max, p=p)
            assert mc_powered_cdf(params, spec, t ** p, reps, 11)[0] == est

    # the ids are the names these cases carried when tables were drawn by
    # rejection above a threshold, kept so that the test names stay stable
    @pytest.mark.parametrize("v", (0.5, 1.0, 2.0, 4.0))
    @pytest.mark.parametrize("n,r_max,p,seed", [
        pytest.param(1000, 3, 1.0, 31, id="threshold-1000-None"),
        pytest.param(8, 8, 1.0, 31, id="whole_law-8-None"),
        pytest.param(1000, 3, 1.5, 32, id="short_above-1000-1.5"),
        pytest.param(6, 3, 1.0, 31, id="short_k-6-1.0")])
    def test_table_columns_follow_the_exact_law(self, v, n, r_max, p, seed):
        # every column at thresholds where the exact CDF is 0.1 to 0.9,
        # scored by exact binomial tails as criterion 8c scores its cells;
        # at n = 8 the table is the whole sample, negative X included
        params, reps = make_params(v), 20000
        top = mc_table(n, r_max, reps, seed)
        for r in range(1, r_max + 1):
            spec = OrderStatSpec(n=n, r=r, p=p)
            for u in (0.1, 0.3, 0.5, 0.7, 0.9):
                y = _exact_quantile(params, spec, u)
                exact = exact_powered_cdf(params, spec, y)
                k = round(mc_score(top, r, survival(params, y ** (1.0 / p)))[0] * reps)
                assert min(bdtr(k, reps, exact), bdtrc(k - 1, reps, exact)) > 1e-4

    def test_mc_table_over_budget_is_none_and_not_drawn(self, monkeypatch):
        drawn = []
        real = np.random.default_rng

        def recording(seed_seq):
            drawn.append(seed_seq.entropy)
            return real(seed_seq)

        monkeypatch.setattr(np.random, "default_rng", recording)
        # the first table draws reps * r_max = 200000001 values, over 2e8
        assert mc_table(10**6, 3, 66666667, 0) is None
        assert mc_table(100, 2, 50, 1).shape == (50, 2)
        assert drawn == [1]
        # a table of exactly the budget is drawn, and one more replication is not
        monkeypatch.setattr(orderstats, "_MC_DEFAULT_BUDGET", 100)
        assert mc_table(100, 2, 50, 2) is not None
        assert mc_table(100, 2, 51, 3) is None
        assert drawn == [1, 2]

    @pytest.mark.parametrize("v", (0.5, 1.0, 2.0, 4.0))
    def test_table_width_can_be_n(self, v):
        # at widths 1, 3 and n each row holds the smallest U in (0, 1),
        # ascending, and X = -quantile(U) lists the largest X first
        params, seed = make_params(v), 1
        for n, widths, reps in ((1000, (1, 3, 1000), 7), (3, (1, 2, 3), 64)):
            for r_max in widths:
                top = _table(n, r_max, reps, seed)
                assert top.shape == (reps, r_max)
                assert np.all((0.0 < top) & (top < 1.0))
                assert np.all(np.diff(top, axis=1) > 0.0)
                xs = np.array([[-quantile(params, u) for u in row] for row in top])
                assert np.all(np.diff(xs, axis=1) <= 0.0)
            with pytest.raises(ValueError):
                _table(n, n + 1, reps, seed)

    # sha256 of tables, re-pinned when they came to hold Y = -log(1 - U)
    # summed from E_i/(n - i + 1), with each replication's E_i drawn as row
    # i - 1 of an (r_max, reps) block and no gamma draw; every value changed.
    # ids name the job, so a re-pin renames no test
    @pytest.mark.parametrize("job,digest", [
        ((1000, 3, 300, 11),
         "ed2a110bd3072971c3d751a6dae6ec18c70c7e689141491a5808c3aaebe8f64c"),
        ((3, 3, 64, 1),
         "943d71c76a528a18ab3903a5df34241394d8d24169f104d923b0fc3a11a17f92"),
        ((1, 1, 64, 2),
         "3147c635d37079215b149920babeef0e2d528f8fdf48731629de9f1058070906"),
        ((1000, 1000, 2, 5),
         "9d38e662fafda3c74410229a7e4998cf72462c0cd89a3b00dbe42f866f0b2fb6"),
    ], ids=["n1000-w3", "n3-w3", "n1-w1", "n1000-w1000"])
    def test_tables_are_unchanged(self, job, digest):
        top = mc_table(*job)
        assert hashlib.sha256(top.tobytes()).hexdigest() == digest

    _LIBM_LIKE = ("exp", "expm1", "log", "log1p", "power")

    def test_tables_and_scores_call_no_numpy_transcendental(self, monkeypatch):
        # numpy's SIMD exp and log can differ from libm in the last bit, by
        # CPU; tables are formed with + and / and scored at thresholds taken
        # with math, so their bits and counts do not depend on the CPU
        def refused(*args, **kwargs):
            raise AssertionError("a numpy transcendental function was called")

        for name in self._LIBM_LIKE:
            monkeypatch.setattr(np, name, refused)
        for job in ((1000, 3, 300, 1), (50, 50, 50, 2), (1000, 1000, 2, 3)):
            top = mc_table(*job)
            assert mc_score(top, 2, [0.0, 0.01, 0.3, 1.0])
            assert mc_score(top, 1, np.float64(0.2))

    @pytest.mark.parametrize("v", (0.5, 2.0))
    def test_own_generator_law_three_sigma(self, v):
        # thresholds where P(|M_{1000,r}| <= t) spans about 0.06 to 0.96
        params, n, reps = make_params(v), 1000, 20000
        top = mc_table(n, 3, reps, seed=77)
        for r in (1, 2, 3):
            spec = OrderStatSpec(n=n, r=r, p=1.0)
            for w in (0.5, 1.0, 2.0, 4.0):
                t = quantile(params, 1.0 - r / (w * n))
                exact = exact_powered_cdf(params, spec, t)
                est, _ = mc_score(top, r, survival(params, t))
                assert abs(est - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / reps)

    @pytest.mark.parametrize("v", (0.5, 2.0))
    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_tiny_n_every_column_three_sigma(self, v, n):
        # at r_max = n the lower columns hold the negative X
        params, reps = make_params(v), 20000
        top = mc_table(n, n, reps, seed=40 + n)
        for r in range(1, n + 1):
            y_half = _exact_median(params, OrderStatSpec(n=n, r=r, p=1.0))
            est, se = mc_score(top, r, survival(params, y_half))
            assert abs(est - 0.5) <= 3.0 * se

    def test_three_draws_smallest_is_negative_seven_eighths(self):
        # the smallest of three X is negative, that is U_(3) > 1/2, unless
        # all three are positive
        reps = 20000
        top = _table(3, 3, reps, seed=8)
        share = np.count_nonzero(top[:, 2] > 0.5) / reps
        assert abs(share - 7.0 / 8.0) <= 3.0 * math.sqrt(7.0 / 64.0 / reps)

    def test_score_rank_within_table_width(self):
        top = mc_table(10, 2, 100, seed=0)
        for r in (1, 2):
            mc_score(top, r, 0.1)
        for r in (0, 3):
            with pytest.raises(ValueError, match="table width"):
                mc_score(top, r, 0.1)

    @pytest.mark.parametrize("p", (0.0, math.inf))
    def test_score_power_positive_and_finite(self, p):
        # mc_score takes s = S(y^(1/p)), so the power is checked where the
        # spec that mc_powered_cdf scores is made
        with pytest.raises(ValueError, match="p must be positive and finite"):
            mc_powered_cdf(make_params(1.0), OrderStatSpec(n=10, r=1, p=p), 1.0,
                           reps=100, seed=0)

    def test_score_s_lies_in_the_unit_interval(self):
        # s = 0 is t = inf and counts every row; s = 1 counts none
        top = mc_table(10, 2, 100, seed=0)
        assert mc_score(top, 2, 0.0) == (1.0, 0.0)
        assert mc_score(top, 2, 1.0) == (0.0, 0.0)
        for s in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"s must lie in \[0, 1\]"):
                mc_score(top, 1, s)

    def test_nan_threshold_rejected(self):
        params = make_params(1.0)
        with pytest.raises(ValueError, match="nan"):
            mc_powered_cdf(params, OrderStatSpec(n=10, r=1, p=1.0),
                           math.nan, reps=10, seed=0)
