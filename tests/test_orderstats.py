import math

import mpmath as mp
import numpy as np
import pytest

from gedpower.expansions import gumbel_r
from gedpower.ged import cdf, make_params, quantile, survival
from gedpower.norming import gumbel_constants, hall_constants, power_constants
from gedpower.orderstats import (
    BudgetError,
    OrderStatSpec,
    _binom_head,
    cdf_gap_from_deficit,
    exact_powered_cdf,
    lower_tail_mass,
    mc_powered_cdf,
    mc_score,
    mc_top_order_stats,
    poisson_powered_cdf,
    poisson_remainder_bound,
)
from oracles import brute_lower_orderstat_mass, brute_upper_orderstat_cdf

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
                gap = cdf_gap_from_deficit(r, x, deficit, n=float(n))
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
                    got = cdf_gap_from_deficit(r, x, deficit, log_n=50.0)
                    assert got == pytest.approx(float(exact - lam_r), rel=1e-12, abs=1e-18)

    def test_zero_deficit_binomial_gap_is_poisson_binomial_difference(self):
        # with deficit 0 the gap is exactly the binomial-vs-Gumbel O(1/n) term
        n = 10**8
        x = 0.0
        gap = cdf_gap_from_deficit(1, x, 0.0, n=float(n))
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
                        diff = (cdf_gap_from_deficit(r, x, d, log_n=math.log(n))
                                - cdf_gap_from_deficit(r, x, d, n=float(n)))
                        bound = poisson_remainder_bound(r, x, d, math.log(n))
                        assert abs(diff) <= bound, (n, r, x, d)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cdf_gap_from_deficit(0, 0.0, 0.0, n=100.0)
        with pytest.raises(ValueError):
            cdf_gap_from_deficit(1, 0.0, 1.5, n=100.0)
        with pytest.raises(ValueError):
            cdf_gap_from_deficit(1, 0.0, 0.0)


def _exact_median(params, spec):
    """The y with exact P(|M_{n,r}|^p <= y) = 1/2, by bisection."""
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if exact_powered_cdf(params, spec, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
            mc_top_order_stats(make_params(2.0), 10, 1, reps=0, seed=0)

    def test_budget(self):
        params = make_params(2.0)
        spec = OrderStatSpec(n=10**6, r=1, p=1.0)
        with pytest.raises(BudgetError):
            mc_powered_cdf(params, spec, 1.0, reps=10**6, seed=0)
        with pytest.raises(BudgetError):
            mc_top_order_stats(params, 10**6, 3, reps=10**6, seed=0)

    # (v, n, r, p, y, reps, seed) -> (est, se), computed when each row drew
    # only its positive magnitudes; the last case spans two chunks
    @pytest.mark.parametrize("case,expected", [
        ((0.5, 100, 1, 1.0, 3.6, 2000, 3), (0.496, 0.011179982110898032)),
        ((2.0, 1000, 3, 2.0, 9.0, 1500, 17),
         (0.8626666666666667, 0.008887177613051621)),
        ((4.0, 100000, 2, 1.5, 4.8, 60, 5), (0.55, 0.06422616289332565)),
    ])
    def test_pinned_estimates(self, case, expected):
        v, n, r, p, y, reps, seed = case
        spec = OrderStatSpec(n=n, r=r, p=p)
        assert mc_powered_cdf(make_params(v), spec, y, reps, seed) == expected

    def test_table_columns_score_like_mc_powered_cdf(self):
        params = make_params(1.5)
        n, r_max, reps, seed, p = 40, 6, 3000, 21, 1.5
        top = mc_top_order_stats(params, n, r_max, reps, seed)
        assert top.shape == (reps, r_max)
        assert np.all(top[:, :-1] >= top[:, 1:])  # largest first
        for r in range(1, r_max + 1):
            y = 1.6 ** p
            est = np.count_nonzero(np.abs(top[:, r - 1]) <= 1.6) / reps
            spec = OrderStatSpec(n=n, r=r, p=p)
            assert mc_powered_cdf(params, spec, y, reps, seed) == (
                est, math.sqrt(est * (1.0 - est) / reps))
            assert mc_score(top, r, p, y)[0] == est

    @staticmethod
    def _white_box_table(params, n, r_max, reps, seed):
        """Rebuild a one-chunk table from the generator calls it makes.

        K ~ Binomial(n, 1/2) per row; then one gamma block whose row i
        starts with its K_i positive magnitudes; then, for the rows with
        K_i < r_max in order, one block of width n whose row starts with
        the n - K_i negative magnitudes.  Each signed sample is sorted in
        full, so the reference makes no selection of its own.
        """
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        k = rng.binomial(n, 0.5, reps)
        pos = rng.standard_gamma(1.0 / params.v, size=(reps, max(k.max(), r_max)))
        short = np.flatnonzero(k < r_max)
        neg = rng.standard_gamma(1.0 / params.v, size=(short.size, n))

        def mag(y):
            return params.lam * (2.0 * y) ** (1.0 / params.v)

        rows = []
        for i in range(reps):
            sample = mag(pos[i, :k[i]])
            if k[i] < r_max:
                j = int(np.searchsorted(short, i))
                sample = np.concatenate([sample, -mag(neg[j, :n - k[i]])])
            rows.append(np.sort(sample)[::-1][:r_max])
        return np.array(rows)

    def test_table_width_can_be_n(self):
        # the table equals a full sort of the same draws at widths 1, 3, n
        params, seed = make_params(2.0), 1
        for n, widths, reps in ((1000, (1, 3, 1000), 7), (3, (1, 2, 3), 64)):
            for r_max in widths:
                top = mc_top_order_stats(params, n, r_max, reps, seed)
                expected = self._white_box_table(params, n, r_max, reps, seed)
                assert np.array_equal(top, expected)
            with pytest.raises(ValueError):
                mc_top_order_stats(params, n, n + 1, reps, seed)

    @pytest.mark.parametrize("v", (0.5, 2.0))
    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_tiny_n_every_column_three_sigma(self, v, n):
        # at r_max = n most rows hold fewer than r_max positive values, so
        # the negative magnitudes fill the lower columns
        params, reps = make_params(v), 20000
        top = mc_top_order_stats(params, n, n, reps, seed=40 + n)
        for r in range(1, n + 1):
            y_half = _exact_median(params, OrderStatSpec(n=n, r=r, p=1.0))
            est, se = mc_score(top, r, 1.0, y_half)
            assert abs(est - 0.5) <= 3.0 * se

    def test_three_draws_smallest_is_negative_seven_eighths(self):
        # the smallest of three is negative unless all three signs are +
        reps = 20000
        top = mc_top_order_stats(make_params(1.0), 3, 3, reps, seed=8)
        share = np.count_nonzero(top[:, 2] < 0.0) / reps
        assert abs(share - 7.0 / 8.0) <= 3.0 * math.sqrt(7.0 / 64.0 / reps)

    def test_score_rank_within_table_width(self):
        top = mc_top_order_stats(make_params(1.0), 10, 2, 100, seed=0)
        for r in (1, 2):
            mc_score(top, r, 1.0, 1.0)
        for r in (0, 3):
            with pytest.raises(ValueError, match="table width"):
                mc_score(top, r, 1.0, 1.0)

    def test_nan_threshold_rejected(self):
        params = make_params(1.0)
        with pytest.raises(ValueError, match="nan"):
            mc_powered_cdf(params, OrderStatSpec(n=10, r=1, p=1.0),
                           math.nan, reps=10, seed=0)
