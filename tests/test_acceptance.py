"""Acceptance criteria, one test per criterion, each printing a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are pinned here; the per-case x points of criteria 5
and 6 are pre-registered at grid positions where the targets are
well-conditioned (away from zeros of the correction polynomials)."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import bdtr, bdtrc

from gedpower.expansions import (
    NormedCase,
    classify_case,
    exact_deficit,
    expand,
)
from gedpower.ged import cdf, make_params, pdf, quantile, survival
from gedpower.harness import SweepConfig, emit, run_sweep
from gedpower.norming import optimal_constants, power_constants, solve_bn
from gedpower.orderstats import (
    OrderStatSpec,
    cdf_gap_from_deficit,
    exact_powered_cdf,
    mc_score,
    mc_tables,
)
from gedpower.specfun import reg_gamma_lower
from oracles import (
    brute_lower_orderstat_mass,
    brute_upper_orderstat_cdf,
    gumbel_r_identities,
    quad_reg_lower,
)

mp.mp.dps = 40

LN10 = math.log(10.0)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def double_limit_point(v: float, p: float, r: int, x: float, theorem: int,
                       n: int | None = None, log_n: float | None = None):
    """(scaled_err1, target1, scaled_err2, target2) at one grid point."""
    params = make_params(v)
    case = classify_case(v, p, theorem=theorem)
    cell = NormedCase(params, case, n, log_n)
    deficit = exact_deficit(cell, x)
    if n is not None:
        gap = cdf_gap_from_deficit(r, x, deficit, n=float(n))
    else:
        gap = cdf_gap_from_deficit(r, x, deficit, log_n=log_n)
    ee = expand(cell, r, x)
    t1 = ee.first_order * ee.scale_first
    t2 = ee.second_order * ee.scale_second
    se1 = ee.scale_first * gap
    se2 = (ee.scale_second / ee.scale_first) * (se1 - t1)
    return se1, t1, se2, t2, gap


def test_criterion_1_laplace_exactness():
    """n e^x (1 - G_1(a x + b)) = 1 to 1e-13 under the unit-power norming."""
    params = make_params(1.0)
    worst = 0.0
    for n in (10**3, 10**6, 10**9):
        nm = power_constants(params, 1.0, n)
        for x in np.arange(-1.0, 4.0 + 1e-9, 0.5):
            z = nm.scale * x + nm.shift
            val = n * math.exp(x) * survival(params, z)
            worst = max(worst, abs(val - 1.0))
    report("criterion 1 (Laplace tail calibration is exact)",
           worst <= 1e-13, f"max |n e^x S - 1| = {worst:.2e}")


def test_criterion_2_t1_i_double_limit():
    """v=1, p=1 first order within 2% and second order within 5% at n=1e8,
    improving monotonically from n=1e4; a rung that has already converged
    to within 3e-6 of the target counts as at the float64 noise floor
    (the n^2-amplified gap noise) rather than as a monotonicity break."""
    ladder = (10**4, 10**6, 10**8)
    ok = True
    notes = []
    for r in (1, 2, 3):
        for x in (-0.5, 0.0, 1.0, 2.0):
            devs = []
            t2 = math.nan
            for n in ladder:
                se1, t1, se2, t2, gap = double_limit_point(1.0, 1.0, r, x, 1, n=n)
                if n == ladder[-1]:
                    if abs(t1) > 1e-12 and abs(se1 / t1 - 1.0) > 0.02:
                        ok = False
                        notes.append(f"first-order r={r} x={x}")
                    if abs(se2 / t2 - 1.0) > 0.05:
                        ok = False
                        notes.append(f"second-order r={r} x={x}")
                devs.append(abs(se2 - t2))
            floor = 3e-6 * abs(t2)
            for d_prev, d_next in zip(devs, devs[1:]):
                if not (d_next < d_prev or d_next <= floor):
                    ok = False
                    notes.append(f"monotonicity r={r} x={x}")
    report("criterion 2 (Laplace unit-power double limit at n=1e8)",
           ok, "; ".join(notes) if notes else "12 grid points")


def test_criterion_3_t1_ii_rate():
    """v=1, p != 1: scaled first-order error within 10% of its target at
    n=1e12 and |ratio - 1| decreasing along the ladder."""
    ladder = [e * LN10 for e in (4, 6, 8, 10, 12)]
    ok = True
    notes = []
    for p, r in ((0.5, 1), (2.0, 1), (3.0, 2)):
        x = 1.0
        rel = []
        for ln in ladder:
            se1, t1, _, _, _ = double_limit_point(1.0, p, r, x, 1, log_n=ln)
            rel.append(abs(se1 / t1 - 1.0))
        if rel[-1] > 0.10:
            ok = False
            notes.append(f"final ratio p={p} r={r}: {rel[-1]:.3f}")
        if any(b >= a for a, b in zip(rel, rel[1:])):
            ok = False
            notes.append(f"not decreasing p={p} r={r}: {rel}")
    report("criterion 3 (powered Laplace first-order rate)",
           ok, "; ".join(notes) if notes else "3 combos, 5-rung ladder")


def test_criterion_4_t1_iii_trend():
    """v != 1 under the powered-family norming: slow loglog rate; require
    sign agreement and monotone approach, and document the final gap."""
    ladder = [e * LN10 for e in (6, 8, 10, 12)]
    ok = True
    finals = []
    for v in (0.5, 2.0, 4.0):
        for p in (1.0, 2.0):
            x = 0.0
            devs = []
            for ln in ladder:
                se1, t1, _, _, _ = double_limit_point(v, p, 1, x, 1, log_n=ln)
                if math.copysign(1.0, se1) != math.copysign(1.0, t1):
                    ok = False
                devs.append(abs(se1 - t1))
            if any(b >= a for a, b in zip(devs, devs[1:])):
                ok = False
            finals.append(f"v={v},p={p}: {devs[-1]:.3f}")
    report("criterion 4 (power-family loglog trend, final gaps documented)",
           ok, "; ".join(finals))


# pre-registered evaluation points: (v, p, r) -> (x for the 5% first-order
# check, x for the 15% second-order check); chosen where h_v and the
# second-order target are well away from their zeros
T2I_POINTS = {
    (0.5, 1.0, 1): (0.0, 0.0),
    (0.5, 1.0, 2): (0.0, 4.0),
    (0.5, 3.0, 1): (0.0, 0.0),
    (0.5, 3.0, 2): (-0.25, -1.0),
    (2.0, 1.0, 1): (0.0, -0.25),
    (2.0, 1.0, 2): (-0.75, -0.25),
    (2.0, 3.0, 1): (0.0, -0.25),
    (2.0, 3.0, 2): (-1.5, 0.0),
    (4.0, 1.0, 1): (-1.0, 0.0),
    (4.0, 1.0, 2): (-1.0, 0.25),
    (4.0, 3.0, 1): (-2.5, 0.0),
    (4.0, 3.0, 2): (-2.5, 0.0),
}


def test_criterion_5_t2_i_double_limit():
    """hall-constants case at n=1e12 (log-n mode): first order within 5%,
    second order within 15% of the adjudicated (eq34) target."""
    ln = 12 * LN10
    ok = True
    notes = []
    for (v, p, r), (x1, x2) in T2I_POINTS.items():
        se1, t1, _, _, _ = double_limit_point(v, p, r, x1, 2, log_n=ln)
        rel1 = abs(se1 / t1 - 1.0)
        if rel1 > 0.05:
            ok = False
            notes.append(f"first v={v} p={p} r={r}: {rel1:.4f}")
        _, _, se2, t2, _ = double_limit_point(v, p, r, x2, 2, log_n=ln)
        rel2 = abs(se2 / t2 - 1.0)
        if rel2 > 0.15:
            ok = False
            notes.append(f"second v={v} p={p} r={r}: {rel2:.4f}")
    report("criterion 5 (calibration-root case, both orders at n=1e12)",
           ok, "; ".join(notes) if notes else "12 combos x 2 orders")


def test_criterion_6_t2_ii_double_limit():
    """optimal-constants case at n=1e12: first order within 10%; the
    third-order residual tracks its target in sign and magnitude; at v=2
    the constants reproduce the classical corrected normal pair."""
    ln = 12 * LN10
    ok = True
    notes = []
    for v in (0.5, 2.0, 4.0):
        for r in (1, 2):
            x = 0.0
            se1, t1, se2, t2, _ = double_limit_point(v, v, r, x, 2, log_n=ln)
            rel1 = abs(se1 / t1 - 1.0)
            if rel1 > 0.10:
                ok = False
                notes.append(f"first v={v} r={r}: {rel1:.4f}")
            track = se2 / t2
            if not (track > 0.0 and 1.0 / 3.0 <= track <= 3.0):
                ok = False
                notes.append(f"third-order tracking v={v} r={r}: {track:.3f}")
    params = make_params(2.0)
    for n in (10**4, 10**8, 10**12):
        b = solve_bn(params, n).b_n
        nm = optimal_constants(params, n)
        if abs(nm.scale / (2.0 - 2.0 / b**2) - 1.0) > 1e-12:
            ok = False
            notes.append(f"corrected scale v=2 n={n}")
        if abs(nm.shift / (b**2 - 2.0 / b**2) - 1.0) > 1e-12:
            ok = False
            notes.append(f"corrected shift v=2 n={n}")
    report("criterion 6 (corrected-constants case at n=1e12)",
           ok, "; ".join(notes) if notes else "6 combos + normal pair")


def test_criterion_7_bn_residual():
    """substituting b_n back into the raw calibration equation reproduces
    n within 1e-12 relative on every grid the sweeps use."""
    ok = True
    worst = 0.0
    for v in (0.5, 1.0, 2.0, 4.0):
        params = make_params(v)
        lam = params.lam
        for ln in [math.log(10**e) for e in (2, 4, 8)] + [e * LN10 for e in (10, 12)]:
            sol = solve_bn(params, log_n=ln)
            log_lhs = (
                math.log(2.0) / v + (1.0 - v) * math.log(lam) + math.lgamma(1.0 / v)
                + (v - 1.0) * math.log(sol.b_n) + sol.b_n**v / (2.0 * lam**v)
            )
            resid = abs(math.expm1(log_lhs - ln))
            worst = max(worst, resid)
            ok = ok and resid <= 1e-12
    report("criterion 7 (calibration residual on all sweep grids)",
           ok, f"max residual {worst:.2e}")


def test_criterion_8a_specfun_quadrature():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 10.0)
        x = rng.uniform(1e-3, 3.0 * a + 5.0)
        rel = abs(reg_gamma_lower(a, x) / quad_reg_lower(a, x) - 1.0)
        worst = max(worst, rel)
    report("criterion 8a (incomplete gamma vs quadrature, 100 pairs)",
           worst <= 1e-10, f"max rel {worst:.2e}")


def test_criterion_8b_brute_force_binomial():
    ok = True
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        params = make_params(v)
        for n in (100, 1000, 10000):
            for r in (1, 2, 3):
                spec = OrderStatSpec(n=n, r=r, p=1.5)
                for w in (0.5, 1.0, 4.0):
                    t = quantile(params, 1.0 - min(0.4, w * r / n))
                    s = survival(params, t)
                    oracle = float(
                        brute_upper_orderstat_cdf(n, r, s)
                        - brute_lower_orderstat_mass(n, r, s)
                    )
                    got = exact_powered_cdf(params, spec, t**1.5)
                    rel = abs(got - oracle) / max(abs(oracle), 1e-300)
                    worst = max(worst, rel)
                    ok = ok and rel <= 1e-13
    report("criterion 8b (exact CDF vs exact-binomial brute force)",
           ok, f"max rel {worst:.2e}")


def test_criterion_8c_monte_carlo_grid():
    """99% of the standard grid within the two-sided 3-sigma binomial level.

    A cell misses when its count k of 5000 is as far out as
    min(P(K <= k), P(K >= k)) < Phi(-3) = 0.00135 under K ~
    Binomial(5000, exact).  The tails are exact, so a zero count at a
    small exact value scores its true probability, not a floored
    standard error.
    """
    reps = 5000
    points, jobs = [], []
    for vi, v in enumerate((0.5, 1.0, 2.0)):
        params = make_params(v)
        for ni, n in enumerate((100, 1000)):
            for r in (1, 2, 3):
                spec = OrderStatSpec(n=n, r=r, p=1.0)
                for wi, w in enumerate((0.25, 0.5, 1.0, 2.0, 4.0, 8.0)):
                    t = quantile(params, 1.0 - min(0.45, r / (w * n)))
                    points.append((r, survival(params, t), exact_powered_cdf(params, spec, t)))
                    seed = 1000 * vi + 100 * ni + 10 * r + wi
                    jobs.append((n, r, reps, seed))
    misses = 0
    total = len(jobs)
    for (r, s, exact), table in zip(points, mc_tables(jobs)):
        k = round(mc_score(table, r, s)[0] * reps)
        lower = bdtr(k, reps, exact)  # P(K <= k)
        upper = bdtrc(k - 1, reps, exact) if k > 0 else 1.0  # P(K >= k)
        if min(lower, upper) < 0.00135:
            misses += 1
    report("criterion 8c (Monte Carlo 3-sigma binomial tails on standard grid)",
           misses <= math.floor(0.01 * total), f"{misses}/{total} misses")


def test_criterion_8d_limit_law_identities():
    worst = 0.0
    for r in range(1, 9):
        for x in np.linspace(-2.0, 4.0, 25):
            lhs1, rhs1, lhs2, rhs2 = gumbel_r_identities(r, x)
            scale1 = max(abs(lhs1), abs(rhs1), 1e-3)
            scale2 = max(abs(lhs2), abs(rhs2), 1e-3)
            worst = max(worst, abs(lhs1 - rhs1) / scale1, abs(lhs2 - rhs2) / scale2)
    report("criterion 8d (limit-law moment identities)",
           worst <= 1e-13, f"max rel {worst:.2e}")


def test_criterion_8e_gradient_check():
    h = 1e-5
    worst = 0.0
    for v in (0.5, 1.0, 2.0, 4.0):
        params = make_params(v)
        for x in (0.5, 1.0, 2.5):
            fd = (cdf(params, x + h) - cdf(params, x - h)) / (2.0 * h)
            worst = max(worst, abs(fd / pdf(params, x) - 1.0))
    report("criterion 8e (density vs cdf finite differences, O(h^2))",
           worst <= 1e-7, f"max rel {worst:.2e} at h={h}")


def test_criterion_9_determinism(tmp_path):
    cfg = dict(
        v_list=(1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2),
        n_ladder=(500, 3000), x_min=-0.5, x_max=1.0, x_step=0.5,
        mc_reps=200, seed=17,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_sweep(SweepConfig(**cfg)), "csv", str(a))
    emit(run_sweep(SweepConfig(**cfg)), "csv", str(b))
    same = a.read_bytes() == b.read_bytes()
    report("criterion 9 (byte-identical repeated sweeps)",
           same, f"{a.stat().st_size} bytes")
