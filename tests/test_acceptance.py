"""Acceptance criteria, one test per criterion, each printing a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are pinned here; the per-case x points of criteria 5
and 6 are pre-registered at grid positions where the targets are
well-conditioned (away from zeros of the correction polynomials)."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import bdtr, bdtrc

import gedpower
from gedpower.cli import _sweep_config, build_parser
from gedpower.ged import cdf, make_params, pdf, quantile, survival
from gedpower.harness import CSV_HEADER, SweepConfig, emit, run_sweep
from gedpower.norming import optimal_constants, power_constants, solve_bn
from gedpower.orderstats import (
    OrderStatSpec,
    exact_powered_cdf,
    mc_score,
    mc_table,
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
CRITERIA = Path(__file__).resolve().parent / "criteria"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def criterion_rows(k: int, ladder: tuple) -> dict:
    """The rows of the sweep in ``criteria/<k>.json``, read through the CLI's
    config reader, keyed by (v, p, r, ladder position, x).  The file's ladder
    must be ``ladder`` double for double, and every row must hold numbers: a
    nan would pass every tolerance check below."""
    args = build_parser().parse_args(["verify", "--config", str(CRITERIA / f"{k}.json")])
    config = _sweep_config(args)
    assert (config.n_ladder or config.log_n_ladder) == ladder
    rows = run_sweep(config)
    assert [row.error for row in rows if row.error] == []
    per_rung = len(config.x_grid())
    return {(row.v, row.p, row.r, i // per_rung % len(ladder), row.x): row
            for i, row in enumerate(rows)}


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
    rows = criterion_rows(2, ladder)
    ok = True
    notes = []
    for r in (1, 2, 3):
        for x in (-0.5, 0.0, 1.0, 2.0):
            devs = []
            t2 = math.nan
            for k, n in enumerate(ladder):
                row = rows[1.0, 1.0, r, k, x]
                se1, t1, se2, t2 = row.scaled_err1, row.target1, row.scaled_err2, row.target2
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
    ladder = tuple(e * LN10 for e in (4, 6, 8, 10, 12))
    rows = criterion_rows(3, ladder)
    ok = True
    notes = []
    for p, r in ((0.5, 1), (2.0, 1), (3.0, 2)):
        x = 1.0
        rel = []
        for k in range(len(ladder)):
            row = rows[1.0, p, r, k, x]
            rel.append(abs(row.scaled_err1 / row.target1 - 1.0))
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
    ladder = tuple(e * LN10 for e in (6, 8, 10, 12))
    rows = criterion_rows(4, ladder)
    ok = True
    finals = []
    for v in (0.5, 2.0, 4.0):
        for p in (1.0, 2.0):
            x = 0.0
            devs = []
            for k in range(len(ladder)):
                row = rows[v, p, 1, k, x]
                se1, t1 = row.scaled_err1, row.target1
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
    rows = criterion_rows(5, (12 * LN10,))
    ok = True
    notes = []
    for (v, p, r), (x1, x2) in T2I_POINTS.items():
        first = rows[v, p, r, 0, x1]
        rel1 = abs(first.scaled_err1 / first.target1 - 1.0)
        if rel1 > 0.05:
            ok = False
            notes.append(f"first v={v} p={p} r={r}: {rel1:.4f}")
        second = rows[v, p, r, 0, x2]
        rel2 = abs(second.scaled_err2 / second.target2 - 1.0)
        if rel2 > 0.15:
            ok = False
            notes.append(f"second v={v} p={p} r={r}: {rel2:.4f}")
    report("criterion 5 (calibration-root case, both orders at n=1e12)",
           ok, "; ".join(notes) if notes else "12 combos x 2 orders")


def test_criterion_5_rows_rerun_from_the_cli(tmp_path):
    """``gedpower verify --config tests/criteria/5.json`` writes the rows, and
    so the cells, that criterion 5 reads."""
    out = tmp_path / "c5.csv"
    src = str(Path(gedpower.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    proc = subprocess.run([sys.executable, "-m", "gedpower", "verify", "--config",
                           str(CRITERIA / "5.json"), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        written = list(csv.reader(fh))
    assert ",".join(written[0]) == CSV_HEADER
    rows = criterion_rows(5, (12 * LN10,)).values()
    assert len(written) == 1 + len(rows)
    for cells, row in zip(written[1:], rows):
        assert [float(c) for c in cells[:-1]] == list(row[:-1]) and cells[-1] == ""


def test_criterion_6_t2_ii_double_limit():
    """optimal-constants case at n=1e12: first order within 10%; the
    third-order residual tracks its target in sign and magnitude; at v=2
    the constants reproduce the classical corrected normal pair."""
    rows = criterion_rows(6, (12 * LN10,))
    ok = True
    notes = []
    for v in (0.5, 2.0, 4.0):
        for r in (1, 2):
            x = 0.0
            row = rows[v, v, r, 0, x]
            se1, t1, se2, t2 = row.scaled_err1, row.target1, row.scaled_err2, row.target2
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
    points, tables = [], []
    for vi, v in enumerate((0.5, 1.0, 2.0)):
        params = make_params(v)
        for ni, n in enumerate((100, 1000)):
            for r in (1, 2, 3):
                spec = OrderStatSpec(n=n, r=r, p=1.0)
                for wi, w in enumerate((0.25, 0.5, 1.0, 2.0, 4.0, 8.0)):
                    t = quantile(params, 1.0 - min(0.45, r / (w * n)))
                    points.append((r, survival(params, t), exact_powered_cdf(params, spec, t)))
                    seed = 1000 * vi + 100 * ni + 10 * r + wi
                    tables.append(mc_table(n, r, reps, seed))
    misses = 0
    total = len(tables)
    for (r, s, exact), table in zip(points, tables):
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
