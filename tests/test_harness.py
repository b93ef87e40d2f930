import dataclasses
import hashlib
import json
import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gedpower.cli import _VERIFY_KEYS, _sweep_config, build_parser, main
from gedpower.expansions import NormedCase, classify_case
from gedpower.ged import make_params
from gedpower.harness import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    VerificationRow,
    emit,
    run_sweep,
)
from gedpower.norming import hall_constants
from gedpower.orderstats import OrderStatSpec, exact_powered_cdf, poisson_powered_cdf


def rows_from_json(text: str) -> list[VerificationRow]:
    """Parse emit()'s JSON back into rows (inverse of the json format)."""
    rows = []
    for obj in json.loads(text):
        vals = {k: (math.nan if obj[k] is None and k != "error" else obj[k])
                for k in CSV_HEADER.split(",")}
        rows.append(VerificationRow(**vals))
    return rows


def t1i_config(**overrides):
    base = dict(
        v_list=(1.0,),
        p_list=(1.0,),
        r_list=(1, 2),
        n_ladder=(10**4, 10**6),
        x_min=-0.5,
        x_max=1.5,
        x_step=0.5,
        theorem="1",
    )
    base.update(overrides)
    return SweepConfig(**base)


def _table_seed(seed: int, vi: int, ni: int) -> int:
    """The generator seed of the Monte Carlo table of a sweep's
    (v index, n index) cell."""
    return int(np.random.SeedSequence((seed, vi, ni)).generate_state(1)[0])


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            t1i_config(v_list=())
        with pytest.raises(ConfigError):
            t1i_config(n_ladder=(100, 100))
        with pytest.raises(ConfigError):
            t1i_config(n_ladder=(10**6, 10**4))
        with pytest.raises(ConfigError):
            t1i_config(n_ladder=(), log_n_ladder=())
        with pytest.raises(ConfigError):
            t1i_config(log_n_ladder=(10.0,))  # both modes set
        with pytest.raises(ConfigError):
            t1i_config(x_step=0.0)
        with pytest.raises(ConfigError):
            t1i_config(x_max=-10.0)
        with pytest.raises(ConfigError):
            t1i_config(fmt="xml")
        with pytest.raises(ConfigError):
            t1i_config(theorem="t9_x")
        with pytest.raises(ConfigError):
            t1i_config(mc_reps=-1)

    @pytest.mark.parametrize("overrides", [
        dict(v_list=(math.nan,)), dict(v_list=(math.inf,)),
        dict(p_list=(1.0, math.nan)), dict(p_list=(-1.0,)),
        dict(x_min=-math.inf), dict(x_max=math.inf), dict(x_step=math.nan),
        dict(seed=-1),
        dict(n_ladder=(), log_n_ladder=(math.nan,)),
        dict(n_ladder=(), log_n_ladder=(10.0, math.inf)),
        # x point counts that overflow to inf (a tiny step, a span beyond
        # the largest double) and one of 2e7, rejected before any grid is built
        dict(x_max=1e300, x_step=1e-300), dict(x_min=-1e308, x_max=1e308),
        dict(x_max=1e7),
        # values of the wrong type
        dict(n_ladder=(10.5,)), dict(r_list=(1.5,)), dict(mc_reps=2.5),
        dict(v_list=("a",)), dict(seed=True), dict(x_min="0"),
        dict(n_ladder=(0,)), dict(n_ladder=(2**63,)),
        dict(n_ladder=(), log_n_ladder=("10",)),
        dict(r_list=(0,)),
        # integers past the double range
        dict(v_list=(10**400,)), dict(x_min=10**400),
        dict(n_ladder=(), log_n_ladder=(10**400,)),
        dict(x_min=-10**308, x_max=10**308),
    ])
    def test_non_finite_and_negative_inputs(self, overrides):
        with pytest.raises(ConfigError):
            t1i_config(**overrides)

    @pytest.mark.parametrize("grid", ["v_list", "p_list", "r_list"])
    @pytest.mark.parametrize("values", [(2, 2), (3, 1), (1, 2, 2)])
    def test_grids_must_be_strictly_increasing(self, grid, values):
        # a repeated value would repeat rows, and the copies would be scored
        # against different Monte Carlo tables
        with pytest.raises(ConfigError, match=f"the {grid[0]} grid must be "
                                              "strictly increasing"):
            t1i_config(**{grid: values})

    @pytest.mark.parametrize("r", [172, 10**400], ids=["172", "1e400"])
    def test_rank_outside_the_bound_is_config_error(self, r):
        # (r-1)! must be a finite double, so no row of such a rank can hold
        # numbers; the sweep refuses it before any row
        with pytest.raises(ConfigError, match=r"\[1, 171\]"):
            t1i_config(r_list=(1, r))

    def test_any_sequence_is_a_grid(self):
        # lists work as grids, and a whole-number float as n
        cfg = t1i_config(v_list=[1.0], p_list=[1.0], r_list=[1, 2],
                         n_ladder=[1e4, 1e6])
        assert run_sweep(cfg) == run_sweep(t1i_config())

    def test_x_grid_inclusive(self):
        cfg = t1i_config()
        assert cfg.x_grid() == (-0.5, 0.0, 0.5, 1.0, 1.5)
        single = t1i_config(x_min=2.0, x_max=2.0)
        assert single.x_grid() == (2.0,)


class TestRunSweep:
    def test_rows_ordered_and_clean(self):
        rows = run_sweep(t1i_config())
        assert len(rows) == 2 * 2 * 5
        keys = [(r.v, r.p, r.r, r.n, r.x) for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.error == ""
            assert 0.0 <= row.exact <= 1.0
            for val in (row.err, row.scaled_err1, row.scaled_err2):
                assert math.isfinite(val)

    def test_first_order_approach(self):
        rows = run_sweep(t1i_config())
        for row in rows:
            if abs(row.target1) > 1e-12:
                assert row.scaled_err1 == pytest.approx(row.target1, rel=2e-3)

    def test_cauchy_like_trend(self):
        # |scaled_err1 - target1| shrinks from the first to the last rung
        rows = run_sweep(t1i_config())
        by_key = {}
        for row in rows:
            by_key.setdefault((row.r, row.x), []).append(row)
        for (_, _), pair in by_key.items():
            first, last = pair[0], pair[-1]
            assert abs(last.scaled_err1 - last.target1) < abs(
                first.scaled_err1 - first.target1
            )

    def test_error_rows_recorded_not_raised(self):
        # x far negative makes the normed threshold nonpositive at n = 8
        cfg = t1i_config(n_ladder=(8,), x_min=-10.0, x_max=-10.0)
        rows = run_sweep(cfg)
        assert len(rows) == 2
        for row in rows:
            assert "not positive" in row.error
            assert math.isnan(row.exact)

    def test_theorem2_sweep(self):
        cfg = SweepConfig(
            v_list=(2.0,), p_list=(1.0, 2.0), r_list=(1,),
            log_n_ladder=(math.log(1e8), math.log(1e12)),
            x_min=0.0, x_max=0.0, x_step=1.0, theorem="2",
        )
        rows = run_sweep(cfg)
        assert len(rows) == 4
        for row in rows:
            assert row.error == ""
            assert row.remainder_bound < 1e-6
            rel = abs(row.scaled_err1 / row.target1 - 1.0)
            assert rel < 0.15

    def test_case_filter_mismatch_recorded(self):
        cfg = SweepConfig(
            v_list=(2.0,), p_list=(1.0,), r_list=(1,),
            n_ladder=(10**4,), x_min=0.0, x_max=0.0, x_step=1.0,
            theorem="t2_ii",
        )
        rows = run_sweep(cfg)
        assert rows[0].error != ""

    def test_error_rows_keep_their_order_of_checks(self):
        # a cell-level failure comes first and is every row's note: at n = 2
        # the scales' n >= 3 check fails in the plan, before any row's own
        # check.  Rows of a live cell keep theirs: at n = 3 the normed point
        # fails at x = -5 before r <= n does, and r <= n fails at x = 0
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1, 5),
                          n_ladder=(2, 3), x_min=-5.0, x_max=0.0, x_step=5.0)
        rows = run_sweep(cfg)
        cell_note = "ValueError: sample size must be >= 3; got 2"
        assert [row.error for row in rows if row.n == 2] == 4 * [cell_note]
        first, second, third, fourth = (row for row in rows if row.n == 3)
        for row in (first, third):
            assert row.error.startswith(
                "ValueError: normed point scale*x+shift = -5.10")
            assert "is not positive at x=-5.0" in row.error
        assert second.error == "" and math.isfinite(second.exact)
        assert fourth.error == "ValueError: need r <= n; got r=5; n=3"
        # the plan reads the norming before the scales: the t2_ii pair at
        # n = 2 has a negative scale, which is its note, not n >= 3
        t2_ii = run_sweep(dataclasses.replace(cfg, p_list=(2.0,), n_ladder=(2,)))
        assert [row.error for row in t2_ii] == 4 * [
            "ValueError: norming scale must be positive; got -2.775619554141084"]

    def test_a_failing_norming_is_built_once_per_cell(self, monkeypatch):
        # the plan builds the norming, so its overflow is one note for all
        # 51 rows of the cell
        import gedpower.norming as norming

        calls = []

        def counting(params, n=None, *, log_n=None, real=norming.gumbel_constants):
            calls.append(log_n)
            return real(params, n, log_n=log_n)

        monkeypatch.setattr(norming, "gumbel_constants", counting)
        cfg = SweepConfig(v_list=(0.1,), p_list=(1.0,), r_list=(1, 2, 3),
                          log_n_ladder=(1e40,), x_min=-1.0, x_max=3.0,
                          x_step=0.25, theorem="1")
        rows = run_sweep(cfg)
        assert len(rows) == 51 and calls == [1e40]
        assert {row.error for row in rows} == {
            "ValueError: gumbel norming overflows a double for v=0.1; log_n=1e+40"}

    def test_failing_scales_are_built_once_per_cell(self, monkeypatch):
        # the t2_i scales overflow at log n = 1e160; the cell keeps that
        # failure, so b_n is solved once, as the root that the norming and
        # the scales share, not once per row
        import gedpower.expansions as expansions
        import gedpower.norming as norming

        calls = []

        def counting(params, n=None, *, log_n=None, real=norming.solve_bn):
            calls.append(log_n)
            return real(params, n, log_n=log_n)

        monkeypatch.setattr(expansions, "solve_bn", counting)
        monkeypatch.setattr(norming, "solve_bn", counting)
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1, 2, 3),
                          log_n_ladder=(1e160,), x_min=-1.0, x_max=3.0,
                          x_step=0.25)
        rows = run_sweep(cfg)
        assert len(rows) == 51 and len(calls) == 1
        assert {row.error for row in rows} == {
            "ValueError: t2_i scales overflow a double for v=2.0; log_n=1e+160"}

    def test_gumbel_overflow_is_noted_with_v_and_log_n(self):
        cfg = SweepConfig(v_list=(0.1,), p_list=(1.0,), r_list=(1,),
                          log_n_ladder=(1e40,), theorem="1")
        [row] = run_sweep(cfg)
        assert row.error == ("ValueError: gumbel norming overflows a double "
                             "for v=0.1; log_n=1e+40")

    def test_row_right_of_the_mode_has_no_nan(self):
        # e^(2x) overflows in t1_i's second-order polynomial at x = 360
        cfg = SweepConfig(v_list=(1.0,), p_list=(1.0,), r_list=(3,),
                          n_ladder=(10**6,), x_min=360.0, x_max=360.0, theorem="1")
        [row] = run_sweep(cfg)
        assert row.error == "" and row.target1 == 0.0 and row.target2 == 0.0

    @pytest.mark.parametrize("ladder", [{"log_n_ladder": (10.0,)},
                                        {"n_ladder": (10**6,)}])
    def test_rank_150_left_of_the_mode_holds_numbers(self, ladder):
        # e^(-150x) overflowed before it met Lambda(x) = e^(-e^(-x))
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(150,),
                          x_min=-6.0, x_max=-5.0, x_step=0.5, **ladder)
        rows = run_sweep(cfg)
        assert len(rows) == 3
        for row in rows:
            assert row.error == ""
            assert math.isfinite(row.target1) and math.isfinite(row.target2)

    def test_n_column_is_finite_up_to_the_double_range(self, tmp_path):
        # e^(log n) is a finite double up to log n = 709.78
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1,),
                          log_n_ladder=(705.0, 709.7, 750.0), x_min=0.0, x_max=0.0)
        path = tmp_path / "rows.csv"
        emit(run_sweep(cfg), "csv", str(path))
        ns = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
        assert ns == ["1.5052538330631941e+306", "1.6549840276802644e+308", "inf"]

    def test_scale_overflow_is_noted_with_case_v_and_log_n(self):
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1,),
                          log_n_ladder=(1e160,), x_min=1.0, x_max=1.0)
        [row] = run_sweep(cfg)
        assert row.error == ("ValueError: t2_i scales overflow a double "
                             "for v=2.0; log_n=1e+160")

    def test_rank_above_n_names_r_and_n(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["verify", "--v", "2", "--p", "1", "--r", "5", "--n", "3",
                     "--x-min", "0", "--x-max", "0", "--out", str(out)]) == 0
        error = out.read_text().splitlines()[1].split(",")[-1]
        assert error == "ValueError: need r <= n; got r=5; n=3"

    def test_one_plan_per_cell(self, monkeypatch):
        # every (v, p, log n) cell makes its params once and solves b_n
        # once, as its root, which its norming and its scales share
        import gedpower.expansions as expansions
        import gedpower.harness as harness
        import gedpower.norming as norming

        solves, shapes = [], []

        def counting_solve(params, n=None, *, log_n=None, real=norming.solve_bn):
            solves.append((params.v, log_n))
            return real(params, n, log_n=log_n)

        def counting_params(v, real=harness.make_params):
            shapes.append(v)
            return real(v)

        monkeypatch.setattr(norming, "solve_bn", counting_solve)
        monkeypatch.setattr(expansions, "solve_bn", counting_solve)
        monkeypatch.setattr(harness, "make_params", counting_params)
        cfg = SweepConfig(v_list=(0.5, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 3),
                          log_n_ladder=(10.0, 30.0), x_min=0.0, x_max=1.0,
                          x_step=0.5)
        rows = run_sweep(cfg)
        assert len(rows) == 72 and all(row.error == "" for row in rows)
        assert sorted(solves) == sorted([(v, ln) for v in (0.5, 2.0)
                                         for _ in (1.0, 2.0)
                                         for ln in (10.0, 30.0)])
        assert len(shapes) == 8

    def test_a_failing_cell_is_planned_once(self, monkeypatch):
        # theorem branch 2 excludes v = 1: each of its cells routes once and
        # fails once, and all its rows carry that note
        import gedpower.expansions as expansions
        import gedpower.harness as harness

        shapes, routes = [], []

        def counting_params(v, real=harness.make_params):
            shapes.append(v)
            return real(v)

        def counting_route(v, p, theorem, real=expansions.classify_case):
            routes.append(v)
            return real(v, p, theorem)

        monkeypatch.setattr(harness, "make_params", counting_params)
        monkeypatch.setattr(harness, "classify_case", counting_route)
        monkeypatch.setattr(expansions, "classify_case", counting_route)
        cfg = SweepConfig(v_list=(1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 3),
                          log_n_ladder=(10.0, 30.0), x_min=0.0, x_max=1.0,
                          x_step=0.5, theorem="2")
        rows = run_sweep(cfg)
        assert len(rows) == 72
        assert all("branch 2 excludes v = 1" in row.error for row in rows[:36])
        assert all(row.error == "" for row in rows[36:])
        # one plan per (v, p, log n) cell; the v = 2 cells route once more
        # when NormedCase checks their case
        assert sorted(shapes) == 4 * [1.0] + 4 * [2.0]
        assert sorted(routes) == 4 * [1.0] + 8 * [2.0]

    def test_program_bug_stops_the_sweep(self, monkeypatch):
        # only numerical and domain failures become row notes
        def broken(*args, **kwargs):
            raise TypeError("broken deficit")

        monkeypatch.setattr("gedpower.harness.exact_deficit", broken)
        with pytest.raises(TypeError, match="broken deficit"):
            run_sweep(t1i_config())

    @pytest.mark.parametrize("theorem", [None, "1"])
    @pytest.mark.parametrize("ladder", [{"n_ladder": (3, 10, 10**6)},
                                        {"log_n_ladder": (10.0, 50.0)}])
    def test_rows_equal_one_rank_sweeps(self, ladder, theorem):
        # one (cell, x) evaluates every rank at once; its rows equal those of
        # one-rank sweeps bit for bit, notes included: the normed point
        # fails far left at n = 3, and r = 5 and 20 fail r <= n at n = 3 or 10
        cfg = SweepConfig(v_list=(0.5, 1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 5, 20),
                          x_min=-7.0, x_max=3.0, x_step=0.5, theorem=theorem, **ladder)
        rows = run_sweep(cfg)
        alone = [run_sweep(dataclasses.replace(cfg, r_list=(r,))) for r in cfg.r_list]
        block = len(cfg.x_grid()) * len(cfg.n_ladder or cfg.log_n_ladder)  # one (v, p, r)
        expected = [row for vp in range(6) for one in alone
                    for row in one[vp * block:(vp + 1) * block]]
        assert repr(rows) == repr(expected)
        if cfg.n_ladder:
            notes = {row.error.split(" =")[0].split(";")[0] for row in rows}
            assert {"ValueError: need r <= n", "ValueError: normed point scale*x+shift"} <= notes

    @pytest.mark.parametrize("x", [-720.0, -7.5, 0.5, 800.0])
    @pytest.mark.parametrize("ladder", [{"n_ladder": (10**6, 10**15)},
                                        {"log_n_ladder": (30.0, 1000.0, 5000.0)}])
    def test_public_functions_equal_sweep_rows(self, ladder, x):
        # a sweep forms the x-only terms once per x for every cell, while
        # cdf_gaps_from_deficit and expand_ranks form their own per call; the
        # two must agree bit for bit in every numeric column.  e^(-x) overflows
        # at x = -720 (rows hold numbers there only at log n >= 1000), and at
        # x = -7.5 the rank-171 weight e^(-e^(-x) - rx/2) underflows
        from gedpower.expansions import exact_deficit, expand_ranks
        from gedpower.orderstats import cdf_gaps_from_deficit, poisson_remainder_bound

        (key, rungs), = ladder.items()
        mode = "n" if key == "n_ladder" else "log_n"
        compared = 0
        for theorem in (None, "1"):
            cfg = SweepConfig(v_list=(0.5, 1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 171),
                              x_min=x, x_max=x, theorem=theorem, **ladder)
            rows = iter(run_sweep(cfg))
            for v in cfg.v_list:
                for p in cfg.p_list:
                    by_rank = [[next(rows) for _ in rungs] for _ in cfg.r_list]
                    branch = 1 if theorem == "1" or v == 1.0 else 2
                    for got, rung in zip(zip(*by_rank), rungs):
                        if any(row.error for row in got):
                            continue
                        cell = NormedCase(make_params(v), classify_case(v, p, branch),
                                          **{mode: rung})
                        d = exact_deficit(cell, x)
                        gaps = cdf_gaps_from_deficit(cfg.r_list, x, d, **{mode: float(rung)})
                        expected = []
                        for row, gap, ee in zip(got, gaps, expand_ranks(cell, cfg.r_list, x)):
                            t1 = ee.first_order * ee.scale_first
                            s1 = ee.scale_first * gap
                            expected.append(row._replace(
                                exact=min(1.0, max(0.0, ee.leading + gap)), limit=ee.leading,
                                err=gap, scaled_err1=s1, target1=t1,
                                scaled_err2=ee.scale_second / ee.scale_first * (s1 - t1),
                                target2=ee.second_order * ee.scale_second, theta_deficit=d,
                                remainder_bound=(poisson_remainder_bound(row.r, x, d, rung)
                                                 if mode == "log_n" else 0.0)))
                        assert repr(expected) == repr(list(got)), (v, p, rung)
                        compared += 1
        # at exact n the normed point of x = -720 is negative in every cell
        assert compared or (mode, x) == ("n", -720.0)

    def test_one_deficit_per_live_cell_and_x(self, monkeypatch):
        # every rank of a (cell, x) shares its deficit, every x of a (cell, r)
        # shares one Monte Carlo score, and every cell of a sweep x shares its
        # rank weights
        import gedpower.expansions as expansions
        import gedpower.harness as harness

        deficits, weights, counts = [], [], []

        def counting_deficit(cell, x, real=harness.exact_deficit):
            deficits.append(x)
            return real(cell, x)

        def counting_weights(r, x, real=expansions._rank_weights):
            weights.append(x)
            return real(r, x)

        def counting_score(table, r, ss, real=harness.mc_score):
            counts.append(len(ss))
            return real(table, r, ss)

        monkeypatch.setattr(harness, "exact_deficit", counting_deficit)
        monkeypatch.setattr(expansions, "_rank_weights", counting_weights)
        monkeypatch.setattr(harness, "mc_score", counting_score)
        # the benchmark's mc-check grid: 108 rows on 36 (cell, x) points and 6 x
        rows = run_sweep(SweepConfig(
            v_list=(0.5, 1.0, 2.0), p_list=(1.0,), r_list=(1, 2, 3), n_ladder=(100, 1000),
            x_min=-0.5, x_max=2.0, x_step=0.5, mc_reps=2000, seed=5))
        assert len(rows) == 108 and len(deficits) == 36
        assert len(weights) == 6
        assert counts == [6] * 18
        # the benchmark's sweep-logn grid: 12,852 rows on 17 x, of which the
        # 357 t1_i rows are cell notes and the rest lie on 4,165 (cell, x) points
        deficits.clear()
        weights.clear()
        rows = run_sweep(SweepConfig(
            v_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0), p_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
            r_list=(1, 2, 3),
            log_n_ladder=tuple(e * math.log(10.0) for e in (6, 9, 12, 20, 50, 100, 300)),
            x_min=-1.0, x_max=3.0, x_step=0.25, fmt="json", seed=5))
        assert len(rows) == 12852 and len(deficits) <= 4165
        assert len(weights) == 17

    def test_mc_draws_once_per_v_n_cell(self, monkeypatch):
        # the tables take their params from the planned cells, so the sweep
        # builds one NormedCase per (v, p, n) cell and no other
        import gedpower.harness as harness

        calls, built = [], []
        real = harness.mc_table

        def counting(n, r_max, reps, seed):
            calls.append((n, r_max, reps, seed))
            return real(n, r_max, reps, seed)

        def counting_case(params, case, n=None, log_n=None, real=harness.NormedCase):
            built.append((params.v, case.p, n))
            return real(params, case, n, log_n)

        monkeypatch.setattr(harness, "mc_table", counting)
        monkeypatch.setattr(harness, "NormedCase", counting_case)
        n_ladder, reps = (30, 200), 50
        cfg = SweepConfig(
            v_list=(1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 3),
            n_ladder=n_ladder, x_min=0.0, x_max=1.5, x_step=0.5,
            mc_reps=reps, seed=3,
        )
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 3 * 2 * 4
        assert not any(r.error and not r.error.startswith("mc_") for r in rows)
        assert sorted(calls) == sorted((n, min(3, n), reps, _table_seed(3, vi, ni))
                                       for vi in range(2) for ni, n in enumerate(n_ladder))
        assert sorted(built) == [(v, p, n) for v in (1.0, 2.0) for p in (1.0, 2.0)
                                 for n in n_ladder]

    def test_mc_draws_no_table_for_a_v_no_p_routes(self, monkeypatch):
        # p = 1 routes to t1_iii at v = 2, so no v = 2 row can use a table
        import gedpower.harness as harness

        calls = []
        real = harness.mc_table

        def counting(n, r_max, reps, seed):
            calls.append((n, seed))
            return real(n, r_max, reps, seed)

        monkeypatch.setattr(harness, "mc_table", counting)
        cfg = SweepConfig(v_list=(1.0, 2.0), p_list=(1.0,), r_list=(1, 2),
                          n_ladder=(1000,), x_min=0.0, x_max=1.0, x_step=0.5,
                          theorem="t1_i", mc_reps=500, seed=7)
        rows = run_sweep(cfg)
        assert calls == [(1000, _table_seed(7, 0, 0))]
        alone = run_sweep(dataclasses.replace(cfg, v_list=(1.0,)))
        # the v = 1 rows hold numbers; a Monte Carlo note is the table's chance
        assert rows[:len(alone)] == alone
        for row in alone:
            assert not math.isnan(row.exact)
            assert row.error == "" or row.error.startswith("mc_3sigma_violation")
        assert all("belongs to case 't1_iii'" in row.error for row in rows[len(alone):])

    def test_mc_draws_no_table_for_an_n_whose_cells_fail(self, monkeypatch):
        # every n = 2 cell fails its scales' n >= 3 check in the plan, so no
        # row of that n can use a table
        import gedpower.harness as harness

        calls = []
        real = harness.mc_table

        def counting(n, r_max, reps, seed):
            calls.append((n, seed))
            return real(n, r_max, reps, seed)

        monkeypatch.setattr(harness, "mc_table", counting)
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1, 2),
                          n_ladder=(2, 100), x_min=0.0, x_max=1.0, x_step=0.5,
                          mc_reps=200, seed=3)
        rows = run_sweep(cfg)
        assert calls == [(100, _table_seed(3, 0, 1))]
        assert {row.error for row in rows if row.n == 2} == {
            "ValueError: sample size must be >= 3; got 2"}
        assert all(math.isfinite(row.exact) for row in rows if row.n == 100)

    def test_log_n_t1_i_rows_are_errors(self):
        # the t1_i rate is the O(1/n) term that the Poisson limit drops
        rows = run_sweep(t1i_config(n_ladder=(), log_n_ladder=(13.8, 27.6)))
        assert len(rows) == 20
        for row in rows:
            assert "t1_i needs an exact n" in row.error
            assert math.isnan(row.err) and math.isnan(row.scaled_err2)

    @pytest.mark.parametrize("ladder", [{"log_n_ladder": (50.0,)},
                                        {"n_ladder": (10**6,)}])
    def test_rows_far_left_hold_numbers(self, ladder):
        # at x = -12 and -10, e^(-x) deficit is past 709.78, where the gap
        # engine's expm1 overflows
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1, 3),
                          x_min=-12.0, x_max=-6.0, x_step=2.0, **ladder)
        n, log_n = (10**6, None) if "n_ladder" in ladder else (None, 50.0)
        params = make_params(2.0)
        norming = NormedCase(params, classify_case(2.0, 1.0, theorem=2), n, log_n).norming
        rows = run_sweep(cfg)
        assert len(rows) == 8
        for row in rows:
            assert row.error == "" and math.isfinite(row.err)
            y = norming.scale * row.x + norming.shift
            if n is None:
                expected = poisson_powered_cdf(params, row.r, 1.0, y, log_n)
            else:
                expected = exact_powered_cdf(params, OrderStatSpec(n=n, r=row.r, p=1.0), y)
            assert abs(row.exact - expected) <= 1e-12

    @pytest.mark.parametrize("v,p,ranks,ladder,xs,note", [
        (2.0, 0.001, (1,), {"n_ladder": (3,)}, (966.0,),
         "z = (scale*x+shift)^(1/p) overflows a double at x="),
        (0.5, 1.0, (1, 2), {"log_n_ladder": (50.0,)}, (1000.0, 1001.0, 1002.0),
         "theta = n e^x S(z) overflows a double at x="),
        (0.5, 1.0, (1, 2), {"n_ladder": (10**6,)}, (1000.0, 1001.0, 1002.0),
         "theta = n e^x S(z) overflows a double at x="),
        (2.0, 289.0, (1,), {"n_ladder": (2_800_000_000_000_000_000,)}, (2764.0,),
         "theta = n e^x S(z) overflows a double at x="),
    ], ids=["z-power", "theta-log-n", "theta-exact-n", "theta-p-289"])
    def test_deficit_overflow_names_its_quantity_and_x(self, v, p, ranks, ladder, xs, note):
        # z^(1/p) or theta = n e^x S(z) past the double range is a ValueError
        # naming it, not a raw OverflowError
        cfg = SweepConfig(v_list=(v,), p_list=(p,), r_list=ranks, x_min=xs[0],
                          x_max=xs[-1], **ladder)
        rows = run_sweep(cfg)
        assert len(rows) == len(ranks) * len(xs)
        for row in rows:
            assert row.error == f"ValueError: {note}{row.x}"

    @given(v=st.floats(min_value=0.0086031, max_value=20.0),
           p=st.floats(min_value=1e-3, max_value=1e3),
           ranks=st.sets(st.integers(min_value=1, max_value=171), min_size=1, max_size=3),
           ladder=st.one_of(
               st.builds(lambda n: {"n_ladder": (n,)},
                         st.integers(min_value=1, max_value=9 * 10**18)),
               st.builds(lambda ln: {"log_n_ladder": (ln,)},
                         st.floats(min_value=1e-3, max_value=1e6))),
           theorem=st.sampled_from([None, "1", "2"]),
           x_min=st.floats(min_value=-1000.0, max_value=3000.0))
    @settings(max_examples=200, deadline=None)
    def test_rows_hold_numbers_or_a_named_note(self, v, p, ranks, ladder, theorem, x_min):
        # over the supported domain every row holds probabilities and a
        # finite error, or a note that opens with its exception's name
        cfg = SweepConfig(v_list=(v,), p_list=(p,), r_list=tuple(sorted(ranks)),
                          x_min=x_min, x_max=x_min + 4.0, theorem=theorem, **ladder)
        rows = run_sweep(cfg)
        assert len(rows) == 5 * len(ranks)
        for row in rows:
            if row.error:
                assert re.match(r"[A-Z]\w*Error: ", row.error), row.error
                assert "math range error" not in row.error and "(34" not in row.error
            else:
                assert 0.0 <= row.exact <= 1.0 and 0.0 <= row.limit <= 1.0
                assert math.isfinite(row.err)

    def test_mc_draw_error_stops_the_sweep_and_no_thread_is_started(self, monkeypatch):
        def no_thread(*args):
            raise AssertionError("the sweep started a thread")

        def broken(*args):
            raise TypeError("broken table")

        cfg = t1i_config(n_ladder=(100, 200), mc_reps=50)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_sweep(cfg)
        monkeypatch.setattr(np.random, "default_rng", broken)
        with pytest.raises(TypeError, match="broken table"):
            run_sweep(cfg)

    def test_mc_over_budget_is_noted_before_any_draw(self):
        # reps * r_max = 200000001 draws exceed the 2e8 budget
        cfg = t1i_config(n_ladder=(10**6,), r_list=(1,), x_min=0.0, x_max=0.0,
                         mc_reps=2 * 10**8 + 1)
        assert [row.error for row in run_sweep(cfg)] == ["mc_skipped_budget"]

    def test_mc_scores_no_rank_whose_rows_all_fail(self):
        # at n = 3 every r = 5 row fails r <= n, so the width-3 table is not
        # asked for column 5; those rows keep their own note
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1, 5), n_ladder=(3, 100),
                          x_min=0.0, x_max=1.0, x_step=0.5, mc_reps=200, seed=3)
        rows = run_sweep(cfg)
        assert {row.error for row in rows if (row.r, row.n) == (5, 3)} == {
            "ValueError: need r <= n; got r=5; n=3"}
        assert all(math.isfinite(row.exact) for row in rows if row.r == 1 or row.n == 100)

    def test_mc_miss_is_noted(self, monkeypatch):
        # the harness scores each (cell, r) once, at every x of the cell
        monkeypatch.setattr("gedpower.harness.mc_score",
                            lambda table, r, ss: [(1.0, 0.0)] * len(ss))
        cfg = t1i_config(n_ladder=(100,), r_list=(1,), x_min=0.0, x_max=0.0,
                         mc_reps=100)
        (row,) = run_sweep(cfg)
        assert row.error.startswith("mc_3sigma_violation(z=")

    def test_mc_cross_check_clean(self):
        cfg = SweepConfig(
            v_list=(1.0,), p_list=(1.0,), r_list=(1,),
            n_ladder=(200,), x_min=0.0, x_max=1.0, x_step=0.5,
            theorem="1", mc_reps=4000, seed=7,
        )
        rows = run_sweep(cfg)
        assert all(row.error == "" for row in rows)


class TestEmit:
    def test_csv_header_and_zero_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", str(path))
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_csv_round_trip_values(self, tmp_path):
        rows = run_sweep(t1i_config(n_ladder=(10**4,), x_max=-0.5))
        path = tmp_path / "one.csv"
        emit(rows, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        cells = lines[1].split(",")
        assert int(cells[2]) == rows[0].r
        assert int(cells[3]) == 10**4
        assert float(cells[5]) == rows[0].exact
        assert float(cells[8]) == rows[0].scaled_err1

    def test_json_round_trip_bytes(self, tmp_path):
        rows = run_sweep(t1i_config(n_ladder=(10**4,)))
        path = tmp_path / "rows.json"
        emit(rows, "json", str(path))
        text = path.read_text()
        parsed = rows_from_json(text)
        again = tmp_path / "again.json"
        emit(parsed, "json", str(again))
        assert again.read_bytes() == path.read_bytes()
        raw = json.loads(text)
        assert list(raw[0].keys()) == CSV_HEADER.split(",")

    def test_json_writes_null_for_nan_and_inf(self, tmp_path):
        # NaN and Infinity are not JSON; every such cell must read null
        def no_constants(name):
            raise AssertionError(f"emit wrote {name}")

        rows = [VerificationRow(2.0, 1.0, 1, math.inf, 0.5, exact=math.nan, limit=math.inf,
                                err=-math.inf, theta_deficit=0.25, error="note"),
                VerificationRow(2.0, 1.0, 2, 10.0, -math.inf, remainder_bound=math.inf)]
        path = tmp_path / "rows.json"
        emit(rows, "json", str(path))
        first, second = json.loads(path.read_text(), parse_constant=no_constants)
        assert [first[k] for k in ("n", "exact", "limit", "err", "theta_deficit")] == [
            None, None, None, None, 0.25]
        assert first["error"] == "note" and second["error"] == ""
        assert all(second[k] is None for k in CSV_HEADER.split(",")[4:-1])  # x onwards

    def test_determinism_including_mc(self, tmp_path):
        cfg = dict(
            v_list=(1.0,), p_list=(1.0,), r_list=(1, 2),
            n_ladder=(100, 1000), x_min=0.0, x_max=1.0, x_step=0.5,
            theorem="1", mc_reps=500, seed=11,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(SweepConfig(**cfg)), "csv", str(a))
        emit(run_sweep(SweepConfig(**cfg)), "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="format must be csv or json"):
            emit([], "xml", str(tmp_path / "rows.xml"))

    def test_io_error_has_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit([], "csv", str(tmp_path / "no" / "such" / "file.csv"))


class TestGoldenBytes:
    """sha256 of emitted sweeps, pinned from the formatter, sampler and
    binomial sums as they were before those paths were merged, and from
    expand_ranks' terms on the one rank weight."""

    # One Monte Carlo table per (v, n) cell; since tables hold exponential
    # order statistics, seed 4 puts no 3-sigma note on this grid; n = 8
    # gives error rows.
    EXACT_N = dict(v_list=(0.5, 1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 3),
                   n_ladder=(8, 100, 1000), x_min=-3.0, x_max=1.5, x_step=1.5,
                   mc_reps=200, seed=4)
    # log n = 750 makes n = inf ("inf" in CSV, null in JSON); t1_i rows are
    # errors, as log-n mode drops their O(1/n) rate
    LOG_N = dict(v_list=(0.5, 1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 3),
                 log_n_ladder=(10.0, 100.0, 750.0), x_min=-1.0, x_max=2.0,
                 x_step=1.5)
    # the grids of the benchmark's sweep-logn and sweep-exactn workloads
    BENCH_X = dict(x_min=-1.0, x_max=3.0, x_step=0.25)
    SWEEP_LOGN = dict(
        v_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        p_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        r_list=(1, 2, 3),
        log_n_ladder=tuple(e * math.log(10.0) for e in (6, 9, 12, 20, 50, 100, 300)),
        **BENCH_X)
    SWEEP_EXACTN = dict(
        v_list=(0.5, 1.0, 2.0, 4.0),
        p_list=(1.0, 2.0),
        r_list=(1, 2, 5, 10, 20),
        n_ladder=(10**3, 10**4, 10**6, 10**8, 10**10, 10**12, 10**15),
        theorem="1", **BENCH_X)

    # ids are the grid and format, so a re-pin renames no test
    DIGESTS = {
        ("EXACT_N", "csv"): "74b11e8ac410c0c12745015b20b8ae2a08744e29c1597a4fb2d44ae1c3a3f2b4",
        ("EXACT_N", "json"): "b7aebc0adc2ae0ecc7a731081008dc3c61b0c1af792355a75281ba74ca73f2eb",
        ("LOG_N", "csv"): "8a4f86ce67d9d56764ae7bf80ad201be2217a0884e6f0f7d2a13310dff539a96",
        ("LOG_N", "json"): "04eb05d1229f451c6599b6cead989e3e63004b2eeb2842eb963413d60f1c8e8c",
        ("SWEEP_LOGN", "json"): "857fb867adb34a3d97de9a2aae087f73bed8441fd5139caa212f8cd5897dfaca",
        ("SWEEP_EXACTN", "csv"): "69acd57f7a4f4ed9d4fd0f8eacc8b8eb11bf734dc39bc3908f471c6a80c8a14a",
    }

    @pytest.mark.parametrize("grid,fmt", DIGESTS)
    def test_sweep_digest(self, tmp_path, grid, fmt):
        rows = run_sweep(SweepConfig(**getattr(self, grid)))
        path = tmp_path / f"rows.{fmt}"
        emit(rows, fmt, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[grid, fmt]

    # the benchmark's mc-check grid; its CSV shows a score only through a
    # 3-sigma note, so the same bytes can hide a changed table or count
    MC_CHECK = dict(v_list=(0.5, 1.0, 2.0), p_list=(1.0,), r_list=(1, 2, 3),
                    n_ladder=(100, 1000), x_min=-0.5, x_max=2.0, x_step=0.5,
                    mc_reps=2000)
    MC_SCORE_DIGESTS = {
        1: "ad86f58821f248b48f981a220ed362be159d28018f5fa0615c5f5bdcfb67bfa1",
        5: "e42113c2de3ab01e78e41b035a4cf8b7df4422014081cf4758e778252d0b827c",
    }

    @pytest.mark.parametrize("seed", MC_SCORE_DIGESTS)
    def test_mc_scores_digest(self, monkeypatch, seed):
        # every (estimate, stderr) the sweep computes passes through _mc_note
        import gedpower.harness as harness

        scores = []

        def spy(config, score, exact, real=harness._mc_note):
            scores.append(score)
            return real(config, score, exact)

        monkeypatch.setattr(harness, "_mc_note", spy)
        run_sweep(SweepConfig(**self.MC_CHECK, seed=seed))
        assert len(scores) == 108
        digest = hashlib.sha256(repr(scores).encode()).hexdigest()
        assert digest == self.MC_SCORE_DIGESTS[seed]


class TestCli:
    def test_dist(self, capsys):
        assert main(["dist", "--v", "2", "--what", "pdf", "--x", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_dist_quantile(self, capsys):
        assert main(["dist", "--v", "1", "--what", "quantile", "--u", "0.9"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(-math.log(0.2) / math.sqrt(2.0), rel=1e-10)

    def test_dist_quantile_deep_lower_tail(self, capsys):
        assert main(["dist", "--v", "2", "--what", "quantile", "--u", "1e-300"]) == 0
        # the standard normal quantile, scipy.special.ndtri(1e-300)
        assert float(capsys.readouterr().out) == pytest.approx(-37.0470962993612, rel=1e-13)

    def test_dist_missing_arg_is_config_error(self, capsys):
        assert main(["dist", "--v", "1", "--what", "quantile"]) == 2

    def test_dist_underflowing_scale_is_config_error(self, capsys):
        assert main(["dist", "--v", "1e-3", "--what", "survival", "--x", "1"]) == 2
        assert "normal double range" in capsys.readouterr().err
        assert main(["dist", "--v", "0.01", "--what", "survival", "--x", "1"]) == 0

    def test_norming_and_solve_bn(self, capsys):
        assert main(["norming", "--family", "power", "--v", "1", "--p", "1",
                     "--n", "1000"]) == 0
        scale, shift = map(float, capsys.readouterr().out.split())
        assert scale == pytest.approx(2.0**-0.5, rel=1e-12)
        assert shift == pytest.approx(math.log(500.0) / math.sqrt(2.0), rel=1e-12)
        assert main(["solve-bn", "--v", "2", "--n", "10"]) == 0
        b, resid = map(float, capsys.readouterr().out.split())
        assert b == pytest.approx(1.4316537900, rel=1e-8)
        assert abs(resid) < 1e-12

    def test_exact_both_modes(self, capsys):
        assert main(["exact", "--v", "1", "--p", "1", "--r", "1", "--y", "1",
                     "--n", "1"]) == 0
        one = float(capsys.readouterr().out)
        assert one == pytest.approx(-math.expm1(-math.sqrt(2.0)), rel=1e-12)
        assert main(["exact", "--v", "2", "--p", "2", "--r", "2", "--y", "40",
                     "--ln-n", "34.5"]) == 0
        val = float(capsys.readouterr().out)
        assert 0.0 <= val <= 1.0

    def test_exact_nan_is_config_error(self, capsys):
        assert main(["exact", "--v", "2", "--p", "1", "--r", "1", "--y", "nan",
                     "--n", "1000"]) == 2
        assert "nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        ("exact --v 2 --p 0 --r 1 --y 1 --ln-n 10", "p must be positive"),
        ("exact --v 2 --p -1 --r 1 --y 1 --ln-n 10", "p must be positive"),
        ("exact --v 2 --p 1 --r 1 --y 1 --ln-n -1", "log_n must be >="),
        ("exact --v 2 --p 1 --r 1 --y 1 --ln-n nan", "log n must be finite"),
        ("solve-bn --v 2 --ln-n nan", "log n must be finite"),
        ("solve-bn --v 2 --ln-n inf", "log n must be finite"),
        ("expand --v 2 --p 1 --r 1 --x 0 --theorem 2 --ln-n inf",
         "log n must be finite"),
        ("norming --family gumbel --v 2 --ln-n nan", "log n must be finite"),
        ("norming --family power --v 2 --p inf --n 1000",
         "power index must be positive"),
        ("norming --family hall --v 2 --p inf --n 1000",
         "power index must be positive"),
        ("exact --v 2 --p inf --r 1 --y 2 --ln-n 10", "p must be positive"),
        ("simulate --v 2 --p inf --r 1 --y 2 --n 100 --mc-reps 10",
         "p must be positive"),
        ("expand --v 2 --p inf --r 1 --x 0 --theorem 2 --ln-n 10",
         "p must be positive"),
        ("expand --v 2 --p 1 --r 1 --x nan --theorem 2 --ln-n 10",
         "x must be finite"),
        ("dist --v 1000 --what cdf --x 0.5", "v must be in (0, 20]"),
        ("expand --v 2 --p 1 --r 172 --x 0 --theorem 2 --ln-n 10", "r <= 171"),
        ("solve-bn --v 0.01 --ln-n 1e6", "b_n overflows a double for v=0.01"),
        ("norming --family hall --v 0.5 --p 1 --ln-n 1e300",
         "b_n overflows a double for v=0.5"),
        ("solve-bn --v 2 --ln-n 1e308", "b_n overflows a double for v=2.0"),
        ("solve-bn --v 2 --ln-n 5e307",
         "b_n bracket overflows a double at b=2e+154 for v=2.0, log_n=5e+307"),
        ("solve-bn --v 20 --ln-n 1e300",
         "b_n bracket overflows a double at b=3.53842e+15 for v=20.0, log_n=1e+300"),
        ("norming --family hall --v 2 --p 10 --ln-n 1e100",
         "hall norming overflows a double for v=2.0, p=10.0, log_n=1e+100"),
        ("norming --family power --v 2 --p 10 --ln-n 1e100",
         "power norming overflows a double for v=2.0, p=10.0, log_n=1e+100"),
        ("norming --family gumbel --v 0.1 --ln-n 1e40",
         "gumbel norming overflows a double for v=0.1, log_n=1e+40"),
        ("norming --family power --v 0.3 --p 2 --ln-n 1e100",
         "gumbel norming overflows a double for v=0.3, log_n=1e+100"),
    ])
    def test_single_point_domain_error_is_config_error(self, capsys, argv, message):
        assert main(argv.split()) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,names", [
        ("expand --v 2 --p 1 --r 171 --x -5 --theorem 2 --ln-n 10", 0, ()),
        ("expand --v 2 --p 1 --r 1 --x 1 --theorem 2 --ln-n 1e160", 2,
         ("t2_i", "v=2.0", "log_n=1e+160")),
        ("expand --v 1 --p 2 --r 1 --x 1 --theorem 1 --ln-n 1e300", 2,
         ("t1_ii", "v=1.0", "log_n=1e+300")),
        ("expand --v 1 --p 1 --r 1 --x 1 --theorem 1 --ln-n 400", 2,
         ("t1_i", "v=1.0", "log_n=400.0")),
        ("expand --v 2 --p 2 --r 1 --x 1 --theorem 2 --ln-n 1e200", 2,
         ("t2_ii", "v=2.0", "log_n=1e+200")),
        ("dist --v 2 --what survival --x 1e200", 0, ()),
        ("dist --v 2 --what pdf --x 1e200", 0, ()),
        ("exact --v 2 --p 1 --r 1 --y 1e308 --n 10", 0, ()),
        ("exact --v 2 --p 0.5 --r 1 --y 1e200 --ln-n 10", 0, ()),
        ("simulate --v 2 --p 0.5 --r 1 --y 1e200 --n 10 --mc-reps 10", 0, ()),
    ])
    def test_no_raw_errno(self, capsys, argv, code, names):
        assert main(argv.split()) == code
        out, err = capsys.readouterr()
        assert "(34," not in err and "math range error" not in err
        assert all(name in err for name in names)
        assert all(map(math.isfinite, map(float, out.split())))

    @pytest.mark.parametrize("mode", [["--n", "1000"], ["--ln-n", "10"]])
    def test_exact_at_infinite_y_is_one(self, capsys, mode):
        assert main(["exact", "--v", "2", "--p", "1", "--r", "2", "--y", "inf",
                     *mode]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_expand_far_left_is_zero(self, capsys):
        assert main(["expand", "--v", "2", "--p", "1", "--r", "1", "--x", "-800",
                     "--theorem", "2", "--ln-n", "10"]) == 0
        assert capsys.readouterr().out.split()[:3] == ["0", "0", "0"]

    @pytest.mark.parametrize("argv,out", [
        # log LHS/n may reach 5e-15 log n > 709.78, where LHS/n - 1 is inf
        ("solve-bn --v 2 --ln-n 1e20", "14142135623.730955 inf"),
        ("norming --family optimal --v 2 --p 2 --ln-n 1e300",
         "2.0000000000000009 2.0000000000000013e+300"),
    ])
    def test_residual_past_the_double_range_is_inf(self, capsys, argv, out):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.strip() == out

    @pytest.mark.parametrize("r,x", [(2, "710"), (1, "720"), (3, "1e100")])
    def test_expand_far_right_is_finite(self, capsys, r, x):
        assert main(["expand", "--v", "2", "--p", "1", "--r", str(r), "--x", x,
                     "--theorem", "2", "--ln-n", "10"]) == 0
        parts = list(map(float, capsys.readouterr().out.split()))
        assert len(parts) == 5 and all(map(math.isfinite, parts))

    def test_expand_at_rank_171(self, capsys):
        assert main(["expand", "--v", "2", "--p", "1", "--r", "171", "--x", "0",
                     "--theorem", "2", "--ln-n", "10"]) == 0
        parts = list(map(float, capsys.readouterr().out.split()))
        assert len(parts) == 5 and all(map(math.isfinite, parts))

    def test_norming_hall(self, capsys):
        assert main(["norming", "--family", "hall", "--v", "2", "--p", "1.5",
                     "--n", "1000"]) == 0
        nm = hall_constants(make_params(2.0), 1.5, 1000)
        assert capsys.readouterr().out.split() == [format(nm.scale, ".17g"),
                                                   format(nm.shift, ".17g")]

    def test_missing_point_or_grid_is_config_error(self, tmp_path, capsys):
        assert main(["dist", "--v", "2", "--what", "pdf"]) == 2
        assert "pdf needs --x" in capsys.readouterr().err
        assert main(["verify", "--v", "1", "--n", "100",
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "verify needs --v, --p and --r" in capsys.readouterr().err

    def test_expand_at_small_v_needs_no_norming(self, capsys):
        # the powered norming of a t1 cell fails at v = 0.05, n = 1000; the
        # expansion does not use it
        assert main(["norming", "--family", "power", "--v", "0.05", "--p", "1",
                     "--n", "1000"]) == 2
        assert main(["expand", "--v", "0.05", "--p", "1", "--r", "1", "--x", "0",
                     "--theorem", "1", "--n", "1000"]) == 0
        parts = list(map(float, capsys.readouterr().out.split()))
        assert len(parts) == 5 and all(map(math.isfinite, parts))

    def test_expand(self, capsys):
        assert main(["expand", "--v", "2", "--p", "2", "--r", "1", "--x", "0",
                     "--theorem", "2", "--n", "100000"]) == 0
        parts = list(map(float, capsys.readouterr().out.split()))
        assert len(parts) == 5
        assert parts[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_simulate(self, capsys):
        assert main(["simulate", "--v", "2", "--p", "2", "--r", "1", "--y", "9",
                     "--n", "50", "--mc-reps", "2000", "--seed", "3"]) == 0
        est, se = map(float, capsys.readouterr().out.split())
        assert 0.0 <= est <= 1.0 and se >= 0.0

    def test_simulate_nan_threshold_is_config_error(self, capsys):
        assert main(["simulate", "--v", "1", "--p", "1", "--r", "1", "--y",
                     "nan", "--n", "100", "--mc-reps", "10"]) == 2
        assert "nan" in capsys.readouterr().err

    def test_exit_code_convergence(self, capsys):
        # v < 1 with tiny n has no calibration root: exit 3, naming v and
        # log n and no solver trace, as no Newton step has run
        assert main(["solve-bn", "--v", "0.5", "--n", "2"]) == 3
        err = capsys.readouterr().err
        assert "no calibration root on the increasing branch for v=0.5" in err
        assert "log_n=0.69314718" in err and "trace=" not in err

    def test_exit_code_config(self, capsys):
        assert main(["norming", "--family", "optimal", "--v", "1", "--n",
                     "1000"]) == 2

    def test_verify_writes_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["verify", "--v", "1", "--p", "1", "--r", "1,2",
                   "--n", "1000,100000", "--x-min", "-0.5", "--x-max", "1.0",
                   "--x-step", "0.5", "--theorem", "1",
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 4

    def test_verify_prints_one_progress_line_per_v_p_block(self, tmp_path, capsys):
        # 2 v by 2 p blocks of 2 r, 2 log n and 3 x each
        assert main(["verify", "--v", "0.5,2", "--p", "1,2", "--r", "1,2",
                     "--ln-n", "10,20", "--x-min", "-1", "--x-max", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.endswith(" points")] == [
            "12/48 points", "24/48 points", "36/48 points", "48/48 points"]

    def test_verify_config_file_with_override(self, tmp_path):
        cfg = {
            "v": [1.0], "p": [1.0], "r": [1], "n": [1000],
            "x_min": 0.0, "x_max": 0.0, "x_step": 1.0,
            "theorem": "1", "format": "json",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "rows.json"
        rc = main(["verify", "--config", str(cfg_path), "--out", str(out),
                   "--r", "1,2"])  # override r
        assert rc == 0
        assert len(json.loads(out.read_text())) == 2

    @pytest.mark.parametrize("cfg,message", [
        ([1.0, 2.0], "JSON object"),
        ({"v": 1.0, "p": 1.0, "r": 1, "n": [100]}, "must be a list"),
        ({"v": ["a"], "p": [1.0], "r": [1], "n": [100]}, "'v'"),
        ({"v": [1.0], "p": [1.0], "r": [1.5], "n": [100]}, "'r'"),
        ({"v": [1.0], "p": [1.0], "r": [1], "n": [100], "x_max": "2"},
         "'x_max'"),
        ({"v": [1.0], "p": [1.0], "r": [1], "n": [100], "seed": True},
         "'seed'"),
        ({"v": [1.0], "p": [1.0], "r": [1], "n": [100], "theorem": 1},
         "'theorem'"),
        ({"v": [1.0], "p": [1.0], "r": [1], "n": [100], "q_variant": "eq22"},
         "unknown config key 'q_variant'"),
        ({"v": [1.0], "p": [1.0], "r": [1], "n": [100], "x_stp": 0.5},
         "unknown config key 'x_stp'"),
        ("--n 0", "error: n must be an integer in [1, 2^63)"),
        ("--n 2e19", "error: n must be an integer in [1, 2^63)"),
        ("--n 2.5", "error: n must be an integer in [1, 2^63)"),
        ("--ln-n nan", "must be finite"),
        ("--ln-n 10,inf", "must be finite"),
        ("--n 100 --x-max 1e300 --x-step 1e-300", "x grid has more than"),
        ("--ln-n 10 --mc-reps 100", "needs an exact n ladder"),
    ])
    def test_verify_malformed_config_is_config_error(self, tmp_path, capsys,
                                                     cfg, message):
        # a string holds verify flags, given on top of a config without n
        flags = cfg.split() if isinstance(cfg, str) else []
        if flags:
            cfg = {"v": [1.0], "p": [1.0], "r": [1]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(cfg_path), *flags,
                   "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode,key", [
        (mode, key) for mode in ("n", "ln_n") for key in _VERIFY_KEYS
        if (key not in ("n", "ln_n") or key == mode)
        and (mode, key) != ("ln_n", "mc_reps")  # Monte Carlo needs an exact n
    ])
    def test_config_key_matches_its_flag(self, tmp_path, mode, key):
        # every value differs from SweepConfig's default; the whole numbers
        # given for v and x_max must still become floats
        values = {"v": [0.5, 2], "p": [1.0, 2.0], "r": [1, 3],
                  mode: [1000, 100000] if mode == "n" else [10.0, 20.5],
                  "x_min": -0.5, "x_max": 2, "x_step": 0.5, "theorem": "2",
                  "out": "rows.json", "format": "json", "seed": 7}
        if mode == "n":
            values["mc_reps"] = 20

        def flags(items):
            return [f"--{k.replace('_', '-')}=" + (",".join(map(str, v))
                    if isinstance(v, list) else str(v)) for k, v in items]

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: values[key]}))
        rest = [(k, v) for k, v in values.items() if k != key]
        from_file = _sweep_config(build_parser().parse_args(
            ["verify", "--config", str(cfg_path), *flags(rest)]))
        from_flags = _sweep_config(build_parser().parse_args(
            ["verify", *flags(values.items())]))
        assert repr(from_file) == repr(from_flags)
        value = values[key]
        assert getattr(from_file, _VERIFY_KEYS[key][0]) == (
            tuple(value) if isinstance(value, list) else value)

    def test_verify_help_has_one_flag_per_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--config",
                         *("--" + key.replace("_", "-") for key in _VERIFY_KEYS)}

    @pytest.mark.parametrize("key", ["v", "r"])
    def test_verify_integer_beyond_doubles_is_config_error(self, tmp_path, capsys,
                                                          key):
        cfg = {"v": [1.0], "p": [1.0], "r": [1], "n": [100], key: [10**400]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rows.csv")]) == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("r", [10**400]), ("x_min", -10**400)])
    def test_verify_config_integer_past_doubles_names_its_key(self, tmp_path, capsys,
                                                              key, value):
        cfg = {"v": [1.0], "p": [1.0], "r": [1], "n": [100], key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rows.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: config key {key!r} has an integer too large for a double "
            f"(magnitude above 1.79769e+308)\n")
        assert not (tmp_path / "rows.csv").exists()

    def test_verify_decreasing_grid_names_the_grid(self, tmp_path, capsys):
        assert main(["verify", "--v", "2,0.5", "--p", "1", "--r", "1",
                     "--n", "100", "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: the v grid must be strictly increasing\n"

    def test_verify_rank_past_the_bound_exits_at_once(self, tmp_path, capsys):
        # no row is evaluated: at r = 10^6 each would cost the gap engine
        # about half a second
        start = time.perf_counter()
        assert main(["verify", "--v", "2", "--p", "1", "--r", "1000000",
                     "--ln-n", "10", "--x-min", "-1", "--x-max", "3",
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "[1, 171]" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_verify_infinite_x_max_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--v", "1", "--p", "1", "--r", "1", "--n", "100",
                     "--x-min", "0", "--x-max", "inf",
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_nan_shape_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--v", "nan", "--p", "1", "--r", "1", "--n", "100",
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_negative_seed_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--v", "1", "--p", "1", "--r", "1", "--n", "100",
                     "--seed", "-1", "--mc-reps", "10",
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_verify_missing_out_is_config_error(self, tmp_path):
        assert main(["verify", "--v", "1", "--p", "1", "--r", "1",
                     "--n", "1000"]) == 2

    def test_verify_byte_identical_runs(self, tmp_path):
        args = ["verify", "--v", "1", "--p", "1", "--r", "1", "--n", "100,1000",
                "--x-min", "0", "--x-max", "1", "--x-step", "0.5",
                "--theorem", "1", "--mc-reps", "300", "--seed", "5",
                "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
