import hashlib
import json
import math
import re

import pytest

from gedpower.cli import _VERIFY_KEYS, _sweep_config, build_parser, main
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
    ])
    def test_non_finite_and_negative_inputs(self, overrides):
        with pytest.raises(ConfigError):
            t1i_config(**overrides)

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
        # at n = 2 the normed point fails first at x = -5, the scales'
        # n >= 3 check at x = 0; each row keeps its own message
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(1,),
                          n_ladder=(2,), x_min=-5.0, x_max=0.0, x_step=5.0)
        first, second = run_sweep(cfg)
        assert first.error.startswith(
            "ValueError: normed point scale*x+shift = -7.07")
        assert "is not positive at x=-5.0" in first.error
        assert second.error == "ValueError: sample size must be >= 3; got 2"

    def test_rank_above_n_names_r_and_n(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["verify", "--v", "2", "--p", "1", "--r", "5", "--n", "3",
                     "--x-min", "0", "--x-max", "0", "--out", str(out)]) == 0
        error = out.read_text().splitlines()[1].split(",")[-1]
        assert error == "ValueError: need r <= n; got r=5; n=3"

    def test_one_plan_per_cell(self, monkeypatch):
        # every (v, p, log n) cell makes its params once and solves b_n
        # twice: once for the norming, once for the scales
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
        assert sorted(solves) == sorted(2 * [(v, ln) for v in (0.5, 2.0)
                                             for _ in (1.0, 2.0)
                                             for ln in (10.0, 30.0)])
        assert len(shapes) == 8

    def test_program_bug_stops_the_sweep(self, monkeypatch):
        # only numerical and domain failures become row notes
        def broken(*args, **kwargs):
            raise TypeError("broken deficit")

        monkeypatch.setattr("gedpower.harness.exact_deficit", broken)
        with pytest.raises(TypeError, match="broken deficit"):
            run_sweep(t1i_config())

    def test_mc_draws_once_per_v_n_cell(self, monkeypatch):
        import gedpower.harness as harness

        calls = []
        real = harness.mc_top_order_stats

        def counting(params, n, r_max, reps, seed):
            calls.append((params.v, n, r_max, reps))
            return real(params, n, r_max, reps, seed)

        monkeypatch.setattr(harness, "mc_top_order_stats", counting)
        n_ladder, reps = (30, 200), 50
        cfg = SweepConfig(
            v_list=(1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 2, 3),
            n_ladder=n_ladder, x_min=0.0, x_max=1.5, x_step=0.5,
            mc_reps=reps, seed=3,
        )
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 3 * 2 * 4
        assert not any(r.error and not r.error.startswith("mc_") for r in rows)
        assert sorted(calls) == [(v, n, min(3, n), reps)
                                 for v in (1.0, 2.0) for n in n_ladder]

    def test_rank_above_171_names_the_bound(self):
        cfg = SweepConfig(v_list=(2.0,), p_list=(1.0,), r_list=(172,),
                          n_ladder=(1000,), x_min=0.0, x_max=0.0, theorem="1")
        assert "r <= 171" in run_sweep(cfg)[0].error

    def test_mc_over_budget_is_noted_before_any_draw(self):
        # n * reps = 2.01e8 exceeds the 2e8 draw budget
        cfg = t1i_config(n_ladder=(10**6,), r_list=(1,), x_min=0.0, x_max=0.0,
                         mc_reps=201)
        assert [row.error for row in run_sweep(cfg)] == ["mc_skipped_budget"]

    def test_mc_miss_is_noted(self, monkeypatch):
        monkeypatch.setattr("gedpower.harness.mc_score", lambda *args: (1.0, 0.0))
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

    def test_io_error_has_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit([], "csv", str(tmp_path / "no" / "such" / "file.csv"))


class TestGoldenBytes:
    """sha256 of emitted sweeps, pinned from the formatter, sampler and
    binomial sums as they were before those paths were merged."""

    # With one Monte Carlo table per (v, n) cell, seed 4 puts no 3-sigma
    # note on this grid; n = 8 gives error rows.
    EXACT_N = dict(v_list=(0.5, 1.0, 2.0), p_list=(1.0, 2.0), r_list=(1, 3),
                   n_ladder=(8, 100, 1000), x_min=-3.0, x_max=1.5, x_step=1.5,
                   mc_reps=200, seed=4)
    # log n = 750 makes n = inf ("inf" in CSV, null in JSON) and t1_i errors
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

    @pytest.mark.parametrize("grid,fmt,digest", [
        ("EXACT_N", "csv", "f60c78193ce2d609a46f558d2a4386bac750f80047e079ef728a338764d2235d"),
        ("EXACT_N", "json", "bb7cb5c3024fb1925ab0def0ca74fb9a69f088b644f6c2747c9307b889ca9380"),
        ("LOG_N", "csv", "e036e80f3064b42c1c9e5fab572421c9821e05ab432ea9f701734ce6f7e83b47"),
        ("LOG_N", "json", "6afa8f99b2a63df02b0559e6325d4e6f552a4f823cad3947c94b940a1e3b9095"),
        ("SWEEP_LOGN", "json", "daf945ebb7e3abfb270a0b481adf3a6aaf0f9704e48a4be9b9ffea61afe167db"),
        ("SWEEP_EXACTN", "csv", "1ea2c430871e9ba234e0301615854b1df002c3a92a93be2f861092f373721804"),
    ])
    def test_sweep_digest(self, tmp_path, grid, fmt, digest):
        rows = run_sweep(SweepConfig(**getattr(self, grid)))
        path = tmp_path / f"rows.{fmt}"
        emit(rows, fmt, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCli:
    def test_dist(self, capsys):
        assert main(["dist", "--v", "2", "--what", "pdf", "--x", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_dist_quantile(self, capsys):
        assert main(["dist", "--v", "1", "--what", "quantile", "--u", "0.9"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(-math.log(0.2) / math.sqrt(2.0), rel=1e-10)

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
    ])
    def test_single_point_domain_error_is_config_error(self, capsys, argv, message):
        assert main(argv.split()) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--n", "1000"], ["--ln-n", "10"]])
    def test_exact_at_infinite_y_is_one(self, capsys, mode):
        assert main(["exact", "--v", "2", "--p", "1", "--r", "2", "--y", "inf",
                     *mode]) == 0
        assert capsys.readouterr().out == "1\n"

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
        # v < 1 with tiny n has no calibration root: exit 3
        assert main(["solve-bn", "--v", "0.5", "--n", "2"]) == 3

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
        if key not in ("n", "ln_n") or key == mode
    ])
    def test_config_key_matches_its_flag(self, tmp_path, mode, key):
        # every value differs from SweepConfig's default; the whole numbers
        # given for v and x_max must still become floats
        values = {"v": [0.5, 2], "p": [1.0, 2.0], "r": [1, 3],
                  mode: [1000, 100000] if mode == "n" else [10.0, 20.5],
                  "x_min": -0.5, "x_max": 2, "x_step": 0.5, "theorem": "2",
                  "out": "rows.json", "format": "json", "seed": 7, "mc_reps": 20}

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
