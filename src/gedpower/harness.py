"""Sweep orchestration: walk a (v, p, r, n, x) grid, evaluate the exact
order-statistic CDF against the Gumbel limit and the theorem corrections,
and emit the rows as CSV or JSON with deterministic bytes."""

import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .expansions import (
    _MAX_RANK,
    NormedCase,
    TheoremCase,
    _expand,
    _x_terms,
    classify_case,
    exact_deficit,
)
from .ged import EQ_TOL, make_params
from .orderstats import _gaps_from_deficit, mc_score, mc_table, poisson_remainder_bound
from .specfun import ConvergenceError, exp_or_inf

__all__ = [
    "ConfigError",
    "SweepConfig",
    "VerificationRow",
    "CSV_HEADER",
    "run_sweep",
    "emit",
]

_CASE_TAGS = ("t1_i", "t1_ii", "t1_iii", "t2_i", "t2_ii")
_MAX_X_POINTS = 10**6  # largest x grid a sweep accepts
# numerical and domain failures, recorded on their rows; any other
# exception is a program bug and stops the sweep
_ROW_ERRORS = (ValueError, ArithmeticError, ConvergenceError)


class ConfigError(ValueError):
    """A sweep configuration violates its invariants."""


def _is_a(kind, value) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Grid, mode, and output description of one verification sweep."""

    v_list: tuple[float, ...]
    p_list: tuple[float, ...]
    r_list: tuple[int, ...]
    n_ladder: tuple[int, ...] = ()
    log_n_ladder: tuple[float, ...] = ()
    x_min: float = 0.0
    x_max: float = 0.0
    x_step: float = 1.0
    theorem: str | None = None  # None, "1", "2", or a case tag
    out: str | None = None
    fmt: str = "csv"
    seed: int = 0
    mc_reps: int = 0

    def __post_init__(self):
        if not self.v_list or not self.p_list or not self.r_list:
            raise ConfigError("v, p and r grids must be nonempty")
        reals = (*self.v_list, *self.p_list, *self.log_n_ladder,
                 self.x_min, self.x_max, self.x_step)
        if not all(_is_a(numbers.Real, a) for a in reals):
            raise ConfigError("v, p, log n and x values must be real numbers")
        if not all(_is_a(numbers.Integral, k)
                   for k in (*self.r_list, self.seed, self.mc_reps)):
            raise ConfigError("r, seed and mc_reps must be integers")
        if any(abs(a) > sys.float_info.max for a in reals if not isinstance(a, float)):
            raise ConfigError("a v, p, log n or x value is too large for a double")
        if not all(_is_a(numbers.Real, n) and 1 <= n < 2**63 and float(n).is_integer()
                   for n in self.n_ladder):
            raise ConfigError("n values must be whole numbers in [1, 2^63)")
        if not all(math.isfinite(a) and a > 0 for a in (*self.v_list, *self.p_list)):
            raise ConfigError("v and p values must be finite and positive")
        if not all(1 <= r <= _MAX_RANK for r in self.r_list):
            raise ConfigError(f"ranks must lie in [1, {_MAX_RANK}], where (r-1)! is finite")
        if bool(self.n_ladder) == bool(self.log_n_ladder):
            raise ConfigError("exactly one of n_ladder and log_n_ladder is required")
        for name, grid in (("v", self.v_list), ("p", self.p_list), ("r", self.r_list),
                           ("n", self.n_ladder or self.log_n_ladder)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"the {name} grid must be strictly increasing")
        if not all(map(math.isfinite, (*self.log_n_ladder, self.x_min,
                                       self.x_max, self.x_step))):
            raise ConfigError("log n, x_min, x_max and x_step must be finite")
        if not self.x_step > 0:
            raise ConfigError(f"x_step must be positive, got {self.x_step}")
        if self.x_max < self.x_min:
            raise ConfigError("empty x grid: x_max < x_min")
        if not (float(self.x_max) - float(self.x_min)) / self.x_step + 1e-9 < _MAX_X_POINTS:
            raise ConfigError(f"the x grid has more than {_MAX_X_POINTS} points")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.theorem is not None and self.theorem not in ("1", "2") + _CASE_TAGS:
            raise ConfigError(f"theorem filter must be 1, 2 or a case tag, "
                              f"got {self.theorem!r}")
        if self.mc_reps < 0:
            raise ConfigError("mc_reps must be >= 0")
        if self.mc_reps > 0 and self.log_n_ladder:
            raise ConfigError("Monte Carlo (mc_reps > 0) needs an exact n ladder")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def x_grid(self) -> tuple[float, ...]:
        count = int(math.floor((self.x_max - self.x_min) / self.x_step + 1e-9)) + 1
        return tuple(self.x_min + k * self.x_step for k in range(count))


class VerificationRow(NamedTuple):
    """One sweep point with the double-limit bookkeeping columns."""

    v: float
    p: float
    r: int
    n: float
    x: float
    exact: float = math.nan
    limit: float = math.nan
    err: float = math.nan
    scaled_err1: float = math.nan
    target1: float = math.nan
    scaled_err2: float = math.nan
    target2: float = math.nan
    theta_deficit: float = math.nan
    remainder_bound: float = math.nan
    error: str = ""


CSV_HEADER = ",".join(VerificationRow._fields)
# .17g prints every integral float below 2^53 (so every exact n) as an integer
_CELL_FORMATS = ["%d" if k == "r" else "%.17g" for k in VerificationRow._fields[:-1]]
_ROW_FORMAT = ",".join(_CELL_FORMATS) + ",%s"
# one row's JSON object up to the error's value
_JSON_FORMAT = "\n  {" + "".join(f"{json.dumps(k)}: {f}, " for k, f in
                                 zip(VerificationRow._fields, _CELL_FORMATS)) + '"error": '


def _resolve_theorem(theorem: str | None, v: float, p: float) -> TheoremCase:
    """The filter's case at (v, p); NormedCase rejects a tag (v, p) misses."""
    if theorem in _CASE_TAGS:
        return TheoremCase(theorem, v, p)
    branch = int(theorem) if theorem else (1 if abs(v - 1.0) <= EQ_TOL else 2)
    return classify_case(v, p, theorem=branch)


def _note(exc: Exception) -> str:
    """The row note of a numerical or domain failure; one CSV cell."""
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _plan_cell(theorem: str | None, v: float, p: float, n: int | None,
               log_n: float | None) -> NormedCase | str:
    """The NormedCase of one (v, p, n) cell, or the note its rows carry when
    making the params, routing (v, p), the cell, its norming or its scales
    fails."""
    try:
        cell = NormedCase(make_params(v), _resolve_theorem(theorem, v, p), n, log_n)
        if n is None and cell.case.tag == "t1_i":
            raise ValueError("t1_i needs an exact n: its rate is the O(1/n) term "
                             "that the log-n Poisson limit drops")
        cell.norming, cell.scales  # x-free, so a failure is every row's note
        return cell
    except _ROW_ERRORS as exc:
        return _note(exc)


def _eval_x(cell: NormedCase, key, terms, deficit: float | None = None) -> list:
    """The rows at ``key`` = (v, p, n) of ``terms``' ranks at its x, which share
    all rank-free work; past the deficit, a failing rank list goes rank by rank."""
    (v, p, n), ranks, x = key, terms.ranks, terms.x
    try:
        deficit = exact_deficit(cell, x) if deficit is None else deficit
        gaps = _gaps_from_deficit(terms, deficit, float(cell.n) if cell.n is not None else None)
        rows = []
        for r, gap, ee in zip(ranks, gaps, _expand(cell, terms)):
            target1 = ee.first_order * ee.scale_first
            target2 = ee.second_order * ee.scale_second
            scaled_err1 = ee.scale_first * gap
            scaled_err2 = ee.scale_second / ee.scale_first * (scaled_err1 - target1)
            exact = min(1.0, max(0.0, ee.leading + gap))
            bound = 0.0 if cell.n else poisson_remainder_bound(r, x, deficit, cell.log_n)
            rows.append(VerificationRow(v, p, r, n, x, exact, ee.leading, gap, scaled_err1,
                                        target1, scaled_err2, target2, deficit, bound))
        return rows
    except _ROW_ERRORS as exc:
        if deficit is None or len(ranks) == 1:
            return [VerificationRow(v, p, r, n, x, error=_note(exc)) for r in ranks]
        return [row for r in ranks for row in _eval_x(cell, key, _x_terms((r,), x), deficit)]


def _eval_cell(config: SweepConfig, cell: NormedCase | str, key, terms, table) -> list:
    """The rows at ``key`` = (v, p, n) of one cell, per rank and then per x's terms;
    each rank scores its rows that hold numbers in one Monte Carlo call."""
    if isinstance(cell, str):
        v, p, n = key
        return [[VerificationRow(v, p, r, n, t.x, error=cell) for t in terms]
                for r in config.r_list]
    by_rank = [list(rows) for rows in zip(*(_eval_x(cell, key, t) for t in terms))]
    for r, rows in zip(config.r_list, by_rank if config.mc_reps > 0 else ()):
        live = [i for i, row in enumerate(rows) if not row.error]
        # the gap engine's s = survival(z)
        ss = [terms[i].emx * (1.0 - rows[i].theta_deficit) / float(cell.n) for i in live]
        scores = mc_score(table, r, ss) if table is not None and live else [None] * len(live)
        for i, score in zip(live, scores):
            if note := _mc_note(config, score, rows[i].exact):
                rows[i] = rows[i]._replace(error=note)
    return by_rank


def _draw_tables(config: SweepConfig, plan) -> dict:
    """One Monte Carlo table of exponential order statistics per (v, n) cell,
    keyed by (v index, n index) and shared by every r, p and x of the cell.

    A cell over the budget gets ``None``; a (v, n) cell with no live planned
    cell gets no table, as all its rows carry notes.
    """
    import numpy as np

    tables = {}
    for vi, (_, by_p) in enumerate(plan):
        for ni, n in enumerate(map(int, config.n_ladder)):
            if all(isinstance(cells[ni], str) for _, cells in by_p):
                continue
            seed = int(np.random.SeedSequence((config.seed, vi, ni)).generate_state(1)[0])
            tables[vi, ni] = mc_table(n, min(config.r_list[-1], n), config.mc_reps, seed)
    return tables


def _mc_note(config, score, exact) -> str:
    """The note of a Monte Carlo score that misses by 3 sigma, or of none."""
    if score is None:
        return "mc_skipped_budget"
    z = (score[0] - exact) / (score[1] or math.sqrt(0.25 / config.mc_reps))  # est, stderr
    return f"mc_3sigma_violation(z={z:.2f})" if abs(z) > 3.0 else ""


def run_sweep(config: SweepConfig, progress=None) -> list[VerificationRow]:
    """Evaluate every grid point in (v, p, r, n, x)-lexicographic order."""
    rows: list[VerificationRow] = []
    xs = config.x_grid()
    if config.n_ladder:
        ladder = [(int(n), None) for n in config.n_ladder]
    else:
        ladder = [(None, float(ln)) for ln in config.log_n_ladder]
    n_column = [float(n) if n is not None else exp_or_inf(log_n) for n, log_n in ladder]
    total = len(config.v_list) * len(config.p_list) * len(config.r_list) * len(ladder) * len(xs)
    # per v, its p and their cells, one per ladder entry, all in sweep order
    plan = [(v, [(p, [_plan_cell(config.theorem, v, p, *rung) for rung in ladder])
                 for p in config.p_list])
            for v in config.v_list]
    tables = _draw_tables(config, plan) if config.mc_reps > 0 else {}
    terms = [_x_terms(config.r_list, x) for x in xs]
    for vi, (v, by_p) in enumerate(plan):
        for p, cells in by_p:
            by_cell = [_eval_cell(config, cell, (v, p, n), terms, tables.get((vi, ni)))
                       for ni, (cell, n) in enumerate(zip(cells, n_column))]
            for by_n in zip(*by_cell):  # one rank's x rows, per n
                for block in by_n:
                    rows.extend(block)
            if progress is not None:
                print(f"{len(rows)}/{total} points", file=progress)
    return rows


def emit(rows: list[VerificationRow], fmt: str, path: str) -> str:
    """Write rows to ``path`` as csv or json; bytes are deterministic."""
    if fmt == "csv":
        text = "\n".join([CSV_HEADER, *(_ROW_FORMAT % r for r in rows)]) + "\n"
    elif fmt == "json":  # null replaces nan and inf before the free-text error
        text = "[" + ",".join(
            (_JSON_FORMAT % r[:-1]).replace(": nan,", ": null,")
            .replace(": inf,", ": null,").replace(": -inf,", ": null,")
            + json.dumps(r.error) + "}" for r in rows) + "\n]\n"
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path!r}: {exc}") from exc
    return path
