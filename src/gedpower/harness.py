"""Sweep orchestration: walk a (v, p, r, n, x) grid, evaluate the exact
order-statistic CDF against the Gumbel limit and the theorem corrections,
and emit the rows as CSV or JSON with deterministic bytes."""

import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .expansions import (
    NormedCase,
    TheoremCase,
    classify_case,
    exact_deficit,
    expand,
)
from .ged import EQ_TOL, make_params
from .orderstats import (
    cdf_gap_from_deficit,
    mc_score,
    mc_tables,
    poisson_remainder_bound,
)
from .specfun import ConvergenceError, exp_or_inf

__all__ = [
    "ConfigError",
    "SweepConfig",
    "VerificationRow",
    "CSV_HEADER",
    "run_sweep",
    "emit",
]

CSV_HEADER = ("v,p,r,n,x,exact,limit,err,scaled_err1,target1,"
              "scaled_err2,target2,theta_deficit,remainder_bound,error")
_ROW_KEYS = CSV_HEADER.split(",")
_JSON_KEYS = [json.dumps(k) + ": " for k in _ROW_KEYS]
# .17g prints every integral float below 2^53 (so every exact n) as an integer
_ROW_FORMAT = ",".join("%d" if k == "r" else "%s" if k == "error" else "%.17g"
                       for k in _ROW_KEYS)
_row_values = operator.attrgetter(*_ROW_KEYS)
_NON_FINITE = ("nan", "inf", "-inf")

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
        if not all(_is_a(numbers.Real, n) and 1 <= n < 2**63 and float(n).is_integer()
                   for n in self.n_ladder):
            raise ConfigError("n values must be whole numbers in [1, 2^63)")
        if not all(math.isfinite(a) and a > 0 for a in (*self.v_list, *self.p_list)):
            raise ConfigError("v and p values must be finite and positive")
        if any(r < 1 for r in self.r_list):
            raise ConfigError("ranks must be >= 1")
        if bool(self.n_ladder) == bool(self.log_n_ladder):
            raise ConfigError("exactly one of n_ladder and log_n_ladder is required")
        ladder = self.n_ladder or self.log_n_ladder
        if any(b <= a for a, b in zip(ladder, ladder[1:])) :
            raise ConfigError("the n ladder must be strictly increasing")
        if not all(map(math.isfinite, (*self.log_n_ladder, self.x_min,
                                       self.x_max, self.x_step))):
            raise ConfigError("log n, x_min, x_max and x_step must be finite")
        if not self.x_step > 0:
            raise ConfigError(f"x_step must be positive, got {self.x_step}")
        if self.x_max < self.x_min:
            raise ConfigError("empty x grid: x_max < x_min")
        if not (self.x_max - self.x_min) / self.x_step + 1e-9 < _MAX_X_POINTS:
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


@dataclass(frozen=True)
class VerificationRow:
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


def _resolve_theorem(theorem: str | None, v: float, p: float) -> TheoremCase:
    """The filter's case at (v, p); NormedCase rejects a tag (v, p) misses."""
    if theorem in _CASE_TAGS:
        return TheoremCase(theorem, v, p)
    branch = int(theorem) if theorem else (1 if abs(v - 1.0) <= EQ_TOL else 2)
    return classify_case(v, p, theorem=branch)


def _eval_point(config: SweepConfig, v: float, p: float, r: int,
                n: int | None, log_n: float | None, x: float,
                cells: dict, tables: dict, key: tuple[int, int]) -> VerificationRow:
    n_value = float(n) if n is not None else exp_or_inf(log_n)
    try:
        cell = cells.get((p, key[1]))
        if cell is None:
            cell = cells[(p, key[1])] = NormedCase(
                make_params(v), _resolve_theorem(config.theorem, v, p), n, log_n)
        if n is None and cell.case.tag == "t1_i":
            raise ValueError("t1_i needs an exact n: its rate is the O(1/n) term "
                             "that the log-n Poisson limit drops")
        deficit = exact_deficit(cell, x)
        if n is not None:
            gap = cdf_gap_from_deficit(r, x, deficit, n=float(n))
            bound = 0.0
        else:
            gap = cdf_gap_from_deficit(r, x, deficit, log_n=log_n)
            bound = poisson_remainder_bound(r, x, deficit, log_n)
        ee = expand(cell, r, x)
        limit = ee.leading
        target1 = ee.first_order * ee.scale_first
        target2 = ee.second_order * ee.scale_second
        scaled_err1 = ee.scale_first * gap
        scaled_err2 = ee.scale_second / ee.scale_first * (scaled_err1 - target1)
        exact = min(1.0, max(0.0, limit + gap))
        error = ""
        if config.mc_reps > 0:
            y = cell.norming.scale * x + cell.norming.shift
            error = _mc_note(config, tables[key], r, p, y, exact)
        return VerificationRow(
            v=v, p=p, r=r, n=n_value, x=x,
            exact=exact, limit=limit, err=gap,
            scaled_err1=scaled_err1, target1=target1,
            scaled_err2=scaled_err2, target2=target2,
            theta_deficit=deficit, remainder_bound=bound, error=error,
        )
    except _ROW_ERRORS as exc:
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return VerificationRow(v=v, p=p, r=r, n=n_value, x=x, error=msg)


def _draw_tables(config: SweepConfig, ladder) -> dict:
    """One Monte Carlo table of top order statistics per (v, n) cell, keyed
    by (v index, n index) and shared by every r, p and x of the cell.

    The tables are drawn concurrently in one :func:`mc_tables` call; a cell
    over the draw budget gets ``None``, and a v with no routed cell (routing
    does not depend on n) gets no table, as its rows carry that error.
    """
    keys, jobs = [], []
    for vi, v in enumerate(sorted(config.v_list)):
        for p in config.p_list:  # v's tables, once some p routes
            try:
                params = NormedCase(make_params(v), _resolve_theorem(config.theorem, v, p),
                                    *ladder[0]).params
            except _ROW_ERRORS:
                continue
            for ni, (n, _) in enumerate(ladder):
                seed = int(np.random.SeedSequence((config.seed, vi, ni)).generate_state(1)[0])
                keys.append((vi, ni))
                jobs.append((params, n, min(max(config.r_list), n), config.mc_reps, seed))
            break
    return dict(zip(keys, mc_tables(jobs)))


def _mc_note(config, table, r, p, y, exact) -> str:
    """Cross-check the exact value against the cell's Monte Carlo table;
    note 3-sigma misses."""
    if table is None:
        return "mc_skipped_budget"
    est, se = mc_score(table, r, p, y)
    if se == 0.0:
        se = math.sqrt(0.25 / config.mc_reps)
    z = (est - exact) / se
    if abs(z) > 3.0:
        return f"mc_3sigma_violation(z={z:.2f})"
    return ""


def run_sweep(config: SweepConfig, progress=None) -> list[VerificationRow]:
    """Evaluate every grid point in (v, p, r, n, x)-lexicographic order."""
    rows: list[VerificationRow] = []
    xs = config.x_grid()
    ladder: list[tuple[int | None, float | None]]
    if config.n_ladder:
        ladder = [(int(n), None) for n in config.n_ladder]
    else:
        ladder = [(None, float(ln)) for ln in config.log_n_ladder]
    total = (len(config.v_list) * len(config.p_list) * len(config.r_list)
             * len(ladder) * len(xs))
    done = 0
    tables = _draw_tables(config, ladder) if config.mc_reps > 0 else {}
    for vi, v in enumerate(sorted(config.v_list)):
        cells: dict = {}  # this v's NormedCase per (p, n)
        for p in sorted(config.p_list):
            for r in sorted(config.r_list):
                for ni, (n, log_n) in enumerate(ladder):
                    for x in xs:
                        rows.append(_eval_point(config, v, p, r, n, log_n, x,
                                                cells, tables, (vi, ni)))
                        done += 1
                        if progress is not None and done % 50 == 0:
                            print(f"{done}/{total} points", file=progress)
    if progress is not None:
        print(f"{done}/{total} points", file=progress)
    return rows


def _json_text(rows: list[VerificationRow]) -> str:
    objects = []
    for row in rows:
        cells = (_ROW_FORMAT % _row_values(row)).split(",", len(_ROW_KEYS) - 1)
        cells[-1] = json.dumps(row.error)
        objects.append("\n  {" + ", ".join(k + ("null" if c in _NON_FINITE else c)
                                           for k, c in zip(_JSON_KEYS, cells)) + "}")
    return "[" + ",".join(objects) + "\n]\n"


def emit(rows: list[VerificationRow], fmt: str, path: str) -> str:
    """Write rows to ``path`` as csv or json; bytes are deterministic."""
    if fmt == "csv":
        text = "\n".join([CSV_HEADER, *(_ROW_FORMAT % _row_values(r) for r in rows)]) + "\n"
    elif fmt == "json":
        text = _json_text(rows)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path!r}: {exc}") from exc
    return path
