"""The benchmark's workloads: inputs built from the seed, the operation
that is timed, and the correctness checks that run outside the timed region.

Every call into the library goes through the ``gedpower`` package namespace
at call time, so the traced run sees it once the wrappers are installed.
"""

import hashlib
import math
import random
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import gedpower as gp

EXACT_TOL = 1e-12       # sweep `exact` vs the direct CDF path, absolute
QUANTILE_TOL = 1e-10    # survival(quantile(u)) vs 1 - u, relative
# A correct sampler puts this many 3-sigma notes on a sweep with at most
# this probability; see mc_tail_probability for why the count is not
# compared with a fixed share of the rows.
MC_ALPHA = 1e-6
MC_NOTE = "mc_3sigma_violation"

_X_GRID = dict(x_min=-1.0, x_max=3.0, x_step=0.25)


def no_span(_name):
    return nullcontext()


def row_failed(error: str) -> bool:
    """An exception or a budget skip; a 3-sigma note is a checked outcome."""
    return bool(error) and not error.startswith(MC_NOTE)


class SweepWorkload:
    """A closed loop of whole sweeps: ``run_sweep`` then ``emit``.

    One operation (one "query") is a full sweep over the grid; every repeat
    in a run uses the same configuration, so its bytes must not change.
    The seed reaches the program only as the sweep's Monte Carlo seed.
    """

    kind = "sweep"

    def __init__(self, name: str, grid: dict):
        self.name = name
        self.grid = grid

    def build(self, seed: int):
        return gp.SweepConfig(**self.grid, seed=seed)

    @staticmethod
    def op(config, path, span=no_span):
        """The timed operation; returns the rows."""
        with span("bench.sweep"):
            rows = gp.run_sweep(config)
            gp.emit(rows, config.fmt, str(path))
        return rows

    @staticmethod
    def check(config, rows) -> dict:
        """Row count, the direct-path check of ``exact`` and, with Monte
        Carlo, the 3-sigma notes.  Returns details and a list of problems."""
        expected = sum(1 for _ in _grid_points(config))
        out = {"rows": len(rows), "problems": []}
        if len(rows) != expected:
            out["problems"].append(f"{len(rows)} rows, expected {expected}")
            return out
        worst, bad = direct_path_check(config, rows)
        out["worst_exact_diff"] = worst
        if bad:
            out["problems"].append(
                f"{bad} rows differ from the direct CDF path by more than "
                f"{EXACT_TOL} (worst {worst:.3g})")
        if config.mc_reps > 0:
            notes = sum(r.error.startswith(MC_NOTE) for r in rows)
            tail = mc_tail_probability([r.exact for r in rows], config.mc_reps, notes)
            out.update(mc_notes=notes, mc_3sigma_share=notes / len(rows),
                       mc_tail_probability=tail)
            if tail < MC_ALPHA:
                out["problems"].append(
                    f"{notes} of {len(rows)} rows carry {MC_NOTE}; a correct "
                    f"sampler does that with probability {tail:.3g}")
        return out


def _grid_points(config):
    """(v, p, r, n, log_n, x) in the order the sweep promises."""
    if config.n_ladder:
        ladder = [(int(n), None) for n in config.n_ladder]
    else:
        ladder = [(None, float(ln)) for ln in config.log_n_ladder]
    xs = config.x_grid()
    for v in sorted(config.v_list):
        for p in sorted(config.p_list):
            for r in sorted(config.r_list):
                for n, log_n in ladder:
                    for x in xs:
                        yield v, p, r, n, log_n, x


def _route(theorem, v: float, p: float):
    if theorem is None:
        return gp.classify_case(v, p, theorem=1 if abs(v - 1.0) <= 1e-12 else 2)
    return gp.classify_case(v, p, theorem=int(theorem))


def direct_path_check(config, rows) -> tuple[float, int]:
    """Compare each row's ``exact`` with the CDF evaluated directly at
    y = scale x + shift of the case norming; returns (worst diff, count over
    tolerance).  Rows that carry an exception are counted as failures
    elsewhere and skipped here."""
    worst, bad = 0.0, 0
    cells = {}
    for row, (v, p, r, n, log_n, x) in zip(rows, _grid_points(config)):
        if (row.v, row.p, row.r, row.x) != (v, p, r, x):
            return math.inf, len(rows)
        if row_failed(row.error):
            continue
        cell = cells.get((v, p, n, log_n))
        if cell is None:
            params = gp.make_params(v)
            case = _route(config.theorem, v, p)
            cell = cells[(v, p, n, log_n)] = (
                params, gp.case_norming(params, case, n, log_n=log_n))
        params, nm = cell
        y = nm.scale * x + nm.shift
        if n is not None:
            direct = gp.exact_powered_cdf(params, gp.OrderStatSpec(n=n, r=r, p=p), y)
        else:
            direct = gp.poisson_powered_cdf(params, r, p, y, log_n)
        diff = abs(row.exact - direct)
        if not diff <= EXACT_TOL:
            bad += 1
        if not diff <= worst:
            worst = diff
    return worst, bad


def mc_tail_probability(exact: list, reps: int, observed: int) -> float:
    """P(at least ``observed`` rows carry a 3-sigma note) if the sampler is
    right.

    Each row's hit count is Binomial(reps, exact), and the harness notes the
    row when |est - exact| > 3 sqrt(est (1 - est) / reps).  Because that
    standard error is estimated, the note fires on about 0.5% of the rows of
    this grid at reps = 2000, not 0.27%, so "at most 1% of 108 rows" would
    fail about one correct run in ten.  The rows are independent, so the
    count is Poisson-binomial and its tail is computed exactly here.
    """
    k = np.arange(reps + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, reps + 1)))))
    log_choose = log_fact[reps] - log_fact - log_fact[::-1]
    est = k / reps
    se = np.sqrt(est * (1.0 - est) / reps)
    se[se == 0.0] = math.sqrt(0.25 / reps)
    dist = np.zeros(len(exact) + 1)
    dist[0] = 1.0
    for p in exact:
        if 0.0 < p < 1.0:
            pmf = np.exp(log_choose + k * math.log(p) + (reps - k) * math.log1p(-p))
        else:
            pmf = (k == round(p * reps)).astype(float)
        q = float(pmf[np.abs(est - p) > 3.0 * se].sum())
        dist[1:] = dist[1:] * (1.0 - q) + dist[:-1] * q
        dist[0] *= 1.0 - q
    return float(dist[observed:].sum())


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- queries

def _ged_lam(v: float) -> float:
    """GED scale lambda(v), computed here so inputs need no library call."""
    return math.exp(0.5 * (-2.0 / v * math.log(2.0) + math.lgamma(1.0 / v)
                           - math.lgamma(3.0 / v)))


def _threshold(v: float, p: float, log_n: float, x: float) -> float:
    """A y near the bulk of the powered r-th largest: the tail
    exp(-t^v / (2 lam^v)) reaches e^(-x)/n at roughly this t, then y = t^p."""
    t = _ged_lam(v) * (2.0 * max(log_n + x, 0.5)) ** (1.0 / v)
    return t ** p


def _q_quantile(v, u):
    return gp.quantile(gp.make_params(v), u)


def _q_exact(v, p, r, n, y):
    return gp.exact_powered_cdf(gp.make_params(v), gp.OrderStatSpec(n=n, r=r, p=p), y)


def _q_poisson(v, p, r, log_n, y):
    return gp.poisson_powered_cdf(gp.make_params(v), r, p, y, log_n)


def _q_solve_bn(v, log_n):
    return gp.solve_bn(gp.make_params(v), log_n=log_n)


def _q_expansion(v, p, r, log_n, x):
    case = gp.classify_case(v, p, theorem=2)
    return gp.theorem_expansion(gp.make_params(v), case, r, None, x, log_n=log_n)


QUERIES = {
    "quantile": _q_quantile,
    "exact_powered_cdf": _q_exact,
    "poisson_powered_cdf": _q_poisson,
    "solve_bn": _q_solve_bn,
    "theorem_expansion": _q_expansion,
}


class QueryStream:
    """Seeded random single-point queries.

    The kinds take turns, and ``theorem_expansion`` alternates between
    ``t2_i`` and ``t2_ii``, so every block has the same mix whatever the
    seed; only the arguments are random.  Every query carries at least two
    independent 53-bit uniform draws, so no two queries of a run are alike
    (a repeat has probability below 1e-20) and a cache keyed on the inputs
    never hits.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0

    def _draw(self):
        rng = self.rng
        turn, kind_index = divmod(self.count, len(QUERIES))
        kind = tuple(QUERIES)[kind_index]
        self.count += 1
        v = rng.uniform(0.5, 4.0)
        if kind == "quantile":
            w = 10.0 ** -rng.uniform(0.3, 12.0)
            return kind, (v, 1.0 - w if rng.random() < 0.5 else w)
        if kind == "solve_bn":
            return kind, (v, rng.uniform(7.0, 700.0))
        p = rng.uniform(0.5, 4.0)
        r = rng.randint(1, 5)
        x = rng.uniform(-1.0, 3.0)
        if kind == "exact_powered_cdf":
            n = int(10.0 ** rng.uniform(3.0, 12.0))
            return kind, (v, p, r, n, _threshold(v, p, math.log(n), x))
        log_n = rng.uniform(7.0, 700.0)
        if kind == "poisson_powered_cdf":
            return kind, (v, p, r, log_n, _threshold(v, p, log_n, x))
        if abs(v - 1.0) < 1e-6 or abs(p - v) < 1e-6:  # keep v != 1, t2_i p != v
            v = 1.5
            p = 2.5
        return kind, (v, v if turn % 2 else p, r, log_n, x)

    def block(self, size: int) -> list:
        return [self._draw() for _ in range(size)]


class QueryWorkload:
    """A closed loop with one client making single-point library calls."""

    kind = "query"
    name = "point-queries"
    block_size = 256

    def build(self, seed: int) -> QueryStream:
        return QueryStream(seed)

    @staticmethod
    def run_block(queries, span=no_span) -> tuple[list, list]:
        """Time each query; returns (latencies, results).  A query that
        raises yields its exception as the result."""
        latencies, results = [], []
        for kind, args in queries:
            fn = QUERIES[kind]
            t0 = perf_counter()
            try:
                with span("bench.query"):
                    out = fn(*args)
            except Exception as exc:  # a failed operation, counted below
                out = exc
            latencies.append(perf_counter() - t0)
            results.append(out)
        return latencies, results

    @staticmethod
    def check_block(queries, results) -> dict:
        failed, problems = 0, []
        for (kind, args), out in zip(queries, results):
            if isinstance(out, Exception):
                failed += 1
                continue
            bad = _query_problem(kind, args, out)
            if bad:
                problems.append(f"{kind}{args}: {bad}")
        return {"failed": failed, "problems": problems}


def _query_problem(kind, args, out) -> str:
    if kind == "quantile":
        v, u = args
        s = gp.survival(gp.make_params(v), out)
        if not abs(s - (1.0 - u)) <= QUANTILE_TOL * (1.0 - u):
            return f"survival(quantile(u)) = {s!r}, 1 - u = {1.0 - u!r}"
    elif kind == "solve_bn":
        target = max(1e-13, abs(out.log_n) * 5e-15)  # the solver's own target
        if not (out.b_n > 0.0 and abs(out.residual) <= target):
            return f"b_n={out.b_n!r} residual={out.residual!r} target={target}"
    elif kind == "theorem_expansion":
        values = (out.leading, out.first_order, out.second_order,
                  out.scale_first, out.scale_second)
        if not all(math.isfinite(val) for val in values):
            return f"non-finite expansion {values}"
    elif not 0.0 <= out <= 1.0:
        return f"probability {out!r} outside [0, 1]"
    return ""


WORKLOADS = {
    "sweep-logn": SweepWorkload("sweep-logn", dict(
        v_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        p_list=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        r_list=(1, 2, 3),
        log_n_ladder=tuple(e * math.log(10.0) for e in (6, 9, 12, 20, 50, 100, 300)),
        fmt="json", **_X_GRID)),
    "sweep-exactn": SweepWorkload("sweep-exactn", dict(
        v_list=(0.5, 1.0, 2.0, 4.0),
        p_list=(1.0, 2.0),
        r_list=(1, 2, 5, 10, 20),
        n_ladder=(10**3, 10**4, 10**6, 10**8, 10**10, 10**12, 10**15),
        theorem="1", fmt="csv", **_X_GRID)),
    "mc-check": SweepWorkload("mc-check", dict(
        v_list=(0.5, 1.0, 2.0),
        p_list=(1.0,),
        r_list=(1, 2, 3),
        n_ladder=(100, 1000),
        x_min=-0.5, x_max=2.0, x_step=0.5,
        mc_reps=2000, fmt="csv")),
    "point-queries": QueryWorkload(),
}
