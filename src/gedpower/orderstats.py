"""Exact and Monte Carlo finite-sample distributions of the powered r-th
largest order statistic |M_{n,r}|^p under GED(v).

Everything here is assembled in log space: the binomial upper-tail sum,
the lower-tail (two-sided) correction the limit theory neglects, and a
difference engine that evaluates P - Lambda_r directly so that sweeps can
resolve second-order terms hundreds of times below the subtraction noise
floor of the two probabilities.
"""

import math
from dataclasses import dataclass

from .expansions import _check_ranks, _x_terms, _XTerms, gumbel_r
from .ged import GedParams, log_survival, survival
from .norming import resolve_log_n
from .specfun import exp_or_inf, pow_or_inf

__all__ = [
    "OrderStatSpec",
    "BudgetError",
    "exact_powered_cdf",
    "poisson_powered_cdf",
    "lower_tail_mass",
    "cdf_gaps_from_deficit",
    "poisson_remainder_bound",
    "mc_table",
    "mc_score",
    "mc_powered_cdf",
]

_MC_DEFAULT_BUDGET = 200_000_000


class BudgetError(RuntimeError):
    """A Monte Carlo request draws reps * r values, above the budget."""


@dataclass(frozen=True)
class OrderStatSpec:
    """Sample size n, rank from the top r, and power index p."""

    n: int
    r: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")


def _binom_head(n: float, r: int, log_a: float, log_b: float) -> float:
    """sum_{j<r} C(n,j) a^j b^(n-j), each addend built in log space.

    log C(n, j) is the compensated sum of log((n - i) / (i + 1)) over i < j;
    each of those logs is taken once.
    """
    total = 0.0
    log_ratios: list[float] = []
    for j in range(r):
        total += math.exp(math.fsum(log_ratios) + j * log_a + (n - j) * log_b)
        if j + 1 < r:
            log_ratios.append(math.log((n - j) / (j + 1.0)))
    return total


def _upper_sum(n: float, r: int, s: float) -> float:
    """P(M_{n,r} <= t) = sum_{j<r} C(n,j) s^j (1-s)^(n-j) with s = survival(t) <= 1/2."""
    if s <= 0.0:
        return 1.0
    return min(_binom_head(n, r, math.log(s), math.log1p(-s)), 1.0)


def _log_lower_tail_bound(r: int, n: float, log_n: float, log_s: float) -> float:
    """log of r n^(r-1) s^(n-r+1), which bounds sum_{j<r} C(n,j) (1-s)^j s^(n-j)
    for n >= r; at s = 1 the power is 1 even where n is inf."""
    return math.log(r) + (r - 1) * log_n + ((n - (r - 1)) * log_s if log_s else 0.0)


def lower_tail_mass(n: float, r: int, s: float) -> float:
    """P(M_{n,r} < -t) = sum_{j<r} C(n,j) (1-s)^j s^(n-j) with s = survival(t).

    This is the mass the one-sided theory drops; it decays like n^(r-1) s^n
    and underflows to zero long before it could matter in any sweep.  Where
    its bound is below e^(-746), every addend underflows to 0.0, so the sum
    is 0.0 without the loop.
    """
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    log_s = math.log(s)
    if _log_lower_tail_bound(r, n, math.log(n), log_s) < -746.0:
        return 0.0
    return _binom_head(n, r, math.log1p(-s), log_s)


def exact_powered_cdf(params: GedParams, spec: OrderStatSpec, y: float) -> float:
    """P(|M_{n,r}|^p <= y), exactly two-sided.

    Equals P(M_{n,r} <= t) - P(M_{n,r} < -t) at t = y^(1/p), so it carries
    the lower-tail mass the asymptotic theory neglects.
    """
    if y < 0.0:
        return 0.0
    t = pow_or_inf(y, 1.0 / spec.p)
    s = survival(params, t)
    n = float(spec.n)
    return max(0.0, _upper_sum(n, spec.r, s) - lower_tail_mass(n, spec.r, s))


def poisson_powered_cdf(params: GedParams, r: int, p: float, y: float,
                        log_n: float) -> float:
    """log-n-mode counterpart of :func:`exact_powered_cdf`.

    For sample sizes given only through log n the binomial sum collapses to
    its Poisson limit sum_{j<r} e^(-mu) mu^j / j! with mu = n survival(t),
    which is Lambda_r at x = -log mu; the two-sided correction is zero at
    this scale.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    log_n = resolve_log_n(None, log_n, min_n=1.0)
    if y < 0.0:
        return 0.0
    log_mu = log_n + log_survival(params, pow_or_inf(y, 1.0 / p))
    return gumbel_r(r, -log_mu)


def _log1p_plus(s: float) -> float:
    """phi(s) = log(1 - s) + s, fully accurate for small s.

    Direct evaluation cancels catastrophically for s -> 0; the series
    -s^2/2 - s^3/3 - ... takes over below 1e-4.
    """
    if s < 1e-4:
        total = 0.0
        power = s * s
        k = 2
        while True:
            term = power / k
            total -= term
            if term < 1e-18 * abs(total) or k > 40:
                return total
            power *= s
            k += 1
    return math.log1p(-s) + s


def cdf_gaps_from_deficit(ranks, x: float, deficit: float, *, n: float | None = None,
                          log_n: float | None = None) -> list[float]:
    """P(|M_{n,r}|^p <= z^p) - Lambda_r(x) at the strictly increasing ``ranks``,
    without cancellation.

    ``deficit`` is 1 - theta with theta = n e^x survival(z) at the normed
    point z.  Writing s = e^(-x)(1 - deficit)/n, every binomial addend
    t_j = C(n,j) s^j (1-s)^(n-j) satisfies

        t_j / lambda_j = exp(A_j),
        A_j = sum_{i<j} log(1 - i/n) + j log(1 - deficit)
              + (n - j) phi(s) + j s + e^(-x) deficit,

    with lambda_j = Lambda(x) e^(-jx)/j! and phi(s) = log(1-s) + s, so the
    gap is sum lambda_j expm1(A_j) minus the exact lower-tail mass.  Every
    contribution is evaluated at its own scale: the result keeps full
    relative accuracy even when it is ~1e-17.

    With ``log_n`` instead of ``n`` the Poisson-limit form is used and the
    lower-tail term is zero.  In exact-n mode s must be below 1.  Where A_j
    or e^(-x) overflows, Lambda_r(x) < 1e-130, so P - Lambda_r(x) is taken.
    Each rank's sum is a prefix of one running sum to the largest rank.
    """
    _check_ranks(ranks)
    _check_gap_args(ranks, deficit, n)  # before the record, whose size is ranks[-1]
    if math.isnan(x):
        raise ValueError("x must not be nan")
    if (n is None) == (log_n is None):
        raise ValueError("pass exactly one of n and log_n")
    return _gaps_from_deficit(_x_terms(ranks, x), deficit, n)


def _check_gap_args(ranks, deficit: float, n: float | None) -> None:
    """The deficit and r <= n checks of :func:`cdf_gaps_from_deficit`."""
    if not deficit < 1.0:
        raise ValueError(f"deficit must be < 1, got {deficit}")
    if not deficit > -math.inf:
        raise ValueError(f"deficit must be > -inf, got {deficit}")
    if n is not None and not ranks[-1] <= n:
        raise ValueError(f"need r <= n, got r={ranks[-1]}, n={n:g}")


def _gaps_from_deficit(terms: _XTerms, deficit: float, n: float | None) -> list[float]:
    """:func:`cdf_gaps_from_deficit` on :func:`_x_terms`; n is None in log-n mode."""
    ranks, x, emx, lams = terms.ranks, terms.x, terms.emx, terms.weights
    _check_gap_args(ranks, deficit, n)
    s = emx * (1.0 - deficit) / n if n is not None else 0.0
    if not s < 1.0:
        raise ValueError(f"need s = e^(-x)(1 - deficit)/n < 1, got s={s:g}")
    gap, gaps = 0.0, []
    try:
        if n is not None:
            phi = _log1p_plus(s)
            log_prod = 0.0  # sum_{i<j} log(1 - i/n)
            for j, lam_j in enumerate(lams):
                a_j = (log_prod + j * math.log1p(-deficit) + (n - j) * phi
                       + j * s + emx * deficit)
                gap += lam_j * math.expm1(a_j)
                if j + 1 in ranks:
                    gaps.append(gap - lower_tail_mass(n, j + 1, s))
                log_prod += math.log1p(-j / n)
            return gaps
        if emx < math.inf:
            for j, lam_j in enumerate(lams):
                gap += lam_j * math.expm1(j * math.log1p(-deficit) + emx * deficit)
                if j + 1 in ranks:
                    gaps.append(gap)
            return gaps
    except OverflowError:  # the ranks past the addend that overflowed
        if n is not None:
            return gaps + [_upper_sum(n, r, s) - lower_tail_mass(n, r, s) - limit
                           for r, limit in zip(ranks[len(gaps):], terms.limits[len(gaps):])]
    return gaps + [gumbel_r(r, x - math.log1p(-deficit)) - limit
                   for r, limit in zip(ranks[len(gaps):], terms.limits[len(gaps):])]


def poisson_remainder_bound(r: int, x: float, deficit: float,
                            log_n: float) -> float:
    """Bound on what the Poisson-limit gap dropped relative to the binomial.

    Le Cam gives total variation <= 2 n s^2 = 2 e^(-2x)(1-deficit)^2 / n for
    the Binomial(n, s) vs Poisson(ns) substitution; the neglected two-sided
    mass is bounded by r n^(r-1) s^(n-r+1).  A term past the double range
    is inf, and one below it 0.0.
    """
    log_le_cam = -2.0 * x + 2.0 * math.log1p(-deficit) - log_n
    log_s = -x + math.log1p(-deficit) - log_n
    log_two_sided = _log_lower_tail_bound(r, exp_or_inf(log_n), log_n, log_s)
    return 2.0 * exp_or_inf(log_le_cam) + exp_or_inf(log_two_sided)


def mc_table(n: int, r_max: int, reps: int, seed: int) -> "np.ndarray | None":
    """The r_max smallest of n Exp(1) values in each of ``reps`` replications,
    or ``None`` where that would draw reps * r_max > 2e8 values.

    The table is a (reps, r_max) column-major array of Y = -log(1 - U), where
    U = survival(X) is a tail probability, so it does not depend on the law:
    the r-th largest X of a sample has the r-th smallest Y, and column r - 1
    stands for M_{n,r}.  A replication is Y_(k) = sum_{i<=k} E_i/(n - i + 1)
    over r_max Exp(1) draws E_i (Renyi), formed with + and / alone, so its
    bits do not depend on the CPU's libm.  A table narrower than its reps adds
    row by row; a wider one takes one ``cumsum``, whose loop per replication
    costs more on a narrow table.  Both give the same bits.
    Each column is then sorted: no count changes and rows stay ascending, but
    a row is one replication only at reps = 1.  The generator is seeded by
    ``SeedSequence(seed)``.
    """
    import numpy as np

    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 1 <= r_max <= n:
        raise ValueError(f"need 1 <= r_max <= n, got r_max={r_max}, n={n}")
    if reps * r_max > _MC_DEFAULT_BUDGET:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ys = rng.standard_exponential((r_max, reps))  # E_i in row i - 1
    ys /= (n - np.arange(r_max, dtype=float))[:, None]
    if r_max < reps:
        for k in range(1, r_max):
            ys[k] += ys[k - 1]
    else:
        np.cumsum(ys, axis=0, out=ys)
    ys.T.sort(axis=0)
    return ys.T  # column-major


def mc_score(table: "np.ndarray", r: int, s):
    """Estimate of P(|M_{n,r}| <= t) from a table of :func:`mc_table`, with
    its binomial stderr, where s = survival(t) for a t >= 0 (a list of
    pairs for a sequence of s).

    |M_{n,r}| <= t holds exactly when s <= U_(r) <= 1 - s, that is when
    -log(1 - s) <= Y_(r) <= -log s, counted by bisection on the sorted
    column r - 1; so one table serves every rank up to its width, every
    shape, power and threshold.  s = 0 counts every row and s = 1 none.
    """
    import numpy as np

    reps, width = table.shape
    if not 1 <= r <= width:
        raise ValueError(f"need 1 <= r <= {width}, the table width, got r={r}")
    ss = np.asarray(s, dtype=float)
    values = ss.ravel().tolist()
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    lo = [-math.log1p(-v) if v < 1.0 else math.inf for v in values]
    hi = [-math.log(v) if v else math.inf for v in values]
    column = table[:, r - 1]
    counts = column.searchsorted(hi, "right") - column.searchsorted(lo)
    scores = [(est, math.sqrt(est * (1.0 - est) / reps))
              for est in (max(k, 0) / reps for k in counts.tolist())]
    return scores if ss.ndim else scores[0]


def mc_powered_cdf(params: GedParams, spec: OrderStatSpec, y: float,
                   reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(|M_{n,r}|^p <= y) with its binomial stderr,
    drawn from a table of the r smallest of n exponentials."""
    if math.isnan(y):
        raise ValueError("threshold y must not be nan")
    table = mc_table(spec.n, spec.r, reps, seed)
    if table is None:
        raise BudgetError(f"reps * r = {reps * spec.r} exceeds {_MC_DEFAULT_BUDGET}")
    if y < 0.0:
        return 0.0, 0.0
    return mc_score(table, spec.r, survival(params, pow_or_inf(y, 1.0 / spec.p)))
