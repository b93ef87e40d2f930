"""Exact and Monte Carlo finite-sample distributions of the powered r-th
largest order statistic |M_{n,r}|^p under GED(v).

Everything here is assembled in log space: the binomial upper-tail sum,
the lower-tail (two-sided) correction the limit theory neglects, and a
difference engine that evaluates P - Lambda_r directly so that sweeps can
resolve second-order terms hundreds of times below the subtraction noise
floor of the two probabilities.
"""

import math
import os
from dataclasses import dataclass

from .expansions import _rank_weights, gumbel_r
from .ged import GedParams, log_survival, survival
from .norming import resolve_log_n
from .specfun import exp_or_inf, inv_reg_gamma_upper, pow_or_inf

__all__ = [
    "OrderStatSpec",
    "BudgetError",
    "exact_powered_cdf",
    "poisson_powered_cdf",
    "lower_tail_mass",
    "cdf_gap_from_deficit",
    "poisson_remainder_bound",
    "mc_tables",
    "mc_score",
    "mc_powered_cdf",
]

_MC_DEFAULT_BUDGET = 200_000_000
_MC_CHUNK_DRAWS = 1 << 22


class BudgetError(RuntimeError):
    """A Monte Carlo request has n * reps above the budget."""


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


def cdf_gap_from_deficit(r: int, x: float, deficit: float, *,
                         n: float | None = None,
                         log_n: float | None = None) -> float:
    """P(|M_{n,r}|^p <= z^p) - Lambda_r(x), evaluated without cancellation.

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
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not deficit < 1.0:
        raise ValueError(f"deficit must be < 1, got {deficit}")
    if (n is None) == (log_n is None):
        raise ValueError("pass exactly one of n and log_n")
    if n is not None and not r <= n:
        raise ValueError(f"need r <= n, got r={r}, n={n:g}")
    lams = _rank_weights(r, x)
    emx = exp_or_inf(-x)
    s = emx * (1.0 - deficit) / n if n is not None else 0.0
    if not s < 1.0:
        raise ValueError(f"need s = e^(-x)(1 - deficit)/n < 1, got s={s:g}")
    gap = 0.0
    try:
        if n is not None:
            phi = _log1p_plus(s)
            log_prod = 0.0  # sum_{i<j} log(1 - i/n)
            for j, lam_j in enumerate(lams):
                a_j = (log_prod + j * math.log1p(-deficit) + (n - j) * phi
                       + j * s + emx * deficit)
                gap += lam_j * math.expm1(a_j)
                log_prod += math.log1p(-j / n)
            return gap - lower_tail_mass(n, r, s)
        if emx < math.inf:
            for j, lam_j in enumerate(lams):
                gap += lam_j * math.expm1(j * math.log1p(-deficit) + emx * deficit)
            return gap
    except OverflowError:
        if n is not None:
            return _upper_sum(n, r, s) - lower_tail_mass(n, r, s) - gumbel_r(r, x)
    return gumbel_r(r, x - math.log1p(-deficit)) - gumbel_r(r, x)


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


def _tail_threshold(a: float, n: int, r_max: int) -> tuple[float, float]:
    """The threshold c on Y ~ Gamma(a) above which a table of width r_max
    draws each sample's positive values, and q = Q(a, c), the chance that
    one lies above it; (0, 1) where every positive value is drawn.

    c leaves r_max + 3 sqrt(r_max) + 8 positive values above it on average,
    so few rows hold fewer than r_max (about 1e-5 of them at r_max = 3).
    It is kept only where q < 1/2 and the proposals of :func:`_gamma_above`
    are accepted more often than q, that is where they cost fewer draws
    than the K values of the whole law.
    """
    q = 2.0 * (r_max + 3.0 * math.sqrt(r_max) + 8.0) / n
    if q < 0.5:
        c = inv_reg_gamma_upper(a, q)
        rho = 1.0 - max(a - 1.0, 0.0) / c
        # log of the acceptance rate rho Gamma(a) q e^c c^(1-a), less log q
        if rho > 0.0 and math.log(rho) + math.lgamma(a) + c + (1.0 - a) * math.log(c) > 0.0:
            return c, q
    return 0.0, 1.0


def _gamma_above(rng: "np.random.Generator", a: float, c: float,
                 count: int) -> "np.ndarray":
    """``count`` draws of Y ~ Gamma(a) given Y > c > 0, by rejection from
    c + W with W ~ Exp(rho), rho = 1 - max(a - 1, 0) / c.

    A proposal is kept with log-probability (a - 1) log1p(W/c) - (1 - rho) W,
    the log of the target over the proposal relative to its value at W = 0,
    which is <= 0 for every a > 0 and is 0 at a = 1.  Each round proposes
    as many values as are still missing.
    """
    import numpy as np

    rho = 1.0 - max(a - 1.0, 0.0) / c
    ys = np.empty(0)
    while ys.size < count:
        w = rng.standard_exponential(count - ys.size)
        w /= rho
        if a != 1.0:
            log_keep = np.log1p(w / c)
            log_keep *= a - 1.0
            log_keep -= (1.0 - rho) * w
            w = w[rng.standard_exponential(w.size) >= -log_keep]
        ys = np.concatenate((ys, w))
    ys += c
    return ys


def _top_table(params: GedParams, n: int, r_max: int, reps: int, seed: int,
               threshold: tuple[float, float]) -> "np.ndarray":
    """One table of :func:`mc_tables`, for a checked job and the
    :func:`_tail_threshold` (c, q) of its shape, n and r_max.

    Draws are Y ~ Gamma(1/v), which grow with |X| = lambda (2Y)^(1/v); the
    r_max largest of a row are selected among them and only those are
    mapped to |X|.
    """
    import numpy as np

    a = 1.0 / params.v
    c, q = threshold
    per_chunk = max(1, _MC_CHUNK_DRAWS // n)
    top = np.empty((reps, r_max))
    for idx, start in enumerate(range(0, reps, per_chunk)):
        size = min(per_chunk, reps - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        # (N, K - N, n - K) is multinomial with chances (q/2, (1 - q)/2, 1/2)
        above = rng.binomial(n, q / 2.0, size)
        total = int(above.sum())
        ys = _gamma_above(rng, a, c, total) if c > 0.0 else rng.standard_gamma(a, total)
        # row i holds its N values first; the -1 after them sorts below every draw
        width = max(int(above.max()), r_max)
        padded = np.full((size, width), -1.0)
        padded[np.arange(width) < above[:, None]] = ys
        # only rows with N < r_max need K, and their largest values below c
        k = above.copy()
        if c > 0.0:
            short = np.flatnonzero(above < r_max)
            k[short] += rng.binomial(n - above[short], (1.0 - q) / (2.0 - q))
            for i in short[k[short] > above[short]]:
                below = rng.standard_gamma(a, k[i] - above[i])
                high = np.flatnonzero(below > c)
                while high.size:  # Y given Y <= c: a draw above c is drawn again
                    below[high] = rng.standard_gamma(a, high.size)
                    high = high[below[high] > c]
                fill = min(r_max - above[i], below.size)
                below.partition(below.size - fill)
                padded[i, above[i]:above[i] + fill] = below[below.size - fill:]
        padded.partition(width - r_max, axis=1)
        mags = top[start:start + size]
        mags[:] = np.sort(padded[:, width - r_max:], axis=1)[:, ::-1]
        # rows with K < r_max: the smallest negative magnitudes, ascending
        negative = np.arange(r_max) >= k[:, None]
        short_k = k[negative[:, -1], None]
        neg = rng.standard_gamma(a, (short_k.size, n))
        np.copyto(neg, np.inf, where=np.arange(n) >= n - short_k)
        neg.sort(axis=1)
        mags[negative] = neg[np.arange(n) < r_max - short_k]
        mags *= 2.0
        mags **= 1.0 / params.v
        mags *= params.lam
        np.negative(mags, out=mags, where=negative)
    return top


def mc_tables(jobs: list) -> "list[np.ndarray | None]":
    """For each ``(params, n, r_max, reps, seed)`` job, the signed r_max
    largest of each of ``reps`` GED(v) samples of size n; a job over the
    budget (n * reps above 2e8) gets ``None``.

    A table is a (reps, r_max) array, largest first: column r - 1 holds
    M_{n,r}.  A variate is +-|X| with a fair sign and |X| = lambda (2Y)^(1/v)
    with Y ~ Gamma(1/v).  Each table has a threshold c, and q = Q(1/v, c) is
    the chance that Y > c.  A row draws its count N ~ Binomial(n, q/2) of
    positive values with Y > c, then those N values of Y given Y > c.  A row
    with N < r_max also draws its count of positives K, and its K - N values
    below c; a row with K < r_max then draws its n - K negative magnitudes.
    Where a threshold would not save draws, c = 0 and N = K.  Each chunk of
    about 2^22 / n rows has its own generator seeded by (seed, chunk index).

    Every job is checked before any is drawn.  The tables come from one
    worker thread per available core (a one-worker pool for one job),
    largest job first, and are returned in job order.  An exception in a
    worker is raised here, and no worker outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor

    live = []
    for i, (_, n, r_max, reps, _) in enumerate(jobs):
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        if not 1 <= r_max <= n:
            raise ValueError(f"need 1 <= r_max <= n, got r_max={r_max}, n={n}")
        if n * reps <= _MC_DEFAULT_BUDGET:
            live.append(i)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    live.sort(key=lambda i: jobs[i][1] * jobs[i][3], reverse=True)
    # the pool pays: on 2 cores the six mc-check tables take a median 12-13 ms
    # through it and 14-16 ms drawn serially, and rows_per_s 6,347 -> 5,065
    with ThreadPoolExecutor(max(1, min(len(live), cores))) as pool:
        futures = {}
        for i in live:  # each threshold here, so workers call no public function
            params, n, r_max, _, _ = jobs[i]
            threshold = _tail_threshold(1.0 / params.v, n, r_max)
            futures[i] = pool.submit(_top_table, *jobs[i], threshold)
        return [futures[i].result() if i in futures else None for i in range(len(jobs))]


def mc_score(top: "np.ndarray", r: int, p: float, y: float) -> tuple[float, float]:
    """Estimate of P(|M_{n,r}|^p <= y) from a table of :func:`mc_tables`,
    with its binomial stderr.

    |M|^p <= y holds exactly when |M| <= y^(1/p), so one table serves every
    rank up to its width, every power and every threshold.
    """
    import numpy as np

    if math.isnan(y):
        raise ValueError("threshold y must not be nan")
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    reps, width = top.shape
    if not 1 <= r <= width:
        raise ValueError(f"need 1 <= r <= {width}, the table width, got r={r}")
    t = pow_or_inf(y, 1.0 / p) if y >= 0.0 else -1.0
    est = int(np.count_nonzero(np.abs(top[:, r - 1]) <= t)) / reps
    stderr = math.sqrt(est * (1.0 - est) / reps)
    return est, stderr


def mc_powered_cdf(params: GedParams, spec: OrderStatSpec, y: float,
                   reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(|M_{n,r}|^p <= y) with its binomial stderr,
    drawn from a table of the top r order statistics."""
    [top] = mc_tables([(params, spec.n, spec.r, reps, seed)])
    if top is None:
        raise BudgetError(f"n * reps = {spec.n * reps} exceeds the draw "
                          f"budget {_MC_DEFAULT_BUDGET}")
    return mc_score(top, spec.r, spec.p, y)
