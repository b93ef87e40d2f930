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

import numpy as np

from .expansions import _rank_weights, gumbel_r
from .ged import GedParams, _abs_from_gamma, log_survival, survival
from .norming import resolve_log_n

__all__ = [
    "OrderStatSpec",
    "BudgetError",
    "exact_powered_cdf",
    "poisson_powered_cdf",
    "lower_tail_mass",
    "cdf_gap_from_deficit",
    "poisson_remainder_bound",
    "mc_top_order_stats",
    "mc_score",
    "mc_powered_cdf",
]

_MC_DEFAULT_BUDGET = 200_000_000
_MC_CHUNK_DRAWS = 1 << 22


class BudgetError(RuntimeError):
    """A Monte Carlo request needs more n * reps draws than the budget allows."""


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


def lower_tail_mass(n: float, r: int, s: float) -> float:
    """P(M_{n,r} < -t) = sum_{j<r} C(n,j) (1-s)^j s^(n-j) with s = survival(t).

    This is the mass the one-sided theory drops; it decays like n^(r-1) s^n
    and underflows to zero long before it could matter in any sweep.
    """
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return _binom_head(n, r, math.log1p(-s), math.log(s))


def exact_powered_cdf(params: GedParams, spec: OrderStatSpec, y: float) -> float:
    """P(|M_{n,r}|^p <= y), exactly two-sided.

    Equals P(M_{n,r} <= t) - P(M_{n,r} < -t) at t = y^(1/p), so it carries
    the lower-tail mass the asymptotic theory neglects.
    """
    if y < 0.0:
        return 0.0
    t = y ** (1.0 / spec.p)
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
    log_mu = log_n + log_survival(params, y ** (1.0 / p))
    if log_mu > 700.0:  # gumbel_r would overflow in exp(-x)
        return 0.0
    return min(gumbel_r(r, -log_mu), 1.0)


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
    lower-tail term is zero.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not deficit < 1.0:
        raise ValueError(f"deficit must be < 1, got {deficit}")
    if (n is None) == (log_n is None):
        raise ValueError("pass exactly one of n and log_n")
    if n is not None and not r <= n:
        raise ValueError(f"need r <= n, got r={r}, n={n:g}")
    emx = math.exp(-x)
    lams = _rank_weights(r, x)
    gap = 0.0
    if n is not None:
        s = emx * (1.0 - deficit) / n
        phi = _log1p_plus(s)
        log_prod = 0.0  # sum_{i<j} log(1 - i/n)
        for j, lam_j in enumerate(lams):
            a_j = (log_prod + j * math.log1p(-deficit) + (n - j) * phi
                   + j * s + emx * deficit)
            gap += lam_j * math.expm1(a_j)
            log_prod += math.log1p(-j / n)
        gap -= lower_tail_mass(n, r, s)
    else:
        for j, lam_j in enumerate(lams):
            gap += lam_j * math.expm1(j * math.log1p(-deficit) + emx * deficit)
    return gap


def poisson_remainder_bound(r: int, x: float, deficit: float,
                            log_n: float) -> float:
    """Bound on what the Poisson-limit gap dropped relative to the binomial.

    Le Cam gives total variation <= 2 n s^2 = 2 e^(-2x)(1-deficit)^2 / n for
    the Binomial(n, s) vs Poisson(ns) substitution; the neglected two-sided
    mass is bounded by r n^(r-1) s^(n-r+1), included when representable.
    """
    le_cam = 2.0 * math.exp(-2.0 * x + 2.0 * math.log1p(-deficit) - log_n)
    log_s = -x + math.log1p(-deficit) - log_n
    n_minus = math.exp(log_n) - (r - 1) if log_n < 700 else math.inf
    log_two_sided = math.log(r) + (r - 1) * log_n + n_minus * log_s
    two_sided = math.exp(log_two_sided) if log_two_sided > -745.0 else 0.0
    return le_cam + two_sided


def mc_top_order_stats(params: GedParams, n: int, r_max: int, reps: int,
                       seed: int) -> np.ndarray:
    """The signed r_max largest of each of ``reps`` GED(v) samples of size n.

    Returns a (reps, r_max) array, largest first: column r - 1 holds M_{n,r}.
    A variate is +-|X| with a fair sign, so a row draws its count of
    positives K ~ Binomial(n, 1/2), then only what can reach its top: K
    positive magnitudes and, if K < r_max, n - K negative ones.  Selection
    runs on the raw Y ~ Gamma(1/v, 1), as |X| = lambda (2 Y)^(1/v) grows
    with Y, and only the selected values are transformed.  Each chunk of
    about 2^22 / n rows has its own generator seeded by (seed, chunk index).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 1 <= r_max <= n:
        raise ValueError(f"need 1 <= r_max <= n, got r_max={r_max}, n={n}")
    if n * reps > _MC_DEFAULT_BUDGET:
        raise BudgetError(f"n * reps = {n * reps} exceeds the draw "
                          f"budget {_MC_DEFAULT_BUDGET}")
    per_chunk = max(1, _MC_CHUNK_DRAWS // n)
    top = np.empty((reps, r_max))
    for idx, start in enumerate(range(0, reps, per_chunk)):
        size = min(per_chunk, reps - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        k = rng.binomial(n, 0.5, size)[:, None]
        width = max(k.max(), r_max)
        ys = rng.standard_gamma(1.0 / params.v, size=(size, width))
        # entries past a row's K positives sort below every Y >= 0
        np.copyto(ys, -1.0, where=np.arange(width) >= k)
        ys.partition(width - r_max, axis=1)
        mags = np.sort(ys[:, width - r_max:], axis=1)[:, ::-1]
        # rows with K < r_max: the smallest negative magnitudes, ascending
        negative = np.arange(r_max) >= k
        short_k = k[negative[:, -1]]
        neg = rng.standard_gamma(1.0 / params.v, size=(short_k.size, n))
        np.copyto(neg, np.inf, where=np.arange(n) >= n - short_k)
        neg.sort(axis=1)
        mags[negative] = neg[np.arange(n) < r_max - short_k]
        _abs_from_gamma(params, mags)
        top[start:start + size] = np.where(negative, -mags, mags)
    return top


def mc_score(top: np.ndarray, r: int, p: float, y: float) -> tuple[float, float]:
    """Estimate of P(|M_{n,r}|^p <= y) from a :func:`mc_top_order_stats`
    table, with its binomial stderr.

    |M|^p <= y holds exactly when |M| <= y^(1/p), so one table serves every
    rank up to its width, every power and every threshold.
    """
    if math.isnan(y):
        raise ValueError("threshold y must not be nan")
    reps, width = top.shape
    if not 1 <= r <= width:
        raise ValueError(f"need 1 <= r <= {width}, the table width, got r={r}")
    t = y ** (1.0 / p) if y >= 0.0 else -1.0
    est = int(np.count_nonzero(np.abs(top[:, r - 1]) <= t)) / reps
    stderr = math.sqrt(est * (1.0 - est) / reps)
    return est, stderr


def mc_powered_cdf(params: GedParams, spec: OrderStatSpec, y: float,
                   reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(|M_{n,r}|^p <= y) with its binomial stderr,
    drawn from a table of the top r order statistics."""
    top = mc_top_order_stats(params, spec.n, spec.r, reps, seed)
    return mc_score(top, spec.r, spec.p, y)
