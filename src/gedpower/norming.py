"""Normalizing-constant families for powered GED order statistics.

Four affine families are provided: the classical Gumbel pair for the
un-powered maximum, its powered transform, the pair built from the
calibration root b_n (sharper rate when the power differs from the shape),
and the corrected pair that is rate-optimal when the power equals the
shape.  Sample sizes can be given as exact integers or as log n, so
asymptotic sweeps can run far beyond any representable n.
"""

import math
from dataclasses import dataclass

from .ged import EQ_TOL, GedParams
from .specfun import MAX_ITER, REL_TOL, ConvergenceError, log_gamma

__all__ = [
    "LinearNorming",
    "BnSolution",
    "resolve_log_n",
    "gumbel_constants",
    "power_constants",
    "solve_bn",
    "hall_constants",
    "optimal_constants",
]


@dataclass(frozen=True)
class LinearNorming:
    """An affine (scale, shift) pair and the log n it was built for."""

    scale: float
    shift: float
    log_n: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"norming scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class BnSolution:
    """Root of the tail-calibration equation together with its residual.

    residual = LHS(b_n)/n - 1; the solver targets |residual| <= 1e-13.
    """

    b_n: float
    residual: float
    log_n: float


def resolve_log_n(n: int | float | None, log_n: float | None, min_n: float = 2.0) -> float:
    """Accept either an exact n or log n and return log n, which must be finite."""
    if (n is None) == (log_n is None):
        raise ValueError("pass exactly one of n and log_n")
    if n is not None:
        if n < min_n:
            raise ValueError(f"sample size must be >= {min_n}, got {n}")
        log_n = math.log(n)
    elif log_n < math.log(min_n):
        raise ValueError(f"log_n must be >= log({min_n}), got {log_n}")
    if not math.isfinite(log_n):
        raise ValueError(f"log n must be finite, got {log_n}")
    return float(log_n)


def gumbel_constants(params: GedParams, n: int | float | None = None, *,
                     log_n: float | None = None) -> LinearNorming:
    """Centering/scaling of the plain maximum under GED(v).

    scale = 2^(1/v) lam / (v (log n)^(1-1/v)); the shift carries the
    log-log and log(2 Gamma(1/v)) corrections.
    """
    ln = resolve_log_n(n, log_n, min_n=3)
    v, lam = params.v, params.lam
    pref = 2.0 ** (1.0 / v) * lam
    scale = pref / (v * ln ** (1.0 - 1.0 / v))
    shift = pref * ln ** (1.0 / v) - scale * (
        (v - 1.0) / v * math.log(ln) + math.log(2.0) + log_gamma(1.0 / v)
    )
    return LinearNorming(scale=scale, shift=shift, log_n=ln)


def power_constants(params: GedParams, p: float, n: int | float | None = None, *,
                    log_n: float | None = None) -> LinearNorming:
    """Powered transform of the Gumbel pair: (p a b^(p-1), b^p)."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"power index must be positive and finite, got {p}")
    base = gumbel_constants(params, n, log_n=log_n)
    if base.shift <= 0.0:
        raise ValueError(
            f"gumbel shift {base.shift} is not positive at log_n={base.log_n}; "
            "n too small for the powered transform"
        )
    return LinearNorming(
        scale=p * base.scale * base.shift ** (p - 1.0),
        shift=base.shift ** p,
        log_n=base.log_n,
    )


def solve_bn(params: GedParams, n: int | float | None = None, *,
             log_n: float | None = None) -> BnSolution:
    """Solve the calibration equation LHS(b) = n for b > 0.

    Works on log LHS(b) = log n (the raw equation spans hundreds of orders
    of magnitude).  Newton from b_0 = (2 lam^v log n)^(1/v), safeguarded by
    a bracket that starts at [b_0/2, 2 b_0] and is grown or clipped to the
    increasing branch of the LHS when necessary.
    """
    ln = resolve_log_n(n, log_n, min_n=2)
    v, lam = params.v, params.lam
    # log LHS(b) = head + (v - 1) log b + b^v / (2 lam^v)
    head = math.log(2.0) / v + (1.0 - v) * math.log(lam) + log_gamma(1.0 / v)
    two_lam_v = 2.0 * lam**v

    def f(b: float) -> float:
        return head + (v - 1.0) * math.log(b) + b**v / two_lam_v - ln

    def fprime(b: float) -> float:
        return (v - 1.0) / b + v * b ** (v - 1.0) / two_lam_v

    b0 = (two_lam_v * ln) ** (1.0 / v)
    lo, hi = 0.5 * b0, 2.0 * b0
    if v < 1.0:
        # the log LHS decreases up to b_stat and increases after it; the
        # calibration root we want lies on the increasing branch
        b_stat = (two_lam_v * (1.0 - v) / v) ** (1.0 / v)
        lo = max(lo, b_stat * (1.0 + 1e-9))
    trace: list[tuple[float, float]] = []
    for _ in range(MAX_ITER):
        if f(hi) >= 0.0:
            if hi > lo:
                break
            # small v and log n put b_0 below b_stat, on the decreasing
            # branch; restart hi on the increasing branch
            hi = lo
        hi *= 2.0
    for _ in range(MAX_ITER):
        if f(lo) <= 0.0:
            break
        if v < 1.0 and lo <= b_stat * (1.0 + 1e-8):
            raise ConvergenceError(
                f"no calibration root on the increasing branch for v={v}, "
                f"log_n={ln}; trace={trace}"
            )
        lo = 0.5 * lo if v >= 1.0 else 0.5 * (lo + b_stat)

    # the log LHS is ~log n near the root, so its double-precision
    # evaluation noise scales with log n; the residual target does too
    f_tol = max(1e-13, abs(ln) * 5e-15)
    b, b_prev = min(max(b0, lo), hi), math.nan
    for _ in range(MAX_ITER):
        fb = f(b)
        trace.append((b, fb))
        if fb > 0.0:
            hi = min(hi, b)
        else:
            lo = max(lo, b)
        step = -fb / fprime(b)
        b_new = b + step
        if not lo <= b_new <= hi:
            b_new = 0.5 * (lo + hi)
        if abs(fb) < f_tol and abs(b_new - b) <= REL_TOL * abs(b_new):
            b = b_new
            break
        if abs(fb) < f_tol and b_new == b_prev:
            # two iterates alternate at the rounding noise of f, which for
            # small v resolves b only to ~1e-13 relative
            break
        b_prev, b = b, b_new
    else:
        raise ConvergenceError(
            f"calibration solve did not converge for v={v}, log_n={ln}; "
            f"iterates: {trace[-8:]}"
        )
    return BnSolution(b_n=b, residual=math.expm1(f(b)), log_n=ln)


def hall_constants(params: GedParams, p: float, n: int | float | None = None, *,
                   log_n: float | None = None) -> LinearNorming:
    """Norming built on the calibration root: (2 p lam^v b^(p-v) / v, b^p)."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"power index must be positive and finite, got {p}")
    sol = solve_bn(params, n, log_n=log_n)
    v, lam = params.v, params.lam
    b = sol.b_n
    return LinearNorming(
        scale=2.0 * p / v * lam**v * b ** (p - v),
        shift=b**p,
        log_n=sol.log_n,
    )


def optimal_constants(params: GedParams, n: int | float | None = None, *,
                      log_n: float | None = None) -> LinearNorming:
    """Rate-optimal norming for the power-equals-shape case.

    Hall's pair at p = v, (2 lam^v, b^v), with the correction
    4 (1/v - 1) lam^(2v) b^(-v) added to both scale and shift, so both tend
    to the plain pair.  The v = 1 case is rejected: there the correction
    vanishes identically and the powered family already covers it.
    """
    v, lam = params.v, params.lam
    if abs(v - 1.0) <= EQ_TOL:
        raise ValueError(
            "optimal constants are undefined at v = 1; use power_constants"
        )
    hall = hall_constants(params, v, n, log_n=log_n)
    corr = 4.0 * (1.0 / v - 1.0) * lam ** (2.0 * v) / hall.shift
    return LinearNorming(hall.scale + corr, hall.shift + corr, hall.log_n)
