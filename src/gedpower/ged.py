"""The general error distribution GED(v): density, distribution, tails,
quantiles, and the closed-form tail expansions used by the higher-order
limit theory."""

import math
import sys
from dataclasses import dataclass

from .specfun import (
    inv_reg_gamma_upper,
    log_gamma,
    log_reg_gamma_upper,
    pow_or_inf,
    reg_gamma_upper,
)

__all__ = [
    "EQ_TOL",
    "GedParams",
    "make_params",
    "pdf",
    "cdf",
    "survival",
    "log_survival",
    "quantile",
    "tail_expansion_coefficients",
    "tail_survival_expansion",
]

EQ_TOL = 1e-12  # tie tolerance for v = 1 and p = v routing
# beyond this shape cdf loses digits: (x/lambda)^v / 2 underflows while x/lambda counts
_MAX_SHAPE = 20.0
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class GedParams:
    """Shape v and the derived scale lambda of one GED(v) law.

    lambda(v) = sqrt(2^(-2/v) Gamma(1/v) / Gamma(3/v)) normalizes the
    variance to one; v = 2 is the standard normal law (lambda = 1) and
    v = 1 the Laplace law (lambda = 2^(-3/2)).
    """

    v: float
    lam: float


def make_params(v: float) -> GedParams:
    """Build GedParams from 0.008603013 <= v <= 20; below it lambda is not a normal double."""
    if not 0.0 < v <= _MAX_SHAPE:
        raise ValueError(f"shape parameter v must be in (0, {_MAX_SHAPE:g}], got {v}")
    lam = math.exp(0.5 * (-2.0 / v * _LOG2 + log_gamma(1.0 / v) - log_gamma(3.0 / v)))
    if not (math.isfinite(lam) and lam >= sys.float_info.min):
        raise ValueError(f"scale lambda = {lam} of shape v = {v} is outside "
                         "the normal double range")
    return GedParams(v=v, lam=lam)


def _log_norm_const(params: GedParams) -> float:
    """log of the density normalization v / (lambda 2^(1+1/v) Gamma(1/v))."""
    v = params.v
    return (math.log(v) - math.log(params.lam) - (1.0 + 1.0 / v) * _LOG2
            - log_gamma(1.0 / v))


def _half_power(params: GedParams, x: float) -> float:
    """(|x|/lambda)^v / 2; inf where it overflows a double."""
    return pow_or_inf(abs(x / params.lam), params.v) / 2.0


def pdf(params: GedParams, x: float) -> float:
    """Density g_v(x) = v exp(-|x/lambda|^v / 2) / (lambda 2^(1+1/v) Gamma(1/v))."""
    return math.exp(_log_norm_const(params) - _half_power(params, x))


def survival(params: GedParams, x: float) -> float:
    """Upper tail 1 - G_v(x) with full relative accuracy for x >= 0.

    For x >= 0 this is Q(1/v, (x/lambda)^v / 2) / 2 with Q the regularized
    upper incomplete gamma, evaluated directly rather than as 1 - cdf.
    """
    if x < 0.0:
        return 1.0 - survival(params, -x)
    return 0.5 * reg_gamma_upper(1.0 / params.v, _half_power(params, x))


def log_survival(params: GedParams, x: float) -> float:
    """log(1 - G_v(x)) for x >= 0; finite even where the tail underflows."""
    if x < 0.0:
        raise ValueError("log_survival is defined for x >= 0")
    return log_reg_gamma_upper(1.0 / params.v, _half_power(params, x)) - _LOG2


def cdf(params: GedParams, x: float) -> float:
    """Distribution function G_v(x); symmetric about G_v(0) = 1/2."""
    if x < 0.0:
        return survival(params, -x)
    return 1.0 - survival(params, x)


def quantile(params: GedParams, u: float) -> float:
    """Inverse of cdf on (0, 1), odd around u = 1/2; inverts the smaller tail as given."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be in (0, 1), got {u}")
    if u == 0.5:
        return 0.0
    # survival(|x|) = t = min(u, 1 - u)  =>  Q(1/v, (|x|/lam)^v / 2) = 2 t
    y = inv_reg_gamma_upper(1.0 / params.v, 2.0 * min(u, 1.0 - u))
    return math.copysign(params.lam * (2.0 * y) ** (1.0 / params.v), u - 0.5)


def tail_expansion_coefficients(params: GedParams, order: int) -> tuple[float, ...]:
    """Coefficients c_k of 1 - G_v(x) ~ (2 lam^v / v) {1 + sum c_k x^(-kv)} x^(1-v) g_v(x).

    c_1 = 2 (1/v - 1) lam^v, and each further c_k appends a factor
    2 (1/v - k) lam^v.  All of them vanish at v = 1.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    v, lam = params.v, params.lam
    coeffs = []
    running = 1.0
    for k in range(1, order + 1):
        running *= 2.0 * (1.0 / v - k) * lam**v
        coeffs.append(running)
    return tuple(coeffs)


def tail_survival_expansion(params: GedParams, x: float, order: int) -> float:
    """Evaluate the order-k truncation of the upper-tail expansion at x.

    Rejects v = 1 (all correction terms vanish and the exact tail is
    elementary there) and x with x^-v >= 1, where the series is meaningless.
    """
    if abs(params.v - 1.0) <= EQ_TOL:
        raise ValueError("tail expansion degenerates at v = 1; use survival()")
    if not x > 1.0:
        raise ValueError(f"need x > 1 so that x^-v < 1, got x={x}")
    v = params.v
    series = 1.0
    for k, c in enumerate(tail_expansion_coefficients(params, order), start=1):
        series += c * x ** (-k * v)
    lead = 2.0 * params.lam**v / v * x ** (1.0 - v)
    return lead * series * pdf(params, x)
